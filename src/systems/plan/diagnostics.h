#ifndef RDFSPARK_SYSTEMS_PLAN_DIAGNOSTICS_H_
#define RDFSPARK_SYSTEMS_PLAN_DIAGNOSTICS_H_

#include <string>
#include <vector>

namespace rdfspark::systems::plan {

/// Severity of a plan-verifier finding. ERRORs mean the plan would compute
/// wrong results (or is internally inconsistent) and fail verify-before-
/// execute; WARNs flag plan shapes the paper identifies as performance
/// hazards; INFOs point at missed opportunities.
enum class Severity { kInfo, kWarn, kError };

const char* SeverityName(Severity s);

/// One typed finding from the static plan verifier. `rule` is a stable id
/// (SC001, SC002, CP001, BC001, ST001, VP001); `node_path` locates the node
/// as a dotted child-index path from the root ("0", "0.1.0") plus the node's
/// kind name; `hint` says how to fix or why it is acceptable.
struct Diagnostic {
  Severity severity = Severity::kInfo;
  std::string rule;
  std::string node_path;
  std::string message;
  std::string hint;
};

/// "ERROR [SC001] at 0.1 PartitionedHashJoin: <message> (hint: <hint>)"
std::string FormatDiagnostic(const Diagnostic& d);

/// One FormatDiagnostic line per finding, newline-terminated; empty string
/// when there are no findings.
std::string FormatDiagnostics(const std::vector<Diagnostic>& diags);

bool HasError(const std::vector<Diagnostic>& diags);

/// Orders findings most-severe first, then by rule id, node path and
/// message. Stable, so equal findings keep their emission order.
void SortDiagnostics(std::vector<Diagnostic>* diags);

/// The one rendering shared by the shell's lint surfaces (`.lint`,
/// `.lineage`): severity-sorted FormatDiagnostic lines, or the literal
/// "no findings\n" when the list is empty.
std::string RenderDiagnostics(std::vector<Diagnostic> diags);

/// Just the ERROR-level findings, in input order.
std::vector<Diagnostic> ErrorsOnly(const std::vector<Diagnostic>& diags);

}  // namespace rdfspark::systems::plan

#endif  // RDFSPARK_SYSTEMS_PLAN_DIAGNOSTICS_H_
