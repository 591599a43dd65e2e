// Executor-pool scheduler tests: the pool must run every task exactly once,
// propagate failures, and — the core contract of the parallel substrate —
// produce results and metrics (including a bit-identical simulated_ms) that
// match the serial reference path for any thread interleaving.

#include "spark/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spark/context.h"
#include "spark/rdd.h"
#include "spark/sql/dataframe.h"

namespace rdfspark::spark {
namespace {

/// A range callback running `body` on every index of its chunk, past a
/// throwing one, and rethrowing the chunk's first error at the end — the
/// per-task contract RunParallel builds on ParallelFor's chunks.
std::function<void(int, int)> EachIndex(std::function<void(int)> body) {
  return [body = std::move(body)](int begin, int end) {
    std::exception_ptr first_error;
    for (int i = begin; i < end; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  };
}

TEST(TaskSchedulerTest, RunsEveryIndexExactlyOnce) {
  TaskScheduler pool(4);
  constexpr int kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  std::atomic<int> chunks{0};
  pool.ParallelFor(kCount, [&](int begin, int end) {
    ASSERT_LT(begin, end);
    ++chunks;
    for (int i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
  // Shrinking claims: the first takes 500 / (2 x 4 slots) = 62 indices,
  // so the batch needs far fewer claims than tasks.
  EXPECT_LT(chunks.load(), kCount / 4);
}

TEST(TaskSchedulerTest, ReusableAcrossBatches) {
  TaskScheduler pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](int begin, int end) { total += end - begin; });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(TaskSchedulerTest, PropagatesTaskException) {
  TaskScheduler pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(32, EachIndex([&](int i) {
                                  ++ran;
                                  if (i == 7) {
                                    throw std::runtime_error("task 7 died");
                                  }
                                })),
               std::runtime_error);
  // The batch drains fully even when one task throws.
  EXPECT_EQ(ran.load(), 32);
  // And the pool is still usable afterwards.
  std::atomic<int> again{0};
  pool.ParallelFor(8, [&](int begin, int end) { again += end - begin; });
  EXPECT_EQ(again.load(), 8);
}

TEST(TaskSchedulerTest, ThrowMidChunkRunsEveryIndexOfBothBatches) {
  // A 10,000-task batch whose index 5,003 throws from the middle of its
  // chunk, next to a concurrent clean batch from another driver: every
  // index of both runs exactly once, only the failing batch's driver sees
  // the error.
  TaskScheduler pool(4);
  constexpr int kCount = 10000;
  constexpr int kThrowAt = 5003;
  std::vector<std::atomic<int>> bad_hits(kCount), good_hits(kCount);
  for (auto& h : bad_hits) h.store(0);
  for (auto& h : good_hits) h.store(0);
  std::mutex chunks_mu;
  std::vector<std::pair<int, int>> bad_chunks;
  std::thread bad([&] {
    auto each = EachIndex([&](int i) {
      ++bad_hits[static_cast<size_t>(i)];
      if (i == kThrowAt) throw std::runtime_error("task 5003 died");
    });
    EXPECT_THROW(pool.ParallelFor(kCount,
                                  [&](int begin, int end) {
                                    {
                                      std::lock_guard<std::mutex> l(chunks_mu);
                                      bad_chunks.emplace_back(begin, end);
                                    }
                                    each(begin, end);
                                  }),
                 std::runtime_error);
  });
  std::thread good([&] {
    EXPECT_NO_THROW(pool.ParallelFor(kCount, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) ++good_hits[static_cast<size_t>(i)];
    }));
  });
  bad.join();
  good.join();
  for (size_t i = 0; i < static_cast<size_t>(kCount); ++i) {
    ASSERT_EQ(bad_hits[i].load(), 1) << "failing batch, index " << i;
    ASSERT_EQ(good_hits[i].load(), 1) << "clean batch, index " << i;
  }
  auto chunk = std::find_if(bad_chunks.begin(), bad_chunks.end(),
                            [](const std::pair<int, int>& c) {
                              return c.first <= kThrowAt && kThrowAt < c.second;
                            });
  ASSERT_NE(chunk, bad_chunks.end());
  EXPECT_LT(chunk->first, kThrowAt) << "the throw must be mid-chunk";
  EXPECT_LT(kThrowAt + 1, chunk->second) << "the throw must be mid-chunk";
}

TEST(TaskSchedulerTest, TasksSeeWorkerFlag) {
  EXPECT_FALSE(TaskScheduler::InWorkerThread());
  TaskScheduler pool(2);
  std::atomic<int> flagged{0};
  pool.ParallelFor(16, [&](int begin, int end) {
    if (TaskScheduler::InWorkerThread()) flagged += end - begin;
  });
  // Every task runs under the flag — including those the caller ran itself.
  EXPECT_EQ(flagged.load(), 16);
  // The caller's flag is restored once the batch retires.
  EXPECT_FALSE(TaskScheduler::InWorkerThread());
}

TEST(TaskSchedulerTest, ConcurrentBatchesRunEveryTaskOnce) {
  // Several driver threads (the serving layer's workers) share one pool;
  // the multi-batch scheduler must run every task of every batch exactly
  // once, whatever the interleaving.
  TaskScheduler pool(4);
  constexpr int kDrivers = 8;
  constexpr int kCount = 200;
  std::vector<std::atomic<int>> hits(kDrivers * kCount);
  for (auto& h : hits) h.store(0);
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      pool.ParallelFor(kCount, [&, d](int begin, int end) {
        for (int i = begin; i < end; ++i) {
          ++hits[static_cast<size_t>(d * kCount + i)];
        }
      });
    });
  }
  for (auto& t : drivers) t.join();
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(TaskSchedulerTest, ExceptionIsolatedToItsOwnBatch) {
  // A throwing batch must not poison batches submitted by other drivers.
  TaskScheduler pool(4);
  std::atomic<int> good{0};
  std::thread bad([&] {
    EXPECT_THROW(pool.ParallelFor(64,
                                  [&](int begin, int end) {
                                    for (int i = begin; i < end; ++i) {
                                      if (i == 13) {
                                        throw std::runtime_error("boom");
                                      }
                                    }
                                  }),
                 std::runtime_error);
  });
  std::thread fine([&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(32, [&](int begin, int end) { good += end - begin; });
    }
  });
  bad.join();
  fine.join();
  EXPECT_EQ(good.load(), 640);
}

// --- Slots ------------------------------------------------------------------
// Every wait below is timed, so a scheduler that stops making progress
// fails these tests instead of hanging them.

using std::chrono::seconds;

/// Threads arriving at a count; Wait blocks, at most `timeout`, until
/// `n` have arrived, and reports whether they did.
class Arrivals {
 public:
  void Arrive() {
    std::lock_guard<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
  }
  bool Wait(int n, seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return arrived_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

TEST(TaskSchedulerTest, SaturatedDriversRunTheirOwnBatches) {
  // Two drivers hold both slots of a 2-slot pool, so its helper never
  // wakes: every batch is a single claim of all of its indices, run on
  // the thread that submitted it — the inline path's cost.
  TaskScheduler pool(2);
  constexpr int kBatches = 50;
  constexpr int kCount = 8;
  Arrivals holding, finished;
  std::atomic<int> ran{0};
  std::atomic<int> off_thread{0};
  std::atomic<int> claims[2] = {0, 0};
  auto drive = [&](int d) {
    TaskScheduler::Slot slot(&pool);
    holding.Arrive();
    EXPECT_TRUE(holding.Wait(2, seconds(5)));
    const std::thread::id self = std::this_thread::get_id();
    for (int b = 0; b < kBatches; ++b) {
      pool.ParallelFor(kCount, [&, d](int begin, int end) {
        ++claims[d];
        for (int i = begin; i < end; ++i) {
          ++ran;
          if (std::this_thread::get_id() != self) ++off_thread;
        }
      });
    }
    // Keep the slot until the other driver is done too: a slot freed
    // early would rightly bring the helper to its remaining batches.
    finished.Arrive();
    EXPECT_TRUE(finished.Wait(2, seconds(5)));
  };
  std::thread first(drive, 0);
  std::thread second(drive, 1);
  first.join();
  second.join();
  EXPECT_EQ(ran.load(), 2 * kBatches * kCount);
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(claims[0].load(), kBatches);
  EXPECT_EQ(claims[1].load(), kBatches);
}

TEST(TaskSchedulerTest, FreeSlotBringsAHelper) {
  // A lone driver leaves one slot of a 2-slot pool free, so the helper
  // must join: the two tasks wait for each other, and neither can finish
  // unless they run at once, on different threads.
  TaskScheduler pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::set<std::thread::id> threads;
  std::atomic<int> timed_out{0};
  pool.ParallelFor(2, EachIndex([&](int) {
                     std::unique_lock<std::mutex> lock(mu);
                     ++arrived;
                     threads.insert(std::this_thread::get_id());
                     cv.notify_all();
                     if (!cv.wait_for(lock, seconds(5),
                                      [&] { return arrived == 2; })) {
                       ++timed_out;
                     }
                   }));
  EXPECT_EQ(timed_out.load(), 0);
  EXPECT_EQ(threads.size(), 2u);
}

TEST(TaskSchedulerTest, DriverProgressesWhileHelpersAreBusy) {
  // Driver A's batch holds both helpers of a 3-slot pool (and A itself)
  // on a latch. Driver B needs no slot to make progress: it claims every
  // chunk of its own batch and finishes it on its own thread before A is
  // released.
  TaskScheduler pool(3);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> inside;  ///< Threads held in A's batch.
  bool released = false;
  std::thread a([&] {
    pool.ParallelFor(64, EachIndex([&](int) {
                       std::unique_lock<std::mutex> lock(mu);
                       inside.insert(std::this_thread::get_id());
                       cv.notify_all();
                       cv.wait_for(lock, seconds(30), [&] { return released; });
                     }));
  });
  auto release_a = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
    a.join();
  };
  {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, seconds(5), [&] { return inside.size() == 3; })) {
      lock.unlock();
      release_a();
      FAIL() << "driver A and both helpers never entered A's batch";
    }
  }
  std::atomic<int> ran{0};
  std::atomic<int> off_thread{0};
  Arrivals b_done;
  std::thread b([&] {
    const std::thread::id self = std::this_thread::get_id();
    pool.ParallelFor(1000, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        ++ran;
        if (std::this_thread::get_id() != self) ++off_thread;
      }
    });
    b_done.Arrive();
  });
  const bool b_finished_first = b_done.Wait(1, seconds(10));
  release_a();
  b.join();
  EXPECT_TRUE(b_finished_first) << "driver B waited for a busy helper";
  EXPECT_EQ(ran.load(), 1000);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(RunParallelTest, ConcurrentDriversShareOneLazyPool) {
  // Concurrent first-use of RunParallel races the lazy scheduler creation;
  // the once-guard must yield exactly one pool and lose no tasks.
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.executor_threads = 4;
  SparkContext sc(cfg);
  std::atomic<int> total{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 6; ++d) {
    drivers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        sc.RunParallel(25, [&](int) { ++total; });
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(total.load(), 6 * 10 * 25);
}

TEST(RunParallelTest, FailingTaskMidChunkStillRunsAndChargesEveryIndex) {
  // RunParallel keeps per-task semantics on top of chunked claims: a task
  // that throws does not cancel the rest of its chunk, and the charges of
  // every task — the failing chunk's included — still fold.
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.executor_threads = 4;
  SparkContext sc(cfg);
  constexpr int kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  sc.BeginPhase();
  EXPECT_THROW(sc.RunParallel(kCount,
                              [&](int i) {
                                ++hits[static_cast<size_t>(i)];
                                sc.ChargeTask(i, 1, 0);
                                if (i == 5003) {
                                  throw std::runtime_error("task died");
                                }
                              }),
               std::runtime_error);
  sc.EndPhase();
  for (size_t i = 0; i < static_cast<size_t>(kCount); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(static_cast<uint64_t>(sc.metrics().tasks), uint64_t{kCount});
  EXPECT_EQ(sc.metrics().task_records.count(), uint64_t{kCount});
  // 2,500 tasks per executor at 100,050 ns each.
  EXPECT_EQ(sc.metrics().simulated_ms.nanos(), 2500u * 100050u);
}

TEST(RunParallelTest, NestedCallsRunInline) {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  SparkContext sc(cfg);
  std::atomic<int> inner_total{0};
  sc.RunParallel(4, [&](int) {
    // A nested RunParallel from inside a task must not re-enter the pool's
    // batch machinery (that would deadlock); it runs inline.
    sc.RunParallel(4, [&](int) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 16);
}

// --- Phase accounting -----------------------------------------------------

ClusterConfig FourExecutors(int executor_threads = 0) {
  ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.default_parallelism = 8;
  cfg.executor_threads = executor_threads;
  return cfg;
}

TEST(PhaseAccountingTest, NestedPhasesFoldExactCharges) {
  // Default cost model: 100us task overhead, 50ns/record, 10ns/byte.
  SparkContext sc(FourExecutors());
  sc.BeginPhase();
  sc.ChargeTask(0, 100, 0);  // executor 0: 100000 + 5000 = 105000 ns
  sc.BeginPhase();
  sc.ChargeTask(1, 200, 50);  // executor 1: 100000 + 10000 + 500 = 110500 ns
  sc.EndPhase();              // folds max = 110500 ns
  sc.ChargeCompute(0, 100);   // executor 0: + 5000 -> 110000 ns
  sc.EndPhase();              // folds max = 110000 ns
  EXPECT_DOUBLE_EQ(sc.metrics().simulated_ms, 0.2205);
  EXPECT_EQ(static_cast<uint64_t>(sc.metrics().stages), 2u);
  EXPECT_EQ(static_cast<uint64_t>(sc.metrics().tasks), 2u);
  EXPECT_EQ(static_cast<uint64_t>(sc.metrics().records_processed), 400u);
}

TEST(PhaseAccountingTest, ParallelChargesLandInSubmittersPhase) {
  SparkContext sc(FourExecutors());
  sc.BeginPhase();
  sc.RunParallel(8, [&](int p) { sc.ChargeTask(p, 100, 0); });
  sc.EndPhase();
  // 8 tasks round-robin over 4 executors: 2 per executor, 105000 ns each.
  EXPECT_DOUBLE_EQ(sc.metrics().simulated_ms, 0.21);
  EXPECT_EQ(static_cast<uint64_t>(sc.metrics().tasks), 8u);
}

// --- Serial vs parallel equivalence ---------------------------------------

/// A pipeline exercising narrow chains, a shuffle (ReduceByKey), a sort and
/// actions, returning (collected result, metrics snapshot).
std::pair<std::vector<std::pair<int, int>>, Metrics> RunRddPipeline(
    int executor_threads) {
  SparkContext sc(FourExecutors(executor_threads));
  std::vector<int> data;
  for (int i = 0; i < 5000; ++i) data.push_back(i);
  auto pairs = Parallelize(&sc, data, 16)
                   .Map([](int x) { return std::make_pair(x % 97, x); })
                   .Filter([](const std::pair<int, int>& kv) {
                     return kv.second % 3 != 0;
                   })
                   .ReduceByKey([](int a, int b) { return a + b; });
  auto sorted = pairs.SortBy(
      [](const std::pair<int, int>& kv) { return kv.first; }, true, 8);
  auto out = sorted.Collect();
  (void)pairs.Count();
  return {std::move(out), sc.metrics()};
}

TEST(ParallelEquivalenceTest, RddPipelineMatchesSerialBitForBit) {
  auto [serial_out, serial_m] = RunRddPipeline(/*executor_threads=*/1);
  auto [parallel_out, parallel_m] = RunRddPipeline(/*executor_threads=*/0);

  EXPECT_EQ(serial_out, parallel_out);
  EXPECT_EQ(static_cast<uint64_t>(serial_m.jobs),
            static_cast<uint64_t>(parallel_m.jobs));
  EXPECT_EQ(static_cast<uint64_t>(serial_m.stages),
            static_cast<uint64_t>(parallel_m.stages));
  EXPECT_EQ(static_cast<uint64_t>(serial_m.tasks),
            static_cast<uint64_t>(parallel_m.tasks));
  EXPECT_EQ(static_cast<uint64_t>(serial_m.records_processed),
            static_cast<uint64_t>(parallel_m.records_processed));
  EXPECT_EQ(static_cast<uint64_t>(serial_m.shuffle_records),
            static_cast<uint64_t>(parallel_m.shuffle_records));
  EXPECT_EQ(static_cast<uint64_t>(serial_m.shuffle_bytes),
            static_cast<uint64_t>(parallel_m.shuffle_bytes));
  EXPECT_EQ(static_cast<uint64_t>(serial_m.remote_shuffle_bytes),
            static_cast<uint64_t>(parallel_m.remote_shuffle_bytes));
  // Bit-for-bit: integer-nanosecond accounting makes the fold order
  // irrelevant, so this is an exact equality, not a tolerance check.
  EXPECT_EQ(serial_m.simulated_ms.nanos(), parallel_m.simulated_ms.nanos());
}

TEST(ParallelEquivalenceTest, SimulatedMsIsDeterministicAcrossRuns) {
  auto [out0, m0] = RunRddPipeline(/*executor_threads=*/0);
  for (int run = 1; run < 5; ++run) {
    auto [out, m] = RunRddPipeline(/*executor_threads=*/0);
    EXPECT_EQ(out, out0);
    EXPECT_EQ(m.simulated_ms.nanos(), m0.simulated_ms.nanos());
    EXPECT_EQ(static_cast<uint64_t>(m.tasks),
              static_cast<uint64_t>(m0.tasks));
  }
}

/// Stress: many small partitions hammering the pool, repeated to shake out
/// interleavings. Results and metrics must match the serial path every time.
TEST(ParallelEquivalenceTest, StressManySmallPartitions) {
  auto run = [](int executor_threads) {
    SparkContext sc(FourExecutors(executor_threads));
    std::vector<int> data;
    for (int i = 0; i < 2000; ++i) data.push_back(i);
    auto rdd = Parallelize(&sc, data, 64).Map([](int x) { return x * 2; });
    auto collected = rdd.Collect();
    uint64_t count = rdd.Count();
    return std::make_tuple(std::move(collected), count,
                           static_cast<uint64_t>(sc.metrics().tasks),
                           sc.metrics().simulated_ms.nanos());
  };
  auto expected = run(1);
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(run(0), expected) << "rep " << rep;
  }
}

struct DataFrameRun {
  std::vector<sql::Row> rows;
  OpStats op;  ///< The driver's operator scope after the run.
};

/// A DataFrame pipeline run on `sc` under its own operator scope: a
/// filter, a shuffle hash join, an aggregation, a sort and DISTINCT, then
/// cartesian joins whose 64 and 512 partitions are mostly empty (3 x 2
/// rows spread over 8 x 8 partitions) — the chunk-folded, header-free
/// path the naive SQL translation takes.
DataFrameRun RunDataFramePipeline(SparkContext& sc) {
  auto op = std::make_shared<OpStats>();
  OpScopeGuard scope(op);
  sql::Schema schema{{sql::Field{"id", sql::DataType::kInt64},
                      sql::Field{"grp", sql::DataType::kString}}};
  std::vector<sql::Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({int64_t{i}, std::string(i % 7 ? "odd" : "seven")});
  }
  auto df = sql::DataFrame::FromRows(&sc, schema, rows, 8);
  auto filtered = df.Filter(sql::Col("id") < sql::Lit(int64_t{900}));
  auto joined = filtered.Join(df.Rename({"id2", "grp2"}),
                              {{"grp", "grp2"}}, sql::JoinType::kInner,
                              sql::JoinStrategy::kShuffleHash);
  auto grouped = joined.GroupByAgg(
      {"grp"}, {sql::AggSpec{sql::AggOp::kCount, "", "n"}});
  DataFrameRun run;
  run.rows = grouped.Sort({{"grp", true}}).Collect();
  (void)filtered.Distinct().Count();

  sql::Schema left_schema{{sql::Field{"k", sql::DataType::kInt64},
                           sql::Field{"name", sql::DataType::kString}}};
  sql::Schema right_schema{{sql::Field{"k2", sql::DataType::kInt64}}};
  auto left = sql::DataFrame::FromRows(
      &sc, left_schema,
      {{int64_t{1}, std::string("a")},
       {int64_t{2}, std::string("b")},
       {int64_t{2}, std::string("c")}},
      8);
  auto right = sql::DataFrame::FromRows(&sc, right_schema,
                                        {{int64_t{2}}, {int64_t{3}}}, 8);
  auto matched = left.Join(right, {{"k", "k2"}}, sql::JoinType::kInner,
                           sql::JoinStrategy::kCartesian);
  auto widened = matched.CrossJoin(right.Rename({"k3"}));
  for (auto& row : widened.Select({"name", "k3"}).Collect()) {
    run.rows.push_back(std::move(row));
  }
  run.op = *op;
  return run;
}

/// Every exported Metrics scalar and every histogram bucket must match.
void ExpectSameMetrics(const Metrics& want, const Metrics& got,
                       const std::string& label) {
  auto scalars = [](const Metrics& m) {
    std::vector<std::pair<std::string, double>> out;
    m.ForEachNumericField([&](const std::string& name, double v) {
      out.emplace_back(name, v);
    });
    return out;
  };
  auto buckets = [](const Metrics& m) {
    std::vector<std::pair<std::string, std::vector<uint64_t>>> out;
    m.ForEachHistogram([&](const std::string& name, const Histogram& h) {
      std::vector<uint64_t> values;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        values.push_back(h.bucket(b));
      }
      values.push_back(h.count());
      values.push_back(h.sum());
      values.push_back(h.max_value());
      out.emplace_back(name, std::move(values));
    });
    return out;
  };
  EXPECT_EQ(scalars(want), scalars(got)) << label;
  EXPECT_EQ(buckets(want), buckets(got)) << label;
  EXPECT_EQ(want.simulated_ms.nanos(), got.simulated_ms.nanos()) << label;
}

std::vector<uint64_t> OpCounters(const OpStats& s) {
  return {s.tasks,
          s.records_in,
          s.join_comparisons,
          s.shuffle_records,
          s.shuffle_bytes,
          s.remote_shuffle_bytes,
          s.local_read_records,
          s.remote_read_records,
          s.broadcast_bytes,
          s.busy_ns};
}

TEST(ParallelEquivalenceTest, DataFramePipelineMatchesSerial) {
  auto run_alone = [](int executor_threads) {
    SparkContext sc(FourExecutors(executor_threads));
    DataFrameRun run = RunDataFramePipeline(sc);
    return std::make_pair(std::move(run), Metrics(sc.metrics()));
  };
  auto [serial, serial_m] = run_alone(/*executor_threads=*/1);
  auto [pooled, pooled_m] = run_alone(/*executor_threads=*/4);

  // The cartesian stages are what make the check bite: most of their
  // tasks see no rows, and they pull remote partitions.
  EXPECT_GT(serial_m.task_records.bucket(0), serial_m.tasks / 2);
  EXPECT_GT(static_cast<uint64_t>(serial.op.remote_read_records), 0u);
  EXPECT_GT(static_cast<uint64_t>(serial.op.join_comparisons), 0u);
  EXPECT_EQ(static_cast<uint64_t>(serial.op.tasks),
            static_cast<uint64_t>(serial_m.tasks));

  EXPECT_EQ(serial.rows, pooled.rows);
  ExpectSameMetrics(serial_m, pooled_m, "executor_threads 1 vs 4");
  EXPECT_EQ(OpCounters(serial.op), OpCounters(pooled.op));

  // Two drivers on one pooled context, each under its own operator scope:
  // each scope gets exactly a lone run's charges, the context their sum.
  SparkContext sc(FourExecutors(4));
  DataFrameRun a, b;
  std::thread driver_a([&] { a = RunDataFramePipeline(sc); });
  std::thread driver_b([&] { b = RunDataFramePipeline(sc); });
  driver_a.join();
  driver_b.join();
  EXPECT_EQ(a.rows, serial.rows);
  EXPECT_EQ(b.rows, serial.rows);
  EXPECT_EQ(OpCounters(a.op), OpCounters(serial.op));
  EXPECT_EQ(OpCounters(b.op), OpCounters(serial.op));
  Metrics twice = serial_m;
  twice += serial_m;
  ExpectSameMetrics(twice, sc.metrics(), "two concurrent drivers");
}

// --- Seed-bug regressions -------------------------------------------------

TEST(CartesianTest, HugePartitionsDoNotOverflowReserve) {
  // Two single-partition RDDs whose size product would previously be passed
  // straight to vector::reserve. With modest sizes this still verifies the
  // clamped-estimate path produces the full product.
  SparkContext sc(FourExecutors(1));
  std::vector<int> a(300), b(300);
  auto left = Parallelize(&sc, a, 1);
  auto right = Parallelize(&sc, b, 1);
  EXPECT_EQ(left.Cartesian(right).Count(), 90000u);
}

}  // namespace
}  // namespace rdfspark::spark
