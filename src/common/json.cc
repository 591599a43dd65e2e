#include "common/json.h"

#include <cctype>
#include <cstdio>

namespace rdfspark {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

/// Recursive-descent validator over the JSON grammar. Positions are byte
/// offsets into the original text for error reporting.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Parse(std::string* error) {
    SkipWs();
    if (!ParseValue(0)) {
      if (error != nullptr) {
        *error = error_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Peek(char* c) const {
    if (pos_ >= text_.size()) return false;
    *c = text_[pos_];
    return true;
  }

  bool ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    char c;
    if (!Peek(&c)) return Fail("unexpected end of input");
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool ParseObject(int depth) {
    ++pos_;  // '{'
    SkipWs();
    char c;
    if (Peek(&c) && c == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Peek(&c) || c != '"') return Fail("expected object key");
      if (!ParseString()) return false;
      SkipWs();
      if (!Peek(&c) || c != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      if (!ParseValue(depth + 1)) return false;
      SkipWs();
      if (!Peek(&c)) return Fail("unterminated object");
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(int depth) {
    ++pos_;  // '['
    SkipWs();
    char c;
    if (Peek(&c) && c == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseValue(depth + 1)) return false;
      SkipWs();
      if (!Peek(&c)) return Fail("unterminated array");
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString() {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return Fail("raw control character in string");
      ++pos_;
      if (c != '\\') continue;
      char e;
      if (!Peek(&e)) return Fail("unterminated escape");
      ++pos_;
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          char h;
          if (!Peek(&h) || std::isxdigit(static_cast<unsigned char>(h)) == 0) {
            return Fail("bad \\u escape");
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        --pos_;
        return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber() {
    size_t start = pos_;
    char c;
    if (Peek(&c) && c == '-') ++pos_;
    if (!Peek(&c) || std::isdigit(static_cast<unsigned char>(c)) == 0) {
      return Fail("expected value");
    }
    if (c == '0') {
      ++pos_;
    } else {
      while (Peek(&c) && std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      }
    }
    if (Peek(&c) && c == '.') {
      ++pos_;
      if (!Peek(&c) || std::isdigit(static_cast<unsigned char>(c)) == 0) {
        return Fail("digit expected after '.'");
      }
      while (Peek(&c) && std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      }
    }
    if (Peek(&c) && (c == 'e' || c == 'E')) {
      ++pos_;
      if (Peek(&c) && (c == '+' || c == '-')) ++pos_;
      if (!Peek(&c) || std::isdigit(static_cast<unsigned char>(c)) == 0) {
        return Fail("digit expected in exponent");
      }
      while (Peek(&c) && std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ValidateJson(std::string_view text, std::string* error) {
  return JsonValidator(text).Parse(error);
}

}  // namespace rdfspark
