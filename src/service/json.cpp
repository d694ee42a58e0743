#include "service/json.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace asicpp::service {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double d) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = d;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

const Json* Json::get(const std::string& key) const {
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

std::string Json::get_string(const std::string& key,
                             const std::string& dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_string() ? v->str_ : dflt;
}

double Json::get_number(const std::string& key, double dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_number() ? v->num_ : dflt;
}

bool Json::get_bool(const std::string& key, bool dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_bool() ? v->bool_ : dflt;
}

Json& Json::set(std::string key, Json v) {
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return old;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return obj_.back().second;
}

namespace {

void escape_to(const std::string& s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += "\\u00";
          out->push_back(kHex[(c >> 4) & 0xF]);
          out->push_back(kHex[c & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

void Json::dump_to(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber: {
      if (!std::isfinite(num_)) {
        *out += "null";  // JSON has no NaN/Inf
        break;
      }
      // The standard defines this conversion as printf's %.17g.
      char buf[32];
      const std::to_chars_result r = std::to_chars(
          buf, buf + sizeof buf, num_, std::chars_format::general, 17);
      out->append(buf, r.ptr);
      break;
    }
    case Kind::kString:
      escape_to(str_, out);
      break;
    case Kind::kArray:
      out->push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out->push_back(',');
        arr_[i].dump_to(out);
      }
      out->push_back(']');
      break;
    case Kind::kObject:
      out->push_back('{');
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out->push_back(',');
        escape_to(obj_[i].first, out);
        out->push_back(':');
        obj_[i].second.dump_to(out);
      }
      out->push_back('}');
      break;
  }
}

/// Recursive-descent parser that fills each value in place: a container's
/// element is pushed (or its member set) as null first and then parsed
/// into, so no value is built in a temporary and moved.
class Json::Parser {
 public:
  Parser(const std::string& text, std::string* err) : s_(text), err_(err) {}

  bool parse_document(Json* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing content");
    return true;
  }

 private:
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  bool fail(const std::string& why) {
    if (err_ != nullptr)
      *err_ = "json offset " + std::to_string(pos_) + ": " + why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool parse_value(Json* out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth)
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out->kind_ = Kind::kString;
      return parse_string(&out->str_);
    }
    if (c == 't' || c == 'f' || c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(Json* out) {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->kind_ = Kind::kBool;
      out->bool_ = true;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->kind_ = Kind::kBool;
    } else if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      return fail("invalid literal");
    }
    return true;
  }

  /// Strict JSON number grammar first (strtod-style extras such as "+1",
  /// "0x10", ".5", "01", "inf" and "NaN" are errors), then from_chars over
  /// exactly the matched text. An overflow ("1e400") is an error.
  bool parse_number(Json* out) {
    std::size_t p = pos_;
    const auto digits = [&] {
      const std::size_t from = p;
      while (p < s_.size() && is_digit(s_[p])) ++p;
      return p != from;
    };
    if (p < s_.size() && s_[p] == '-') ++p;
    if (p >= s_.size() || !is_digit(s_[p])) return fail("invalid number");
    if (s_[p] == '0') {
      ++p;
      if (p < s_.size() && is_digit(s_[p]))
        return fail("invalid number (leading zero)");
    } else {
      digits();
    }
    if (p < s_.size() && s_[p] == '.') {
      ++p;
      if (!digits()) return fail("invalid number (no digits after '.')");
    }
    if (p < s_.size() && (s_[p] == 'e' || s_[p] == 'E')) {
      ++p;
      if (p < s_.size() && (s_[p] == '+' || s_[p] == '-')) ++p;
      if (!digits()) return fail("invalid number (no exponent digits)");
    }
    const char* const first = s_.data() + pos_;
    const char* const last = s_.data() + p;
    double d = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, d);
    if (r.ec == std::errc::result_out_of_range) {
      // from_chars reports underflow and overflow alike. Only an overflow
      // is an error: a value too small for a double reads as a signed
      // zero, as strtod gives it.
      if (overflowed(first, last)) return fail("number out of range");
      d = *first == '-' ? -0.0 : 0.0;
    } else if (r.ec != std::errc() || r.ptr != last) {
      return fail("invalid number");
    }
    pos_ = p;
    out->kind_ = Kind::kNumber;
    out->num_ = d;
    return true;
  }

  /// Whether a grammar-checked number from_chars found out of range lies
  /// above 1 in magnitude (overflow) rather than below (underflow): the
  /// decimal position of its leading nonzero digit plus its exponent
  /// decides.
  static bool overflowed(const char* p, const char* last) {
    if (*p == '-') ++p;
    long long mag = 0;  // integer digits, or minus the fraction's leading zeros
    if (*p == '0') {
      ++p;
      if (p != last && *p == '.')
        for (++p; p != last && *p == '0'; ++p) --mag;
    } else {
      for (; p != last && is_digit(*p); ++p) ++mag;
    }
    while (p != last && *p != 'e' && *p != 'E') ++p;
    long long exp = 0;
    bool neg = false;
    if (p != last) {
      ++p;
      if (*p == '+' || *p == '-') neg = *p++ == '-';
      for (; p != last; ++p)
        if (exp < 1000000000) exp = exp * 10 + (*p - '0');
    }
    return mag + (neg ? -exp : exp) > 0;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      // Copy the run up to the next quote or escape in one append.
      std::size_t run = pos_;
      while (run < s_.size() && s_[run] != '"' && s_[run] != '\\') ++run;
      out->append(s_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= s_.size()) break;
      if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (pos_ + 1 >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_ + 1];
      pos_ += 2;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_ + static_cast<std::size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("invalid \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the basic-plane code point (surrogate pairs are
          // not needed by this protocol; lone surrogates encode as-is).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(Json* out) {
    out->kind_ = Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value(&out->push(Json()))) return false;
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json* out) {
    out->kind_ = Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    std::string key;
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"')
        return fail("expected object key");
      key.clear();
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Json& member = out->set(key, Json());
      if (!parse_value(&member)) return false;
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string* err_;
};

bool Json::parse(const std::string& text, Json* out, std::string* err) {
  *out = Json();
  Parser p(text, err);
  return p.parse_document(out);
}

}  // namespace asicpp::service
