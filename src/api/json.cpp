#include "api/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace qkdpp::api {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw_error(ErrorCode::kSerialization, "json: " + what);
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// Room a container gets with its first member or element, so that a
/// small one costs one allocation instead of one per doubling: every ETSI
/// object here but the status has at most four fields, and eight covers a
/// batch of up to eight keys or key ids and an error's detail list.
constexpr std::size_t kObjectRoom = 4;
constexpr std::size_t kArrayRoom = 8;

/// Orders an object's members against a key, in std::string's byte order.
struct KeyLess {
  bool operator()(const std::pair<std::string, Json>& member,
                  std::string_view key) const noexcept {
    return std::string_view(member.first) < key;
  }
};

const Json* find_member(const Json::Object& object, std::string_view key) {
  const auto it =
      std::lower_bound(object.begin(), object.end(), key, KeyLess{});
  return it != object.end() && it->first == key ? &it->second : nullptr;
}

/// Sets `key` in a sorted object: inserts at its lower bound, or replaces
/// the value of an equal key.
Json& assign_member(Json::Object& object, std::string_view key, Json value) {
  if (object.empty()) object.reserve(kObjectRoom);
  const auto it =
      std::lower_bound(object.begin(), object.end(), key, KeyLess{});
  if (it != object.end() && it->first == key) {
    it->second = std::move(value);
    return it->second;
  }
  return object.emplace(it, std::string(key), std::move(value))->second;
}

/// Sorts members appended in document order by key, keeping the last
/// value of a repeated key (what assigning them one by one would leave).
void sort_members(Json::Object& object) {
  std::stable_sort(
      object.begin(), object.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  auto out = object.begin();
  for (auto it = object.begin(); it != object.end(); ++it) {
    const auto next = std::next(it);
    if (next != object.end() && next->first == it->first) continue;
    if (out != it) *out = std::move(*it);
    ++out;
  }
  object.erase(out, object.end());
}

/// True for a string byte that needs no handling, by the parser and by the
/// serializer: neither a quote, a backslash nor a control byte. The parser
/// also stops at bytes >= 0x80, whose UTF-8 it validates; the serializer
/// copies them.
template <bool kAsciiOnly>
bool plain_byte(unsigned char c) noexcept {
  return c >= 0x20 && c != '"' && c != '\\' && (!kAsciiOnly || c < 0x80);
}

/// The first index at or after `i` whose byte is not plain_byte, or
/// s.size(). Eight bytes per step: a word holds a byte below 0x20, a quote
/// or a backslash exactly when the borrow tests below set a high bit (they
/// can mark bytes after the first match too, never miss one), and the byte
/// loop then finds the first one.
template <bool kAsciiOnly>
std::size_t skip_plain(std::string_view s, std::size_t i) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, 8);
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t slash = w ^ (kOnes * '\\');
    std::uint64_t stop = ((w - kOnes * 0x20) & ~w) |
                         ((quote - kOnes) & ~quote) |
                         ((slash - kOnes) & ~slash);
    if constexpr (kAsciiOnly) stop |= w;
    if (stop & kHigh) break;
  }
  while (i < s.size() &&
         plain_byte<kAsciiOnly>(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

}  // namespace

/// Recursive-descent parser over a string_view cursor. Strict JSON
/// (RFC 8259): no comments, no trailing commas, UTF-16 escapes decoded
/// to UTF-8, raw bytes accepted only as well-formed UTF-8. Depth-limited so
/// adversarial nesting cannot blow the stack. A member class of Json, so
/// it can hand a sorted member vector straight to an object.
class Json::Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) malformed("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  /// Shadows the file-scope malformed(): every parse error names the byte
  /// offset the cursor died at, so a client staring at a 400 can find the
  /// broken spot in its own request instead of re-bisecting the payload.
  [[noreturn]] void malformed(const std::string& what) const {
    throw_error(ErrorCode::kSerialization,
                "json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) malformed("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      malformed(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) malformed("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        malformed("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        malformed("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        malformed("bad literal");
      default: return parse_number();
    }
  }

  /// Members are appended in document order and sorted once at the end,
  /// and only when the document's keys were not already strictly
  /// increasing (every dump() is): inserting each at its lower bound would
  /// make a hostile object of reverse-ordered keys cost quadratic time.
  Json parse_object(int depth) {
    expect('{');
    Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    bool increasing = true;
    object.reserve(kObjectRoom);
    while (true) {
      skip_ws();
      if (peek() != '"') malformed("object key must be a string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      if (!object.empty() && !(object.back().first < key)) increasing = false;
      object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        if (!increasing) sort_members(object);
        return Json(std::move(object));
      }
      if (c != ',') malformed("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    array.reserve(kArrayRoom);
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(array));
      if (c != ',') malformed("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) malformed("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        malformed("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// Steps over one multi-byte UTF-8 sequence whose lead byte is at pos_.
  /// Well-formed means RFC 3629's table: no overlong form, no encoded
  /// surrogate (U+D800..U+DFFF), nothing above U+10FFFF, no missing
  /// continuation byte. Errors name the lead byte's offset.
  void skip_utf8_sequence() {
    const auto byte = [&](std::size_t i) {
      return static_cast<unsigned char>(text_[i]);
    };
    const unsigned char lead = byte(pos_);
    std::size_t length = 0;
    // Bounds of the first continuation byte; the others span 80..BF.
    unsigned char low = 0x80;
    unsigned char high = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
      length = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
      length = 3;
      if (lead == 0xE0) low = 0xA0;   // overlong below U+0800
      if (lead == 0xED) high = 0x9F;  // surrogates U+D800..U+DFFF
    } else if (lead >= 0xF0 && lead <= 0xF4) {
      length = 4;
      if (lead == 0xF0) low = 0x90;   // overlong below U+10000
      if (lead == 0xF4) high = 0x8F;  // above U+10FFFF
    } else {
      malformed("invalid UTF-8 lead byte in string");
    }
    if (pos_ + length > text_.size()) malformed("truncated UTF-8 in string");
    for (std::size_t i = 1; i < length; ++i) {
      const unsigned char c = byte(pos_ + i);
      if (c < low || c > high) malformed("invalid UTF-8 in string");
      low = 0x80;
      high = 0xBF;
    }
    pos_ += length;
  }

  /// Bytes that need no handling are appended a run at a time; only
  /// escapes, control bytes and non-ASCII bytes leave the scan loop.
  std::string parse_string() {
    expect('"');
    std::string out;
    std::size_t run = pos_;  // start of the bytes not yet appended
    while (true) {
      pos_ = skip_plain<true>(text_, pos_);
      if (pos_ >= text_.size()) malformed("unterminated string");
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c >= 0x80) {
        skip_utf8_sequence();
        continue;
      }
      out.append(text_.data() + run, pos_ - run);
      ++pos_;
      if (c == '"') return out;
      if (c < 0x20) malformed("unescaped control character in string");
      parse_escape(out);
      run = pos_;
    }
  }

  /// Decodes the escape after a backslash (already consumed) into `out`.
  void parse_escape(std::string& out) {
    if (pos_ >= text_.size()) malformed("truncated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        std::uint32_t cp = parse_hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            malformed("unpaired surrogate");
          }
          pos_ += 2;
          const std::uint32_t low = parse_hex4();
          if (low < 0xDC00 || low > 0xDFFF) malformed("bad low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          malformed("unpaired surrogate");
        }
        append_utf8(out, cp);
        break;
      }
      default: malformed("bad escape character");
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits_start = pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == digits_start) malformed("bad number");
    // Leading zeros are invalid JSON ("01"), a single "0" is fine.
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      malformed("leading zero in number");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      const std::size_t frac_start = pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == frac_start) malformed("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp_start = pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ == exp_start) malformed("bad exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Integer overflow: fall through to double like other parsers do.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      malformed("unparseable number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

namespace {

/// Appends `s` quoted and escaped: runs of plain bytes in one append each.
/// UTF-8 bytes pass through verbatim; control bytes without a short escape
/// become \u00XX.
void dump_string(std::string_view s, std::string& out) {
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = skip_plain<false>(s, 0); i < s.size();
       i = skip_plain<false>(s, run)) {
    const auto c = static_cast<unsigned char>(s[i]);
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                               kHexDigits[c & 0x0F]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (!is_bool()) malformed("expected bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  if (!is_int()) malformed("expected integer");
  return std::get<std::int64_t>(value_);
}

std::uint64_t Json::as_uint() const {
  const std::int64_t value = as_int();
  if (value < 0) malformed("expected non-negative integer");
  return static_cast<std::uint64_t>(value);
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (!is_double()) malformed("expected number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) malformed("expected string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) malformed("expected array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) malformed("expected object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find_member(as_object(), key);
  if (value == nullptr) {
    malformed("missing field '" + std::string(key) + "'");
  }
  return *value;
}

const Json* Json::find(std::string_view key) const {
  return is_object() ? find_member(std::get<Object>(value_), key) : nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
}

Json& Json::set(std::string_view key, Json value) {
  if (is_null()) value_ = Object{};
  if (!is_object()) malformed("set() on non-object");
  return assign_member(std::get<Object>(value_), key, std::move(value));
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  if (!is_array()) malformed("push_back() on non-array");
  auto& array = std::get<Array>(value_);
  if (array.empty()) array.reserve(kArrayRoom);
  array.push_back(std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  malformed("size() on non-container");
}

void Json::dump_to(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_int()) {
    std::array<char, 24> buf;
    const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                         std::get<std::int64_t>(value_));
    out.append(buf.data(), ptr);
  } else if (is_double()) {
    const double value = std::get<double>(value_);
    if (!std::isfinite(value)) {
      malformed("cannot serialize non-finite number");
    }
    std::array<char, 32> buf;
    const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                         value);
    out.append(buf.data(), ptr);
    // to_chars writes an integral double (100.0, -0.0) as "100" or "-0",
    // which would re-parse as an integer; a fraction keeps it a double.
    const auto integral = [](char c) {
      return c == '-' || (c >= '0' && c <= '9');
    };
    if (std::all_of(buf.data(), ptr, integral)) out += ".0";
  } else if (is_string()) {
    dump_string(std::get<std::string>(value_), out);
  } else if (is_array()) {
    out.push_back('[');
    const auto& array = std::get<Array>(value_);
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out.push_back(',');
      array[i].dump_to(out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    const auto& object = std::get<Object>(value_);
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      dump_string(key, out);
      out.push_back(':');
      value.dump_to(out);
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

}  // namespace qkdpp::api
