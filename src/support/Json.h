//===-- support/Json.h - Minimal JSON reader/writer -------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal recursive-descent JSON parser and string escaper, for the
/// serve layer's job-spec files and state manifests. Deliberately tiny:
/// the full value model (null/bool/number/string/array/object), strict
/// enough to reject malformed input with a position-stamped error, and
/// nothing else — no streaming, no DOM mutation, no allocator knobs.
/// Writers in this codebase emit JSON with fprintf; escapeJsonString
/// covers the string quoting they need.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_SUPPORT_JSON_H
#define HICHI_SUPPORT_JSON_H

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace hichi {
namespace json {

/// One parsed JSON value. Objects keep member order (insertion order of
/// the document), so round-tripped manifests stay diffable.
struct Value {
  enum Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Items;                              ///< Array
  std::vector<std::pair<std::string, Value>> Members;    ///< Object

  bool isNull() const { return K == Null; }
  bool isObject() const { return K == Object; }
  bool isArray() const { return K == Array; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const Value *find(const std::string &Name) const {
    if (K != Object)
      return nullptr;
    for (const auto &M : Members)
      if (M.first == Name)
        return &M.second;
    return nullptr;
  }

  /// Typed member accessors with defaults — absent members and type
  /// mismatches fall back to \p Default, so spec files stay terse.
  double numberOr(const std::string &Name, double Default) const {
    const Value *V = find(Name);
    return V && V->K == Number ? V->Num : Default;
  }
  /// Integer member into \p Out, whose current value is the default
  /// (kept when the member is absent or not a number). A number with a
  /// fraction or outside int's range is refused — \returns false with a
  /// one-line reason naming the member in \p Error — rather than
  /// truncated or wrapped (4294967312 must not become 16, and 1e99 must
  /// not reach an out-of-range float-to-int conversion).
  bool readInt(const std::string &Name, int &Out, std::string *Error) const {
    const Value *V = find(Name);
    if (!V || V->K != Number)
      return true;
    // NaN fails both comparisons, an infinity one of them.
    if (V->Num >= double(INT_MIN) && V->Num <= double(INT_MAX) &&
        V->Num == std::floor(V->Num)) {
      Out = int(V->Num);
      return true;
    }
    if (Error)
      *Error = "\"" + Name + "\" must be an integer within int range";
    return false;
  }
  std::string stringOr(const std::string &Name,
                       const std::string &Default) const {
    const Value *V = find(Name);
    return V && V->K == String ? V->Str : Default;
  }
  bool boolOr(const std::string &Name, bool Default) const {
    const Value *V = find(Name);
    return V && V->K == Bool ? V->B : Default;
  }
};

namespace detail {

/// Hard cap on container nesting. The parser is recursive-descent, so a
/// hostile `[[[[...]]]]` job spec or machine-profile file would otherwise
/// walk the stack off a cliff; 64 levels is far beyond anything our
/// writers emit while staying thousands of frames short of overflow.
inline constexpr int MaxParseDepth = 64;

struct Parser {
  const char *P;
  const char *End;
  std::string Error;
  int Depth = 0;

  void skipSpace() {
    while (P < End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message;
    return false;
  }

  bool literal(const char *Word) {
    for (const char *W = Word; *W; ++W, ++P)
      if (P >= End || *P != *W)
        return fail(std::string("expected '") + Word + "'");
    return true;
  }

  bool parseString(std::string &Out) {
    if (P >= End || *P != '"')
      return fail("expected '\"'");
    ++P;
    Out.clear();
    while (P < End && *P != '"') {
      char C = *P++;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (P >= End)
        return fail("unterminated escape");
      char E = *P++;
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (End - P < 4)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          const char H = *P++;
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code += unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code += unsigned(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // ASCII range only; anything wider is replaced (manifests and
        // job specs are ASCII in practice).
        Out += Code < 0x80 ? char(Code) : '?';
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (P >= End)
      return fail("unterminated string");
    ++P; // closing quote
    return true;
  }

  bool parseValue(Value &Out) {
    if (Depth >= MaxParseDepth)
      return fail("nesting too deep");
    ++Depth;
    const bool Ok = parseValueNested(Out);
    --Depth;
    return Ok;
  }

  bool parseValueNested(Value &Out) {
    skipSpace();
    if (P >= End)
      return fail("unexpected end of input");
    switch (*P) {
    case '{': {
      ++P;
      Out.K = Value::Object;
      skipSpace();
      if (P < End && *P == '}') {
        ++P;
        return true;
      }
      while (true) {
        skipSpace();
        std::string Name;
        if (!parseString(Name))
          return false;
        skipSpace();
        if (P >= End || *P != ':')
          return fail("expected ':'");
        ++P;
        Value Member;
        if (!parseValue(Member))
          return false;
        Out.Members.emplace_back(std::move(Name), std::move(Member));
        skipSpace();
        if (P < End && *P == ',') {
          ++P;
          continue;
        }
        if (P < End && *P == '}') {
          ++P;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    case '[': {
      ++P;
      Out.K = Value::Array;
      skipSpace();
      if (P < End && *P == ']') {
        ++P;
        return true;
      }
      while (true) {
        Value Item;
        if (!parseValue(Item))
          return false;
        Out.Items.push_back(std::move(Item));
        skipSpace();
        if (P < End && *P == ',') {
          ++P;
          continue;
        }
        if (P < End && *P == ']') {
          ++P;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '"':
      Out.K = Value::String;
      return parseString(Out.Str);
    case 't':
      Out.K = Value::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = Value::Bool;
      Out.B = false;
      return literal("false");
    case 'n':
      Out.K = Value::Null;
      return literal("null");
    default: {
      char *NumEnd = nullptr;
      Out.K = Value::Number;
      Out.Num = std::strtod(P, &NumEnd);
      if (NumEnd == P)
        return fail("expected a value");
      P = NumEnd;
      return true;
    }
    }
  }
};

} // namespace detail

/// Parses \p Text into \p Out. Trailing non-space content after the
/// document is an error. \returns false with a reason in \p Error (when
/// provided) on malformed input.
inline bool parse(const std::string &Text, Value &Out,
                  std::string *Error = nullptr) {
  detail::Parser Parser{Text.data(), Text.data() + Text.size(), {}};
  Out = Value{};
  bool Ok = Parser.parseValue(Out);
  if (Ok) {
    Parser.skipSpace();
    if (Parser.P != Parser.End)
      Ok = Parser.fail("trailing content after document");
  }
  if (!Ok && Error) {
    *Error = Parser.Error + " at offset " +
             std::to_string(Parser.P - Text.data());
  }
  return Ok;
}

/// Reads and parses a whole JSON file. \returns false with a reason on
/// I/O or parse failure.
inline bool parseFile(const std::string &Path, Value &Out,
                      std::string *Error = nullptr) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    if (Error)
      *Error = Path + ": cannot open";
    return false;
  }
  std::string Text;
  char Buf[4096];
  std::size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Text.append(Buf, Got);
  std::fclose(File);
  if (!parse(Text, Out, Error)) {
    if (Error)
      *Error = Path + ": " + *Error;
    return false;
  }
  return true;
}

/// Escapes \p S for inclusion inside JSON double quotes (fprintf-style
/// writers pair with this).
inline std::string escapeJsonString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if ((unsigned char)C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(C));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace json
} // namespace hichi

#endif // HICHI_SUPPORT_JSON_H
