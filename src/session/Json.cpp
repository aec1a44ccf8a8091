//===- session/Json.cpp - Minimal JSON value, writer, parser --------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "session/Json.h"
#include "support/Format.h"
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#ifdef _WIN32
#include <direct.h>
#include <process.h>
#define getpid _getpid
#else
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace icb;
using namespace icb::session;

//===----------------------------------------------------------------------===//
// JsonValue accessors
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const Member &M : Obj)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

JsonValue &JsonValue::set(const std::string &Key, JsonValue Value) {
  K = Kind::Object;
  for (Member &M : Obj)
    if (M.first == Key) {
      M.second = std::move(Value);
      return M.second;
    }
  Obj.emplace_back(Key, std::move(Value));
  return Obj.back().second;
}

bool JsonValue::getU64(const std::string &Key, uint64_t &Out) const {
  const JsonValue *V = find(Key);
  if (!V || V->K != Kind::Number)
    return false;
  Out = V->U;
  return true;
}

bool JsonValue::getU32(const std::string &Key, uint32_t &Out) const {
  uint64_t Wide = 0;
  if (!getU64(Key, Wide) || Wide > UINT32_MAX)
    return false;
  Out = static_cast<uint32_t>(Wide);
  return true;
}

bool JsonValue::getBool(const std::string &Key, bool &Out) const {
  const JsonValue *V = find(Key);
  if (!V || V->K != Kind::Bool)
    return false;
  Out = V->B;
  return true;
}

bool JsonValue::getString(const std::string &Key, std::string &Out) const {
  const JsonValue *V = find(Key);
  if (!V || V->K != Kind::String)
    return false;
  Out = V->S;
  return true;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strFormat("\\u%04x", C);
      else
        Out += C;
    }
  }
  Out += '"';
}

void writeValue(std::string &Out, const JsonValue &V, unsigned Depth) {
  auto Indent = [&](unsigned D) { Out.append(2 * D, ' '); };
  switch (V.K) {
  case JsonValue::Kind::Null:
    Out += "null";
    return;
  case JsonValue::Kind::Bool:
    Out += V.B ? "true" : "false";
    return;
  case JsonValue::Kind::Number:
    Out += std::to_string(V.U);
    return;
  case JsonValue::Kind::String:
    appendEscaped(Out, V.S);
    return;
  case JsonValue::Kind::Array: {
    if (V.Arr.empty()) {
      Out += "[]";
      return;
    }
    // Arrays of scalars stay on one line (digit-heavy coverage curves
    // would otherwise dominate the file); arrays of containers nest.
    bool Nested = false;
    for (const JsonValue &E : V.Arr)
      Nested |= E.K == JsonValue::Kind::Array || E.isObject();
    Out += '[';
    for (size_t I = 0; I != V.Arr.size(); ++I) {
      if (I)
        Out += ',';
      if (Nested) {
        Out += '\n';
        Indent(Depth + 1);
      } else if (I) {
        Out += ' ';
      }
      writeValue(Out, V.Arr[I], Depth + 1);
    }
    if (Nested) {
      Out += '\n';
      Indent(Depth);
    }
    Out += ']';
    return;
  }
  case JsonValue::Kind::Object: {
    if (V.Obj.empty()) {
      Out += "{}";
      return;
    }
    Out += '{';
    for (size_t I = 0; I != V.Obj.size(); ++I) {
      if (I)
        Out += ',';
      Out += '\n';
      Indent(Depth + 1);
      appendEscaped(Out, V.Obj[I].first);
      Out += ": ";
      writeValue(Out, V.Obj[I].second, Depth + 1);
    }
    Out += '\n';
    Indent(Depth);
    Out += '}';
    return;
  }
  }
}

} // namespace

std::string icb::session::jsonWrite(const JsonValue &V) {
  std::string Out;
  writeValue(Out, V, 0);
  Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string *Error)
      : Text(Text), Error(Error) {}

  bool parseTop(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing garbage after JSON value");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const char *Msg) {
    if (Error)
      *Error = strFormat("JSON parse error at offset %zu: %s", Pos, Msg);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // Our writer only emits \u00xx control escapes; decode the BMP
        // as UTF-8 for good measure.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == 'n') {
      if (!literal("null"))
        return fail("bad literal");
      Out = JsonValue::null();
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return fail("bad literal");
      Out = JsonValue::boolean(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return fail("bad literal");
      Out = JsonValue::boolean(false);
      return true;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue::str(std::move(S));
      return true;
    }
    if (C >= '0' && C <= '9') {
      uint64_t U = 0;
      size_t Start = Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
        uint64_t Digit = static_cast<uint64_t>(Text[Pos] - '0');
        if (U > (UINT64_MAX - Digit) / 10)
          return fail("number out of range");
        U = U * 10 + Digit;
        ++Pos;
      }
      if (Pos < Text.size() &&
          (Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E'))
        return fail("non-integer numbers are not supported");
      if (Pos == Start)
        return fail("expected number");
      Out = JsonValue::number(U);
      return true;
    }
    if (C == '-')
      return fail("negative numbers are not supported");
    if (C == '[') {
      ++Pos;
      Out = JsonValue::array();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        JsonValue Elem;
        skipWs();
        if (!parseValue(Elem, Depth + 1))
          return false;
        Out.Arr.push_back(std::move(Elem));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '{') {
      ++Pos;
      Out = JsonValue::object();
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        skipWs();
        JsonValue Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        Out.Obj.emplace_back(std::move(Key), std::move(Value));
        skipWs();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    return fail("unexpected character");
  }

  const std::string &Text;
  std::string *Error;
  size_t Pos = 0;
};

} // namespace

bool icb::session::jsonParse(const std::string &Text, JsonValue &Out,
                             std::string *Error) {
  return Parser(Text, Error).parseTop(Out);
}

//===----------------------------------------------------------------------===//
// Digest hex encoding
//===----------------------------------------------------------------------===//

std::string icb::session::digestsToHex(const std::vector<uint64_t> &Digests) {
  std::string Out;
  Out.reserve(Digests.size() * 17);
  char Buf[17];
  for (size_t I = 0; I != Digests.size(); ++I) {
    if (I)
      Out += ' ';
    std::snprintf(Buf, sizeof(Buf), "%llx",
                  static_cast<unsigned long long>(Digests[I]));
    Out += Buf;
  }
  return Out;
}

std::string
icb::session::digestsToHexCompact(const std::vector<uint64_t> &Digests,
                                  size_t CompactThreshold) {
  // Sorting and deduplicating on write (format v4) makes the section
  // deterministic whatever order the (possibly sharded) caches drained
  // in; the loader accepts any order in either encoding.
  std::vector<uint64_t> Sorted = Digests;
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  if (Sorted.size() < CompactThreshold)
    return digestsToHex(Sorted);
  std::string Out;
  Out.reserve(Sorted.size() * 6 + 2);
  Out += '*';
  char Buf[17];
  uint64_t Prev = 0;
  for (uint64_t D : Sorted) {
    Out += ' ';
    std::snprintf(Buf, sizeof(Buf), "%llx",
                  static_cast<unsigned long long>(D - Prev));
    Out += Buf;
    Prev = D;
  }
  return Out;
}

bool icb::session::digestsFromHex(const std::string &Text,
                                  std::vector<uint64_t> &Out) {
  Out.clear();
  size_t Pos = 0;
  while (Pos < Text.size() && Text[Pos] == ' ')
    ++Pos;
  // "*" marks the compact (sorted, delta-encoded) form.
  bool Delta = false;
  if (Pos < Text.size() && Text[Pos] == '*') {
    Delta = true;
    ++Pos;
    if (Pos < Text.size() && Text[Pos] != ' ')
      return false;
  }
  uint64_t Prev = 0;
  while (Pos < Text.size()) {
    if (Text[Pos] == ' ') {
      ++Pos;
      continue;
    }
    uint64_t Value = 0;
    size_t Digits = 0;
    while (Pos < Text.size() && Text[Pos] != ' ') {
      char C = Text[Pos];
      uint64_t Nibble;
      if (C >= '0' && C <= '9')
        Nibble = static_cast<uint64_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Nibble = static_cast<uint64_t>(C - 'a' + 10);
      else
        return false;
      if (++Digits > 16)
        return false; // More than 64 bits.
      Value = (Value << 4) | Nibble;
      ++Pos;
    }
    if (Delta) {
      Value += Prev;
      Prev = Value;
    }
    Out.push_back(Value);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Atomic file I/O
//===----------------------------------------------------------------------===//

bool icb::session::atomicWriteFile(const std::string &Path,
                                   const std::string &Content,
                                   std::string *Error) {
  // A temp name of this writer's own, beside the target (same file
  // system, so the rename is atomic): two writers of one path — threads,
  // or processes such as concurrently running tests — never write or
  // rename each other's temp file. "x" creates exclusively; a name left
  // by a dead process with a recycled pid is skipped.
  static std::atomic<uint64_t> Serial{0};
  std::string Tmp;
  std::FILE *F = nullptr;
  for (int Try = 0; !F && Try != 16; ++Try) {
    Tmp = strFormat("%s.tmp.%ld.%llu", Path.c_str(),
                    static_cast<long>(getpid()),
                    static_cast<unsigned long long>(Serial++));
    F = std::fopen(Tmp.c_str(), "wbx");
    if (!F && errno != EEXIST)
      break;
  }
  if (!F) {
    if (Error)
      *Error = strFormat("cannot open '%s' for writing", Tmp.c_str());
    return false;
  }
  bool Ok = std::fwrite(Content.data(), 1, Content.size(), F) ==
            Content.size();
  Ok = std::fflush(F) == 0 && Ok;
#ifndef _WIN32
  Ok = fsync(fileno(F)) == 0 && Ok;
#endif
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok) {
    if (Error)
      *Error = strFormat("write to '%s' failed", Tmp.c_str());
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    if (Error)
      *Error = strFormat("rename '%s' -> '%s' failed", Tmp.c_str(),
                         Path.c_str());
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

void icb::session::removeStaleTempFiles(const std::string &Path) {
  namespace fs = std::filesystem;
  fs::path Target(Path);
  fs::path Dir = Target.has_parent_path() ? Target.parent_path() : ".";
  std::string Prefix = Target.filename().string() + ".tmp.";
  std::error_code EC;
  for (fs::directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->path().filename().string().rfind(Prefix, 0) == 0)
      fs::remove(It->path(), EC);
}

bool icb::session::readFile(const std::string &Path, std::string &Out,
                            std::string *Error) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Error)
      *Error = strFormat("cannot open '%s'", Path.c_str());
    return false;
  }
  Out.clear();
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok && Error)
    *Error = strFormat("read from '%s' failed", Path.c_str());
  return Ok;
}

bool icb::session::ensureDir(const std::string &Dir, std::string *Error) {
#ifdef _WIN32
  if (_mkdir(Dir.c_str()) == 0 || errno == EEXIST)
    return true;
#else
  if (mkdir(Dir.c_str(), 0777) == 0 || errno == EEXIST)
    return true;
#endif
  if (Error)
    *Error = strFormat("cannot create directory '%s'", Dir.c_str());
  return false;
}
