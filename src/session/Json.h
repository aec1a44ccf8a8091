//===- session/Json.h - Minimal JSON value, writer, parser ------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session subsystem's JSON layer: one value type, a deterministic
/// pretty-printer, a strict recursive-descent parser, and the atomic file
/// helpers every session artifact (manifest, checkpoint, repro) goes
/// through. Deliberately minimal — no external dependency, no DOM tricks:
///
///   * objects preserve insertion order, so a written file is stable and
///     diffable across runs;
///   * numbers are unsigned 64-bit integers only. Every numeric field in
///     our formats is a count; refusing doubles means no value is ever
///     silently rounded through a double (state digests would lose bits
///     past 2^53). Digest arrays are additionally stored as hex strings so
///     generic tools (jq, python) read them losslessly too;
///   * the parser rejects anything it does not understand — loading a
///     corrupt checkpoint or repro must fail cleanly, never misparse.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_SESSION_JSON_H
#define ICB_SESSION_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace icb::session {

/// One JSON value. A small tagged struct rather than a variant: the
/// session formats are tiny and the flat layout keeps the code obvious.
struct JsonValue {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, JsonValue>;

  Kind K = Kind::Null;
  bool B = false;
  uint64_t U = 0;
  std::string S;
  std::vector<JsonValue> Arr;
  std::vector<Member> Obj; ///< Insertion order preserved.

  static JsonValue null() { return {}; }
  static JsonValue boolean(bool Value) {
    JsonValue V;
    V.K = Kind::Bool;
    V.B = Value;
    return V;
  }
  static JsonValue number(uint64_t Value) {
    JsonValue V;
    V.K = Kind::Number;
    V.U = Value;
    return V;
  }
  static JsonValue str(std::string Value) {
    JsonValue V;
    V.K = Kind::String;
    V.S = std::move(Value);
    return V;
  }
  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *find(const std::string &Key) const;

  /// Appends/overwrites an object member (lookup is linear — fine at our
  /// member counts).
  JsonValue &set(const std::string &Key, JsonValue Value);

  // Typed getters: false (and untouched Out) when the member is missing
  // or has the wrong kind. Loaders use these to validate field-by-field.
  bool getU64(const std::string &Key, uint64_t &Out) const;
  bool getU32(const std::string &Key, uint32_t &Out) const;
  bool getBool(const std::string &Key, bool &Out) const;
  bool getString(const std::string &Key, std::string &Out) const;
};

/// Renders \p V as pretty-printed JSON (2-space indent, trailing newline
/// at top level is the caller's business).
std::string jsonWrite(const JsonValue &V);

/// Parses strict JSON (unsigned-integer numbers only); on failure returns
/// false and describes the problem in \p Error (if non-null).
bool jsonParse(const std::string &Text, JsonValue &Out, std::string *Error);

/// Encodes digests as a space-separated hex string ("a1b2 0 ff…"), the
/// lossless-in-every-tool representation of 64-bit values.
std::string digestsToHex(const std::vector<uint64_t> &Digests);

/// Like digestsToHex, but once \p CompactThreshold entries are reached
/// switches to the compact form "* base d1 d2 …": the digests sorted
/// ascending and delta-encoded (value_i = value_{i-1} + d_i), marked by
/// the leading "*". Digest fields are sets — their order is unspecified —
/// so sorting is lossless, and deltas between sorted uniform 64-bit
/// hashes are short: large visited sections shrink roughly 3x (checkpoint
/// format v3).
std::string digestsToHexCompact(const std::vector<uint64_t> &Digests,
                                size_t CompactThreshold);

/// Decodes either hex form (plain or "*"-compact).
bool digestsFromHex(const std::string &Text, std::vector<uint64_t> &Out);

/// Durably replaces \p Path: writes a temp file unique to this call
/// (Path.tmp.PID.N), flushes it to disk, then renames it over Path — a
/// reader (or a resume after SIGKILL) sees either the old complete file
/// or the new complete file, never a torn one, and concurrent writers of
/// one path never share a temp file. A writer killed mid-write leaves
/// its temp file behind.
bool atomicWriteFile(const std::string &Path, const std::string &Content,
                     std::string *Error);

/// Removes the temp files killed atomicWriteFile calls left for \p Path.
/// Only for a caller that owns \p Path exclusively (a locked checkpoint
/// directory): a live writer's temp file would go too.
void removeStaleTempFiles(const std::string &Path);

/// Reads a whole file; false (with \p Error) when unreadable.
bool readFile(const std::string &Path, std::string &Out, std::string *Error);

/// Creates \p Dir if it does not exist yet (one level, not recursive).
bool ensureDir(const std::string &Dir, std::string *Error);

} // namespace icb::session

#endif // ICB_SESSION_JSON_H
