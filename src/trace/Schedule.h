//===- trace/Schedule.h - Recorded thread schedules -------------*- C++ -*-===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Schedule` records the scheduler's choices along one execution: the
/// thread picked at each scheduling point, annotated with whether the
/// switch was preempting (Appendix A's NP definition). Schedules are the
/// replay currency of the stateless checker — a work item of the stateless
/// ICB algorithm is a schedule prefix — and the payload of every bug
/// report.
///
//===----------------------------------------------------------------------===//

#ifndef ICB_TRACE_SCHEDULE_H
#define ICB_TRACE_SCHEDULE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace icb::trace {

/// One scheduling decision.
struct ScheduleEntry {
  uint32_t Tid = 0;
  /// True if this choice preempted an enabled running thread.
  bool Preemption = false;
  /// True if this choice switched threads at all (context switch, whether
  /// preempting or nonpreempting).
  bool ContextSwitch = false;
};

/// A sequence of scheduling decisions from the initial state.
class Schedule {
public:
  Schedule() = default;

  void append(uint32_t Tid, bool Preemption, bool ContextSwitch) {
    Entries.push_back({Tid, Preemption, ContextSwitch});
  }

  size_t length() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  const ScheduleEntry &entry(size_t I) const { return Entries[I]; }
  const std::vector<ScheduleEntry> &entries() const { return Entries; }

  /// Number of preempting context switches (the paper's NP).
  unsigned preemptions() const;

  /// Number of context switches of either kind.
  unsigned contextSwitches() const;

  /// Truncates to the first \p Len entries.
  void truncate(size_t Len);

  /// Compact text form, e.g. "0 0 1* 1 0^ ..." where '*' marks a
  /// preemption and '^' a nonpreempting switch.
  std::string str() const;

  /// Parses the output of str(); returns false (and leaves \p Out
  /// empty) on malformed input. The accepted language is scanScheduleText's.
  static bool parse(const std::string &Text, Schedule &Out);

  friend bool operator==(const Schedule &L, const Schedule &R) {
    return L.Entries.size() == R.Entries.size() &&
           [&] {
             for (size_t I = 0; I != L.Entries.size(); ++I) {
               const ScheduleEntry &A = L.Entries[I];
               const ScheduleEntry &B = R.Entries[I];
               if (A.Tid != B.Tid || A.Preemption != B.Preemption ||
                   A.ContextSwitch != B.ContextSwitch)
                 return false;
             }
             return true;
           }();
  }

private:
  std::vector<ScheduleEntry> Entries;
};

/// Whitespace between schedule tokens: the classic locale's isspace set
/// (' ', '\t', '\n', '\v', '\f', '\r').
inline bool isScheduleSpace(char C) {
  return C == ' ' || (C >= '\t' && C <= '\r');
}

/// Scans the text form of a schedule, calling
/// \p OnEntry(Tid, Preemption, ContextSwitch) for each token in order.
/// Tokens are whitespace-separated runs of decimal digits with at most
/// one trailing '*' (preemption) or '^' (nonpreempting switch) marker,
/// and values at most UINT32_MAX. Anything else — signs, hex, a bare or
/// doubled marker, an overflowing value — fails the whole scan, never a
/// truncated token. Returns false on malformed text or when \p OnEntry
/// returns false.
///
/// This sits under every work-item, lease, result, checkpoint and
/// .icbrepro decode, so it is a pointer scan: no stream, no locale, no
/// per-token string.
template <typename Fn>
bool scanScheduleText(std::string_view Text, Fn &&OnEntry) {
  const char *P = Text.data();
  const char *End = P + Text.size();
  while (true) {
    while (P != End && isScheduleSpace(*P))
      ++P;
    if (P == End)
      return true;
    const char *Tok = P;
    while (P != End && !isScheduleSpace(*P))
      ++P;
    const char *TokEnd = P;
    bool Preemption = false;
    bool Switch = false;
    if (TokEnd[-1] == '*') {
      Preemption = Switch = true;
      --TokEnd;
    } else if (TokEnd[-1] == '^') {
      Switch = true;
      --TokEnd;
    }
    if (Tok == TokEnd)
      return false;
    uint64_t Tid = 0;
    for (const char *Q = Tok; Q != TokEnd; ++Q) {
      if (*Q < '0' || *Q > '9')
        return false;
      Tid = Tid * 10 + static_cast<uint64_t>(*Q - '0');
      if (Tid > UINT32_MAX)
        return false;
    }
    if (!OnEntry(static_cast<uint32_t>(Tid), Preemption, Switch))
      return false;
  }
}

} // namespace icb::trace

#endif // ICB_TRACE_SCHEDULE_H
