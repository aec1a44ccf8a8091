//===- perfbench/src/Report.h - One-line JSON results -----------*- C++ -*-===//
///
/// \file
/// pb_bench's output format: one flat JSON object per invocation, read
/// by perfbench/run.py. Numbers print here with all their digits, since
/// the session JSON writer takes integers only; strings go through it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include "session/Json.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

class Report {
public:
  void num(const std::string &Key, double Value) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(Value) ? Value : 0);
    add(Key, Buf);
  }
  void flag(const std::string &Key, bool Value) {
    add(Key, Value ? "true" : "false");
  }
  /// Escaped by the session writer, which keeps every string on one line
  /// (and ends its output with a newline, dropped here).
  void str(const std::string &Key, const std::string &Value) {
    std::string Quoted =
        icb::session::jsonWrite(icb::session::JsonValue::str(Value));
    Quoted.pop_back();
    add(Key, Quoted);
  }
  /// Prints the object as the last line of stdout.
  void print() const { std::printf("{%s}\n", Body.c_str()); }

private:
  void add(const std::string &Key, const std::string &Value) {
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + Key + "\": " + Value;
  }
  std::string Body;
};

/// Median of \p V (0 when empty).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of \p V, \p P in [0, 100] (0 when empty).
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

/// \p Num / \p Den, or 0 when nothing was measured.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

} // namespace pb

#endif // PERFBENCH_REPORT_H
