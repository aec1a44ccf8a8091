//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//
///
/// \file
/// The workloads the benchmark measures, each driven through the checker's
/// public entry points with the options `icb_check` uses (icb strategy,
/// POR on, a metrics registry attached), plus the answer check that keeps
/// a broken speed-up from scoring:
///
///   dryad-frontier  Dryad Channels (correct) at bound 2, capped, `--jobs 4`;
///   model-cache     the WSQ model with the state cache on, `--jobs 1`;
///   dist-loopback   an in-process coordinator plus two joiner threads.
///
/// A leg is one run of a workload. Legs are what the end-to-end
/// repetitions time and what the traced run instruments.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "dist/Protocol.h"
#include "obs/Metrics.h"
#include "rt/Scheduler.h"
#include "search/SearchTypes.h"
#include "vm/Program.h"
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Process CPU time (user + system, all threads) in seconds.
double processCpuSeconds();

enum class Workload { DryadFrontier, ModelCache, DistLoopback };

/// Parses a workload name; false when unknown.
bool parseWorkload(const std::string &Name, Workload &Out);
const char *workloadName(Workload W);

/// One Table 2 row whose runtime-form bug the replay probe reproduces,
/// with its golden answer: the bound the paper reports and the
/// executions `icb_check --bug=<label>` needs to reach it.
struct BugRow {
  const char *Benchmark;
  const char *Bug;
  unsigned Bound;
  uint64_t Executions;
};
const std::vector<BugRow> &bugRows();

/// The runtime-form test of bug row \p Row.
icb::rt::TestCase bugRowTest(size_t Row);

struct LegOptions {
  /// Attach a metrics registry, as the CLI always does. Off only for the
  /// metering-overhead leg.
  bool Metering = true;
  /// Attach the registry's trace rings (the CLI's `--trace=FILE`) and
  /// keep the benchmark's own spans.
  bool Trace = false;
};

/// Per-joiner and per-lease spans of a dist-loopback leg, taken around
/// the calls into dist::Worker and the LeaseRunner.
struct DistSpans {
  std::vector<double> LeaseExecMs;  ///< Runner call to return.
  std::vector<double> LeaseGapMs;   ///< Runner return to next call.
  std::vector<double> HandshakeMs;  ///< Worker start to first adoption.
  uint64_t Rehellos = 0;            ///< Hellos after a joiner's first.
  double JoinerBusyS = 0;           ///< Sum of lease execution time.
  double JoinerLifeS = 0;           ///< Sum of Worker::run durations.
  uint64_t DrainLeases = 0;
  uint64_t DrainItems = 0;
  /// Trace mode: every lease request and its result, for frame coding.
  std::vector<std::pair<icb::dist::LeaseRequest, icb::dist::LeaseResult>>
      Frames;
};

struct LegResult {
  double WallS = 0; ///< Start to checked verdict.
  double CpuS = 0;  ///< Process CPU consumed over the same interval.
  icb::search::SearchStats Stats;
  std::vector<icb::search::Bug> Bugs;
  bool Correct = false;
  std::string Why; ///< Why the answer check failed.
  /// Merged registry snapshot (empty without metering).
  icb::obs::MetricsSnapshot Metrics;
  /// Trace mode: durations of every Execute slice left in the rings.
  std::vector<uint64_t> ChainNanos;
  DistSpans Dist;
  /// dist-loopback: bind, both hellos, up to the first lease.
  double SetupS = 0;
};

/// Adds \p Offset to every golden answer, so that a correct program
/// fails its checks (the benchmark's self-test).
void perturbGoldens(uint64_t Offset);

/// Runs one leg and checks its answer.
LegResult runLeg(Workload W, const LegOptions &Opts);

/// Finds bug row \p Row's bug with `icb_check --bug=<label>` defaults
/// (`--jobs 1`) and checks its bound and executions.
LegResult findRowBug(size_t Row);

/// One set-up sample of a local-engine workload, in seconds: test or
/// program construction and engine (and worker-pool) start, up to the
/// first execution. False with \p Why on failure. dist-loopback has no
/// separate probe: every leg records its own set-up (LegResult::SetupS).
bool setupSample(Workload W, double &Seconds, std::string &Why);

/// Runs the dist-loopback program locally at `--jobs 1` and compares it
/// with the golden merged counts; false with \p Why on a mismatch.
bool checkDistReference(std::string &Why);

/// The WSQ model that model-cache or dist-loopback explores.
/// dryad-frontier loads no model; callers must not ask for one.
icb::vm::Program workloadProgram(Workload W);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
