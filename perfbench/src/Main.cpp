//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
///
/// \file
/// The process perfbench/run.py starts for every measurement, so that
/// peak RSS and CPU time belong to one repetition of one workload:
///
///   pb_bench rep     --workload W             one timed leg
///   pb_bench setup   --workload W             median set-up time
///   pb_bench check   --workload W             reference answer check
///   pb_bench traced  --workload W --seed S --seconds T
///   pb_bench info                             compiler, build, ref loop
///
/// Each prints one JSON line (Report.h).
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Report.h"
#include <cstdlib>
#include <cstring>
#include <map>
#include <sys/resource.h>

using namespace pb;

namespace {

/// Peak resident set of this process so far, in MiB.
double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024;
}

/// A fixed integer loop, timed: a host that runs it slower than usual is
/// drifting, whatever the checker does.
double referenceLoopSeconds() {
  Clock::time_point Start = Clock::now();
  volatile uint64_t X = 0x9e3779b97f4a7c15ull;
  uint64_t V = X;
  for (unsigned I = 0; I != 100000000; ++I) {
    V ^= V << 13;
    V ^= V >> 7;
    V ^= V << 17;
  }
  X = V;
  return secondsSince(Start);
}

/// Set-up samples one `pb_bench setup` process takes. Within a process
/// their median is steady; the spread between processes is what run.py
/// averages over.
constexpr unsigned kSetupSamples = 11;

int usage(const char *Why) {
  std::fprintf(stderr, "pb_bench: %s\n", Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage("missing mode (rep, setup, check, traced, info)");
  std::string Mode = Argv[1];
  std::map<std::string, std::string> Args;
  for (int I = 2; I + 1 < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      return usage("arguments are --name value pairs");
    Args[Argv[I] + 2] = Argv[I + 1];
  }
  auto Num = [&](const char *Key, double Default) {
    auto It = Args.find(Key);
    return It == Args.end() ? Default
                            : std::strtod(It->second.c_str(), nullptr);
  };

  Report Out;
  if (Mode == "info") {
    Out.str("compiler", PB_COMPILER);
    Out.str("build_type", PB_BUILD_TYPE);
    Out.num("ref_loop_s", referenceLoopSeconds());
    Out.print();
    return 0;
  }

  perturbGoldens(static_cast<uint64_t>(Num("perturb", 0)));
  Workload W;
  if (!parseWorkload(Args["workload"], W))
    return usage("unknown --workload");

  if (Mode == "rep") {
    LegResult L = runLeg(W, LegOptions{});
    Out.num("wall_s", L.WallS);
    Out.num("cpu_s", L.CpuS);
    Out.num("peak_rss_mb", peakRssMb());
    Out.num("executions", static_cast<double>(L.Stats.Executions));
    if (W == Workload::DistLoopback)
      Out.num("setup_s", L.SetupS);
    Out.flag("correct", L.Correct);
    Out.str("why", L.Why);
  } else if (Mode == "setup" && W != Workload::DistLoopback) {
    std::vector<double> Secs;
    uint64_t Failed = 0;
    std::string Why;
    for (unsigned S = 0; S != kSetupSamples; ++S) {
      double T = 0;
      std::string Err;
      if (setupSample(W, T, Err)) {
        Secs.push_back(T);
      } else {
        ++Failed;
        Why = Err;
      }
    }
    Out.num("setup_s", median(Secs));
    Out.num("attempted", kSetupSamples);
    Out.num("failed", static_cast<double>(Failed));
    Out.str("why", Why);
  } else if (Mode == "check") {
    std::string Why;
    bool Ok = W != Workload::DistLoopback || checkDistReference(Why);
    Out.flag("correct", Ok);
    Out.str("why", Why);
  } else if (Mode == "traced") {
    return runTraced(W, static_cast<uint64_t>(Num("seed", 1)),
                     Num("seconds", 10));
  } else {
    return usage("unknown mode");
  }
  Out.print();
  return 0;
}
