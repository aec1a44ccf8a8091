//===- perfbench/src/Workloads.cpp - The benchmark's three workloads ------===//

#include "Workloads.h"
#include "benchmarks/Registry.h"
#include "benchmarks/WsqModel.h"
#include "dist/Coordinator.h"
#include "dist/Worker.h"
#include "rt/Explore.h"
#include "search/BoundPolicy.h"
#include "search/Checker.h"
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sys/resource.h>
#include <thread>

using namespace icb;

namespace pb {

namespace {

// icb_check's defaults: `--strategy=icb --max-bound=4 --por`, 2^20
// executions, stop at the first bug. The bug rows run with these.
constexpr unsigned kCliMaxBound = 4;
constexpr uint64_t kCliMaxExecutions = 1u << 20;

// dryad-frontier: the correct Dryad test at bound 2, cut at a fixed
// execution count. A cut parallel run finishes the chains already in
// flight, so it ends with between kDryadCap and kDryadCap + jobs - 1
// executions.
constexpr unsigned kDryadBound = 2;
constexpr uint64_t kDryadCap = 40000;
constexpr unsigned kDryadJobs = 4;

// model-cache: the WSQ model with the state cache on, explored to
// completion at kModelBound. Golden counts from a `--jobs 1` run.
constexpr unsigned kModelItems = 10;
constexpr unsigned kModelBound = 5;
constexpr uint64_t kModelExecutions = 141208;
constexpr uint64_t kModelStates = 367857;

// dist-loopback: the WSQ model explored by two joiners over loopback,
// with icb_check's lease size, heartbeat and revocation defaults. The
// golden counts are the local `--jobs 1` run's (checkDistReference).
constexpr unsigned kDistItems = 4;
constexpr unsigned kDistBound = 4;
constexpr unsigned kDistJoiners = 2;
constexpr unsigned kDistLeaseItems = 32;
constexpr uint64_t kDistExecutions = 17192;
constexpr uint64_t kDistStates = 7796;

/// Added to every golden count (self-test: the checks must then fail).
uint64_t GoldenOffset = 0;

/// Rings as large as `--trace=FILE` allocates.
constexpr size_t kTraceEvents = 1 << 16;

const bench::BugVariant &findBug(const BugRow &Row) {
  const bench::BenchmarkEntry *E = bench::findBenchmark(Row.Benchmark);
  for (const bench::BugVariant &B : E->Bugs)
    if (B.Label == Row.Bug)
      return B;
  std::abort(); // The row table names registry entries only.
}

/// The registry a leg attaches, or none for the metering-overhead leg.
struct LegRegistry {
  std::unique_ptr<obs::MetricsRegistry> Reg;

  explicit LegRegistry(const LegOptions &Opts) {
    if (!Opts.Metering)
      return;
    Reg = std::make_unique<obs::MetricsRegistry>();
    if (Opts.Trace)
      Reg->enableTracing(kTraceEvents);
  }
  obs::MetricsRegistry *get() { return Reg.get(); }
};

/// Appends the durations of the Execute slices still held in \p Reg's
/// trace rings.
void collectChains(const obs::MetricsRegistry &Reg,
                   std::vector<uint64_t> &Out) {
  for (unsigned I = 0; I != Reg.traceBufs(); ++I) {
    const obs::TraceBuf &B = Reg.traceBuf(I);
    for (size_t E = 0; E != B.size(); ++E) {
      const obs::TraceEvent &Ev = B.at(E);
      if (Ev.Kind == obs::TraceEventKind::PhaseSlice &&
          Ev.Extra == static_cast<uint16_t>(obs::Phase::Execute))
        Out.push_back(Ev.Arg0);
    }
  }
}

void finishLeg(LegResult &L, LegRegistry &R, search::SearchResult &&S) {
  L.Stats = std::move(S.Stats);
  L.Bugs = std::move(S.Bugs);
  if (obs::MetricsRegistry *Reg = R.get()) {
    L.Metrics = Reg->snapshot();
    collectChains(*Reg, L.ChainNanos);
  }
}

search::SearchOptions vmOptions(const search::BoundPolicy &Policy,
                                unsigned MaxBound) {
  search::SearchOptions O;
  O.Kind = search::StrategyKind::Icb;
  O.Policy = &Policy;
  O.UseSleepSets = true;
  O.Jobs = 1;
  O.Limits.MaxExecutions = kCliMaxExecutions;
  O.Limits.MaxPreemptionBound = MaxBound;
  O.Limits.StopAtFirstBug = true;
  return O;
}

rt::ExploreOptions rtOptions(const search::BoundPolicy &Policy,
                             unsigned MaxBound, uint64_t MaxExecutions,
                             unsigned Jobs) {
  rt::ExploreOptions O;
  O.Limits.MaxExecutions = MaxExecutions;
  O.Limits.MaxPreemptionBound = MaxBound;
  O.Limits.StopAtFirstBug = true;
  O.Policy = &Policy;
  O.Jobs = Jobs;
  O.Por = true;
  return O;
}

std::unique_ptr<search::BoundPolicy> preemptionPolicy(unsigned Bound) {
  return search::makeBoundPolicy({"preemption", Bound, 0});
}

/// True when the search exhausted every bound up to \p Bound.
bool exploredTo(const search::SearchStats &S, unsigned Bound) {
  return S.Completed ||
         (!S.PerBound.empty() && S.PerBound.back().Bound == Bound);
}

std::string countMismatch(const char *What, uint64_t Got, uint64_t Want) {
  return std::string(What) + " " + std::to_string(Got) + ", expected " +
         std::to_string(Want);
}

//===----------------------------------------------------------------------===//
// Legs
//===----------------------------------------------------------------------===//

void bugRowLeg(size_t Row, LegRegistry &R, LegResult &L) {
  const BugRow &H = bugRows()[Row];
  std::unique_ptr<search::BoundPolicy> Policy =
      preemptionPolicy(kCliMaxBound);
  rt::ExploreOptions O =
      rtOptions(*Policy, kCliMaxBound, kCliMaxExecutions, 1);
  O.Metrics = R.get();
  finishLeg(L, R, rt::IcbExplorer(O).explore(findBug(H).MakeRt()));
  const search::Bug *Found = nullptr;
  for (const search::Bug &Bug : L.Bugs)
    if (!Found || Bug.Preemptions < Found->Preemptions)
      Found = &Bug;
  if (!Found)
    L.Why = std::string(H.Bug) + ": no bug found";
  else if (Found->Preemptions != H.Bound)
    L.Why = std::string(H.Bug) + ": " +
            countMismatch("bound", Found->Preemptions, H.Bound);
  else if (L.Stats.Executions != H.Executions + GoldenOffset)
    L.Why = std::string(H.Bug) + ": " +
            countMismatch("executions", L.Stats.Executions,
                          H.Executions + GoldenOffset);
}

void dryadLeg(LegRegistry &R, LegResult &L) {
  std::unique_ptr<search::BoundPolicy> Policy = preemptionPolicy(kDryadBound);
  rt::ExploreOptions O =
      rtOptions(*Policy, kDryadBound, kDryadCap, kDryadJobs);
  O.Metrics = R.get();
  rt::TestCase Test = bench::findBenchmark("Dryad Channels")->MakeDefaultRt();
  finishLeg(L, R, rt::IcbExplorer(O).explore(Test));
  if (!L.Bugs.empty())
    L.Why = "bug reported on the correct Dryad variant: " +
            L.Bugs.front().Message;
  else if (L.Stats.Executions < kDryadCap + GoldenOffset ||
           L.Stats.Executions > kDryadCap + GoldenOffset + kDryadJobs - 1)
    L.Why = countMismatch("executions", L.Stats.Executions,
                          kDryadCap + GoldenOffset);
}

void modelLeg(LegRegistry &R, LegResult &L) {
  std::unique_ptr<search::BoundPolicy> Policy = preemptionPolicy(kModelBound);
  search::SearchOptions O = vmOptions(*Policy, kModelBound);
  O.UseStateCache = true;
  O.Metrics = R.get();
  vm::Program Prog = workloadProgram(Workload::ModelCache);
  finishLeg(L, R, search::checkProgram(Prog, O));
  if (!L.Bugs.empty())
    L.Why = "bug reported on the correct WSQ model: " +
            L.Bugs.front().Message;
  else if (!exploredTo(L.Stats, kModelBound))
    L.Why = "search stopped before bound " + std::to_string(kModelBound);
  else if (L.Stats.DistinctStates != kModelStates + GoldenOffset)
    L.Why = countMismatch("states", L.Stats.DistinctStates,
                          kModelStates + GoldenOffset);
  else if (L.Stats.Executions != kModelExecutions + GoldenOffset)
    L.Why = countMismatch("executions", L.Stats.Executions,
                          kModelExecutions + GoldenOffset);
}

session::CheckpointMeta distMeta() {
  session::CheckpointMeta M;
  M.Benchmark = "wsq-model";
  M.Bug = "default";
  M.Form = "vm";
  M.Strategy = "icb";
  M.Detector = "vc";
  M.Por = true;
  M.Limits.MaxExecutions = kCliMaxExecutions;
  M.Limits.MaxPreemptionBound = kDistBound;
  M.Limits.StopAtFirstBug = true;
  return M;
}

/// The joiner's lease runner, as `icb_check --join` plugs it in for the
/// model form: fresh policy, engine, caches and registry per lease.
dist::LeaseResult runLease(const vm::Program &Prog,
                           const session::CheckpointMeta &Meta, bool Trace,
                           const dist::LeaseRequest &Req,
                           std::vector<uint64_t> *Chains) {
  obs::MetricsRegistry Reg;
  if (Trace)
    Reg.enableTracing(kTraceEvents);
  std::unique_ptr<search::BoundPolicy> Policy = search::makeBoundPolicy(
      {Meta.Bound, Meta.Limits.MaxPreemptionBound, Meta.VarBound});
  search::EngineSnapshot Synth;
  search::SearchOptions O;
  O.Kind = search::StrategyKind::Icb;
  O.Policy = Policy.get();
  O.UseSleepSets = Meta.Por;
  O.Jobs = 1;
  O.Limits.StopAtFirstBug = Meta.Limits.StopAtFirstBug;
  if (!Req.Roots) {
    Synth.Bound = Req.Bound;
    Synth.CurrentQueue = Req.Items;
    O.Resume = &Synth;
  }
  O.Metrics = &Reg;
  O.Lease = Req.Roots ? search::LeaseMode::Roots : search::LeaseMode::Drain;
  search::SearchResult R = search::checkProgram(Prog, O);

  dist::LeaseResult Res;
  Res.Completed = R.Stats.Completed;
  Res.Stats = std::move(R.Stats);
  Res.Bugs = std::move(R.Bugs);
  Res.Deferred = std::move(R.LeaseDeferred);
  Res.Remaining = std::move(R.LeaseCurrent);
  Res.SeenDigests = std::move(R.LeaseSeen);
  Res.TerminalDigests = std::move(R.LeaseTerminal);
  Res.ItemDigests = std::move(R.LeaseItems);
  Res.Metrics = Reg.snapshot();
  if (Chains)
    collectChains(Reg, *Chains);
  return Res;
}

double millisBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Hosts the coordinator and the joiner threads, and records the leg's
/// set-up time: until both joiners have adopted the run and the first
/// lease has started.
void distLeg(LegRegistry &R, const LegOptions &Opts, LegResult &L) {
  Clock::time_point Start = Clock::now();
  vm::Program Prog = workloadProgram(Workload::DistLoopback);
  session::CheckpointMeta Meta = distMeta();

  std::mutex SpanLock; // Guards L.Dist and the set-up bookkeeping.
  unsigned Adopted = 0;
  bool Leased = false;
  auto MarkSetup = [&] {
    if (Adopted == kDistJoiners && Leased && L.SetupS == 0)
      L.SetupS = secondsSince(Start);
  };

  dist::CoordinatorOptions CO;
  CO.Bind = "127.0.0.1:0";
  CO.Meta = Meta;
  CO.Limits = Meta.Limits;
  std::unique_ptr<search::BoundPolicy> Policy = preemptionPolicy(kDistBound);
  CO.FrontierBound = Policy->frontierBound();
  CO.LeaseItems = kDistLeaseItems;
  CO.Metrics = R.get();
  dist::Coordinator Coord(CO);
  std::string Err;
  if (!Coord.start(&Err)) {
    L.Why = "coordinator: " + Err;
    return;
  }
  std::string Addr = "127.0.0.1:" + std::to_string(Coord.port());

  search::SearchResult Merged;
  std::vector<int> Rcs(kDistJoiners, -1);
  std::thread Serve([&] { Merged = Coord.run(); });
  std::vector<std::thread> Joiners;
  for (unsigned I = 0; I != kDistJoiners; ++I)
    Joiners.emplace_back([&, I] {
      Clock::time_point Born = Clock::now();
      Clock::time_point LastReturn{};
      dist::WorkerOptions WO;
      WO.Connect = Addr;
      bool FirstHello = true;
      WO.OnAdopt = [&](const session::CheckpointMeta &, std::string *) {
        std::lock_guard<std::mutex> G(SpanLock);
        if (!FirstHello) {
          ++L.Dist.Rehellos;
          return true;
        }
        FirstHello = false;
        L.Dist.HandshakeMs.push_back(millisBetween(Born, Clock::now()));
        ++Adopted;
        MarkSetup();
        return true;
      };
      WO.Runner = [&](const dist::LeaseRequest &Req) {
        Clock::time_point Call = Clock::now();
        {
          std::lock_guard<std::mutex> G(SpanLock);
          Leased = true;
          MarkSetup();
        }
        std::vector<uint64_t> Chains;
        dist::LeaseResult Res =
            runLease(Prog, Meta, Opts.Trace, Req,
                     Opts.Trace ? &Chains : nullptr);
        Clock::time_point Back = Clock::now();
        std::lock_guard<std::mutex> G(SpanLock);
        L.Dist.LeaseExecMs.push_back(millisBetween(Call, Back));
        L.Dist.JoinerBusyS += millisBetween(Call, Back) / 1000;
        if (LastReturn != Clock::time_point{})
          L.Dist.LeaseGapMs.push_back(millisBetween(LastReturn, Call));
        LastReturn = Back;
        if (!Req.Roots) {
          ++L.Dist.DrainLeases;
          L.Dist.DrainItems += Req.Items.size();
        }
        L.ChainNanos.insert(L.ChainNanos.end(), Chains.begin(), Chains.end());
        if (Opts.Trace)
          L.Dist.Frames.emplace_back(Req, Res);
        return Res;
      };
      dist::Worker W(WO);
      Rcs[I] = W.run();
      std::lock_guard<std::mutex> G(SpanLock);
      L.Dist.JoinerLifeS += secondsSince(Born);
    });
  Serve.join();
  for (std::thread &T : Joiners)
    T.join();

  for (unsigned I = 0; I != kDistJoiners; ++I)
    if (Rcs[I] != dist::WorkerDone) {
      L.Why = "joiner " + std::to_string(I) + " exited " +
              std::to_string(Rcs[I]);
      return;
    }
  if (R.get())
    L.Metrics = R.get()->snapshot();
  L.Stats = std::move(Merged.Stats);
  L.Bugs = std::move(Merged.Bugs);
  if (!L.Bugs.empty())
    L.Why = "bug reported on the correct WSQ model: " +
            L.Bugs.front().Message;
  else if (!exploredTo(L.Stats, kDistBound))
    L.Why = "distributed search stopped before bound " +
            std::to_string(kDistBound);
  else if (L.Stats.Executions != kDistExecutions + GoldenOffset)
    L.Why = countMismatch("executions", L.Stats.Executions,
                          kDistExecutions + GoldenOffset);
  else if (L.Stats.DistinctStates != kDistStates + GoldenOffset)
    L.Why = countMismatch("states", L.Stats.DistinctStates,
                          kDistStates + GoldenOffset);
}

/// Set-up probe for the local engines. Every worker polls for a stop just
/// before it takes its first work item; the probe holds each poll until
/// all \p Workers have polled, so a sample covers the whole pool's start,
/// and then stops the search.
class AllPolled final : public search::EngineObserver {
public:
  explicit AllPolled(unsigned Workers) : Workers(Workers) {}
  bool stopRequested() override {
    std::unique_lock<std::mutex> G(Lock);
    if (++Polls == Workers) {
      At = Clock::now();
      Ready.notify_all();
    }
    Ready.wait_for(G, std::chrono::seconds(5),
                   [&] { return Polls >= Workers; });
    return true;
  }
  /// Valid once the search has returned.
  bool allPolled() const { return Polls >= Workers; }
  Clock::time_point At;

private:
  const unsigned Workers;
  unsigned Polls = 0;
  std::mutex Lock;
  std::condition_variable Ready;
};

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + T.tv_usec / 1e6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

void perturbGoldens(uint64_t Offset) { GoldenOffset = Offset; }

bool parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::DryadFrontier, Workload::ModelCache,
                     Workload::DistLoopback})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::DryadFrontier:
    return "dryad-frontier";
  case Workload::ModelCache:
    return "model-cache";
  case Workload::DistLoopback:
    return "dist-loopback";
  }
  return "?";
}

const std::vector<BugRow> &bugRows() {
  // The Table 2 rows with a runtime form that reach their first bug in
  // well under a second. Golden executions to the first bug under
  // icb_check's defaults.
  static const std::vector<BugRow> Rows = {
      {"Bluetooth", "stop-vs-work check-then-act", 1, 63},
      {"Work Stealing Queue", "pop-check-then-act", 1, 13},
      {"Work Stealing Queue", "pop-retry-no-lock", 2, 209},
      {"Work Stealing Queue", "unsynchronized-steal", 2, 198},
      {"APE", "missing-sentinel", 0, 1},
      {"APE", "eager-teardown", 0, 1},
      {"APE", "lost-completion-update", 1, 115},
      {"APE", "broken-stats-latch", 2, 1594},
      {"Dryad Channels", "stats-race", 0, 25},
  };
  return Rows;
}

rt::TestCase bugRowTest(size_t Row) {
  return findBug(bugRows()[Row]).MakeRt();
}

vm::Program workloadProgram(Workload W) {
  bench::WsqModelConfig C;
  C.Items = W == Workload::ModelCache ? kModelItems : kDistItems;
  return bench::wsqModel(C);
}

LegResult runLeg(Workload W, const LegOptions &Opts) {
  LegResult L;
  LegRegistry R(Opts);
  double Cpu0 = processCpuSeconds();
  Clock::time_point Start = Clock::now();
  switch (W) {
  case Workload::DryadFrontier:
    dryadLeg(R, L);
    break;
  case Workload::ModelCache:
    modelLeg(R, L);
    break;
  case Workload::DistLoopback:
    distLeg(R, Opts, L);
    break;
  }
  L.WallS = secondsSince(Start);
  L.CpuS = processCpuSeconds() - Cpu0;
  L.Correct = L.Why.empty();
  return L;
}

LegResult findRowBug(size_t Row) {
  LegResult L;
  LegRegistry R(LegOptions{});
  bugRowLeg(Row, R, L);
  L.Correct = L.Why.empty();
  return L;
}

bool setupSample(Workload W, double &Seconds, std::string &Why) {
  Clock::time_point Start = Clock::now();
  AllPolled Poll(W == Workload::DryadFrontier ? kDryadJobs : 1);
  obs::MetricsRegistry Reg;
  search::SearchResult S;
  if (W == Workload::ModelCache) {
    std::unique_ptr<search::BoundPolicy> Policy =
        preemptionPolicy(kModelBound);
    search::SearchOptions O = vmOptions(*Policy, kModelBound);
    O.UseStateCache = true;
    O.Metrics = &Reg;
    O.Observer = &Poll;
    S = search::checkProgram(workloadProgram(W), O);
  } else {
    std::unique_ptr<search::BoundPolicy> Policy =
        preemptionPolicy(kDryadBound);
    rt::ExploreOptions O =
        rtOptions(*Policy, kDryadBound, kDryadCap, kDryadJobs);
    O.Metrics = &Reg;
    O.Observer = &Poll;
    S = rt::IcbExplorer(O).explore(
        bench::findBenchmark("Dryad Channels")->MakeDefaultRt());
  }
  if (!Poll.allPolled() || S.Stats.Executions != 0) {
    Why = "set-up probe: the engine ran before every worker's first stop "
          "poll";
    return false;
  }
  Seconds = std::chrono::duration<double>(Poll.At - Start).count();
  return true;
}

bool checkDistReference(std::string &Why) {
  std::unique_ptr<search::BoundPolicy> Policy = preemptionPolicy(kDistBound);
  search::SearchOptions O = vmOptions(*Policy, kDistBound);
  obs::MetricsRegistry Reg;
  O.Metrics = &Reg;
  vm::Program Prog = workloadProgram(Workload::DistLoopback);
  search::SearchResult S = search::checkProgram(Prog, O);
  if (!exploredTo(S.Stats, kDistBound) || !S.Bugs.empty())
    Why = "local reference run did not complete cleanly";
  else if (S.Stats.Executions != kDistExecutions + GoldenOffset)
    Why = countMismatch("local reference executions", S.Stats.Executions,
                        kDistExecutions + GoldenOffset);
  else if (S.Stats.DistinctStates != kDistStates + GoldenOffset)
    Why = countMismatch("local reference states", S.Stats.DistinctStates,
                        kDistStates + GoldenOffset);
  return Why.empty();
}

} // namespace pb
