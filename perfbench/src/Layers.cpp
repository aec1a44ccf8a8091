//===- perfbench/src/Layers.cpp - The traced run: per-layer metrics -------===//
///
/// \file
/// The traced run of one workload. It repeats three legs of the workload
/// (untraced, traced, and without a metrics registry) for the run's time
/// budget and reads the per-layer metrics from the traced leg: counters
/// and phase times from the program's obs::MetricsRegistry and its trace
/// rings, lease spans from the benchmark's own wrappers. Small probes
/// then time single layers through their public functions on seeded
/// inputs. The end-to-end numbers never come from here.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Report.h"
#include "dist/Wire.h"
#include "rt/Explore.h"
#include "rt/Sync.h"
#include "rt/Thread.h"
#include "search/StateCache.h"
#include "session/Json.h"
#include "support/Prng.h"
#include "trace/Fingerprint.h"
#include "vm/Interp.h"
#include <cstdio>
#include <functional>
#include <initializer_list>

using namespace icb;

namespace pb {

namespace {

/// Keeps probe results observable so the timed work is not folded away.
volatile uint64_t Sink = 0;

constexpr unsigned kRounds = 7;

/// Median over kRounds of the time \p Body takes, divided by \p Ops, in
/// nanoseconds.
double nsPerOp(uint64_t Ops, const std::function<void()> &Body) {
  std::vector<double> Samples;
  for (unsigned R = 0; R != kRounds; ++R) {
    Clock::time_point T0 = Clock::now();
    Body();
    Samples.push_back(secondsSince(T0) * 1e9 / static_cast<double>(Ops));
  }
  return median(Samples);
}

uint64_t counter(const obs::MetricsSnapshot &S, obs::Counter C) {
  size_t I = static_cast<size_t>(C);
  return I < S.Counters.size() ? S.Counters[I] : 0;
}

double phaseNs(const obs::MetricsSnapshot &S, obs::Phase P) {
  size_t I = static_cast<size_t>(P);
  return I < S.Phases.size() ? static_cast<double>(S.Phases[I].sum()) : 0;
}

//===----------------------------------------------------------------------===//
// Probes
//===----------------------------------------------------------------------===//

/// Prints 0 for each of \p Names: a layer the workload does not load.
void zeros(Report &Out, std::initializer_list<const char *> Names) {
  for (const char *Name : Names)
    Out.num(Name, 0);
}

/// vm: Interp::step, Interp::enabledThreads and State::computeHash along
/// seeded random schedules of \p Prog; search: StateCache inserts of the
/// digests those schedules visit (repeats are the hits).
void probeVm(const vm::Program &Prog, uint64_t Seed, Report &Out) {
  constexpr unsigned kWalks = 400;
  constexpr size_t kMaxStates = 60000;
  vm::Interp VM(Prog);
  Xoshiro256 Rng(Seed);
  std::vector<vm::State> States;
  std::vector<vm::ThreadId> Choices;
  std::vector<size_t> WalkStart;
  for (unsigned W = 0; W != kWalks && States.size() < kMaxStates; ++W) {
    WalkStart.push_back(States.size());
    vm::State S = VM.initialState();
    while (true) {
      std::vector<vm::ThreadId> En = VM.enabledThreads(S);
      if (En.empty())
        break;
      vm::ThreadId T = En[Rng.pickIndex(En.size())];
      States.push_back(S);
      Choices.push_back(T);
      vm::StepStatus St = VM.step(S, T).Status;
      if (St == vm::StepStatus::AssertFailed ||
          St == vm::StepStatus::ModelError)
        break;
    }
  }
  WalkStart.push_back(States.size());
  std::vector<uint64_t> Digests;
  for (const vm::State &S : States)
    Digests.push_back(S.computeHash());

  Out.num("vm.step_ns", nsPerOp(States.size(), [&] {
    for (size_t W = 0; W + 1 < WalkStart.size(); ++W) {
      vm::State S = States[WalkStart[W]];
      for (size_t I = WalkStart[W]; I != WalkStart[W + 1]; ++I)
        VM.step(S, Choices[I]);
      Sink = Sink + S.hash();
    }
  }));
  Out.num("vm.enabled_ns", nsPerOp(States.size(), [&] {
    for (const vm::State &S : States)
      Sink = Sink + VM.enabledThreads(S).size();
  }));
  Out.num("vm.hash_ns", nsPerOp(States.size(), [&] {
    for (const vm::State &S : States)
      Sink = Sink ^ S.computeHash();
  }));
  uint64_t Hits = 0;
  Out.num("search.cache_probe_ns", nsPerOp(Digests.size(), [&] {
    Hits = 0;
    search::StateCache C;
    for (uint64_t D : Digests)
      Hits += !C.insert(D);
  }));
  Out.num("search.cache_probe_hit_ratio",
          ratio(static_cast<double>(Hits),
                static_cast<double>(Digests.size())));
  Out.num("search.cache_probe_inserts", static_cast<double>(Digests.size()));
}

/// trace: FingerprintBuilder::addStep over a seeded step stream of a
/// five-thread execution (as many threads as Dryad's test).
void probeFingerprint(uint64_t Seed, Report &Out) {
  constexpr unsigned kThreads = 5, kSteps = 256, kExecs = 64;
  struct Step {
    unsigned Tid;
    uint64_t Var;
    bool Sync;
    uint16_t Op;
  };
  Xoshiro256 Rng(Seed);
  std::vector<Step> Stream;
  for (unsigned I = 0; I != kSteps; ++I)
    Stream.push_back({static_cast<unsigned>(Rng.nextBounded(kThreads)),
                      100 + Rng.nextBounded(24), Rng.nextBounded(3) == 0,
                      static_cast<uint16_t>(Rng.nextBounded(6))});
  Out.num("trace.fingerprint_ns", nsPerOp(uint64_t(kSteps) * kExecs, [&] {
    for (unsigned E = 0; E != kExecs; ++E) {
      trace::FingerprintBuilder F(kThreads);
      for (const Step &S : Stream)
        F.addStep(S.Tid, S.Var, S.Sync, S.Op);
      Sink = Sink ^ F.digest();
    }
  }));
}

/// rt: a two-thread yield ping-pong under Scheduler::run; every
/// scheduling point switches threads.
void probeSwitch(Report &Out) {
  constexpr unsigned kYields = 2000;
  rt::TestCase Test{"yield-ping-pong", [] {
                      rt::Thread Peer([] {
                        for (unsigned I = 0; I != kYields; ++I)
                          rt::yield();
                      });
                      for (unsigned I = 0; I != kYields; ++I)
                        rt::yield();
                      Peer.join();
                    }};
  struct Alternate final : rt::SchedulePolicy {
    rt::ThreadId pick(const rt::SchedPoint &P) override {
      for (rt::ThreadId T : P.Enabled)
        if (T != P.Last)
          return T;
      return P.Enabled.front();
    }
  };
  rt::Scheduler Sched(rt::Scheduler::Options{});
  uint64_t Switches = 0;
  {
    Alternate Policy;
    Switches = std::max<uint64_t>(1, Sched.run(Test, Policy).ContextSwitches);
  }
  Out.num("rt.switch_ns", nsPerOp(Switches, [&] {
    Alternate Policy;
    Sink = Sink + Sched.run(Test, Policy).Steps;
  }));
}

/// rt: rt::replaySchedule over the bug schedules the bug rows found.
void probeReplay(const std::vector<std::pair<rt::TestCase, trace::Schedule>>
                     &Found,
                 Report &Out) {
  double Us = nsPerOp(std::max<size_t>(1, Found.size()), [&] {
                for (const auto &[Test, Sched] : Found)
                  Sink = Sink + rt::replaySchedule(Test, Sched,
                                                   rt::Scheduler::Options{})
                                    .Steps;
              }) /
              1e3;
  Out.num("rt.replay_schedule_us", Found.empty() ? 0 : Us);
  Out.num("rt.replayed_schedules", static_cast<double>(Found.size()));
}

/// session: lease and result frames re-encoded with session::jsonWrite
/// and decoded with dist::FrameReader::next.
void probeFrames(
    const std::vector<std::pair<dist::LeaseRequest, dist::LeaseResult>>
        &Leases,
    Report &Out) {
  std::vector<session::JsonValue> Frames;
  uint64_t Id = 1;
  for (const auto &[Req, Res] : Leases) {
    Frames.push_back(dist::leaseFrame(Id, Req));
    Frames.push_back(dist::resultFrame(Id, Res));
    ++Id;
  }
  std::vector<std::string> Wire;
  double Bytes = 0;
  for (const session::JsonValue &F : Frames) {
    Wire.push_back(dist::encodeFrame(F));
    Bytes += static_cast<double>(Wire.back().size());
  }
  uint64_t N = std::max<size_t>(1, Frames.size());
  Out.num("session.frame_encode_us", nsPerOp(N, [&] {
            for (const session::JsonValue &F : Frames)
              Sink = Sink + session::jsonWrite(F).size();
          }) / 1e3);
  Out.num("session.frame_decode_us", nsPerOp(N, [&] {
            for (const std::string &W : Wire) {
              dist::FrameReader R;
              R.feed(W.data(), W.size());
              session::JsonValue V;
              Sink = Sink + static_cast<uint64_t>(R.next(V, nullptr));
            }
          }) / 1e3);
  Out.num("session.frame_bytes", ratio(Bytes, static_cast<double>(N)));
  Out.num("session.frames", static_cast<double>(Frames.size()));
}

//===----------------------------------------------------------------------===//
// Legs
//===----------------------------------------------------------------------===//

/// Per-layer metrics read from the traced leg's registry and spans.
void layerMetrics(Workload W, const LegResult &L, double UntracedWall,
                  Report &Out) {
  const obs::MetricsSnapshot &All = L.Metrics;
  // The rt, trace and race counters of the runtime-form workload only.
  bool RtForm = W == Workload::DryadFrontier;
  const obs::MetricsSnapshot None;
  const obs::MetricsSnapshot &Rt = RtForm ? All : None;
  std::vector<double> Chains;
  for (uint64_t Ns : L.ChainNanos)
    Chains.push_back(static_cast<double>(Ns) / 1e3);
  uint64_t Execs = L.Stats.Executions, Steps = L.Stats.TotalSteps;
  uint64_t RtSteps = RtForm ? Steps : 0;

  // search
  double Seen = static_cast<double>(counter(All, obs::Counter::SeenHit) +
                                    counter(All, obs::Counter::SeenMiss));
  Out.num("search.seen_hit_ratio",
          ratio(static_cast<double>(counter(All, obs::Counter::SeenHit)),
                Seen));
  Out.num("search.seen_probes", Seen);
  uint64_t Deferred = counter(All, obs::Counter::DeferredItems);
  Out.num("search.items_published",
          static_cast<double>(counter(All, obs::Counter::BranchedItems) +
                              Deferred));
  Out.num("search.deferred_per_exec",
          ratio(static_cast<double>(Deferred), static_cast<double>(Execs)));
  Out.num("search.executions", static_cast<double>(Execs));
  Out.num("search.chain_p50_us", percentile(Chains, 50));
  Out.num("search.chain_p99_us", percentile(Chains, 99));
  Out.num("search.chains_sampled", static_cast<double>(Chains.size()));
  double Busy = 0, Idle = 0;
  for (const obs::WorkerMetrics &Wk : All.Workers) {
    Busy += static_cast<double>(Wk.BusyNanos);
    Idle += static_cast<double>(Wk.IdleNanos);
  }
  Out.num("search.worker_busy_ratio", ratio(Busy, Busy + Idle));
  Out.num("search.worker_time_s", (Busy + Idle) / 1e9);
  double Steals =
      static_cast<double>(counter(All, obs::Counter::StealAttempts));
  Out.num("search.steal_hit_ratio",
          ratio(static_cast<double>(counter(All, obs::Counter::StealHits)),
                Steals));
  Out.num("search.steal_attempts", Steals);
  Out.num("search.execs_per_s",
          ratio(static_cast<double>(Execs), UntracedWall));
  Out.num("search.steps_per_s",
          ratio(static_cast<double>(Steps), UntracedWall));

  // rt, trace, race: rt-form legs only.
  double Replay = static_cast<double>(counter(Rt, obs::Counter::ReplaySteps));
  double Execute = phaseNs(Rt, obs::Phase::Execute);
  Out.num("rt.replay_step_share",
          ratio(Replay, static_cast<double>(RtSteps)));
  Out.num("rt.total_steps", static_cast<double>(RtSteps));
  Out.num("rt.replay_ns_per_step",
          ratio(phaseNs(Rt, obs::Phase::Replay), Replay));
  Out.num("rt.execute_ns_per_step",
          ratio(Execute, static_cast<double>(RtSteps)));
  Out.num("rt.execute_s", Execute / 1e9);
  Out.num("trace.hash_share", ratio(phaseNs(Rt, obs::Phase::Hash), Execute));
  Out.num("race.detect_share",
          ratio(phaseNs(Rt, obs::Phase::RaceDetect), Execute));

  // dist (empty spans outside dist-loopback)
  const DistSpans &D = L.Dist;
  Out.num("dist.lease_exec_ms_p50", percentile(D.LeaseExecMs, 50));
  Out.num("dist.lease_exec_ms_p99", percentile(D.LeaseExecMs, 99));
  Out.num("dist.lease_gap_ms_p50", percentile(D.LeaseGapMs, 50));
  Out.num("dist.lease_gap_ms_p99", percentile(D.LeaseGapMs, 99));
  Out.num("dist.joiner_busy_ratio", ratio(D.JoinerBusyS, D.JoinerLifeS));
  Out.num("dist.joiner_time_s", D.JoinerLifeS);
  Out.num("dist.leases", static_cast<double>(D.LeaseExecMs.size()));
  Out.num("dist.items_per_lease",
          ratio(static_cast<double>(D.DrainItems),
                static_cast<double>(D.DrainLeases)));
  Out.num("dist.handshake_ms", median(D.HandshakeMs));
  Out.num("dist.rehellos", static_cast<double>(D.Rehellos));
  Out.num("dist.revoked_leases",
          static_cast<double>(counter(All, obs::Counter::DistLeaseRevoked)));
}

} // namespace

int runTraced(Workload W, uint64_t Seed, double Seconds) {
  // The metering-overhead leg drops the registry, which the joiners'
  // lease results carry to the coordinator, so dist-loopback has none.
  bool MeasureMetering = W != Workload::DistLoopback;

  Report Out;
  uint64_t Attempted = 0, Failed = 0;
  std::string Why;
  auto Account = [&](const LegResult &L) {
    ++Attempted;
    if (!L.Correct) {
      ++Failed;
      if (Why.empty())
        Why = L.Why;
    }
  };

  // Rotate the leg order each round so slow drift of the host does not
  // always land on the same leg.
  std::vector<double> Untraced, Traced, Unmetered;
  LegResult Last;
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0; Round == 0 || secondsSince(Start) < Seconds;
       ++Round) {
    for (unsigned K = 0; K != 3; ++K) {
      switch ((Round + K) % 3) {
      case 0: {
        LegResult L = runLeg(W, LegOptions{});
        Account(L);
        Untraced.push_back(L.WallS);
        break;
      }
      case 1: {
        LegOptions O;
        O.Trace = true;
        Last = runLeg(W, O);
        Account(Last);
        Traced.push_back(Last.WallS);
        break;
      }
      case 2:
        if (MeasureMetering) {
          LegOptions O;
          O.Metering = false;
          LegResult L = runLeg(W, O);
          Account(L);
          Unmetered.push_back(L.WallS);
        }
        break;
      }
    }
  }
  double Base = median(Untraced);
  layerMetrics(W, Last, Base, Out);
  Out.num("obs.trace_overhead", ratio(median(Traced) - Base, Base));
  Out.num("obs.untraced_wall_s", Base);
  double Bare = median(Unmetered);
  Out.num("obs.metering_overhead", ratio(Base - Bare, Bare));
  Out.num("obs.unmetered_wall_s", Bare);
  Out.num("obs.traced_rounds", static_cast<double>(Traced.size()));

  // Probes. The VM ones step the workload's own model; replay uses the
  // bug rows' schedules. Layers the workload does not load read 0.
  if (W == Workload::DryadFrontier)
    zeros(Out, {"vm.step_ns", "vm.enabled_ns", "vm.hash_ns",
                "search.cache_probe_ns", "search.cache_probe_hit_ratio",
                "search.cache_probe_inserts"});
  else
    probeVm(workloadProgram(W), Seed, Out);
  probeFingerprint(Seed, Out);
  probeSwitch(Out);
  std::vector<std::pair<rt::TestCase, trace::Schedule>> Found;
  for (size_t Row = 0; Row != bugRows().size(); ++Row) {
    LegResult L = findRowBug(Row);
    Account(L);
    if (L.Correct)
      Found.emplace_back(bugRowTest(Row), L.Bugs.front().Sched);
  }
  probeReplay(Found, Out);
  if (W == Workload::DistLoopback)
    probeFrames(Last.Dist.Frames, Out);
  else
    zeros(Out, {"session.frame_encode_us", "session.frame_decode_us",
                "session.frame_bytes", "session.frames"});

  Out.num("attempted", static_cast<double>(Attempted));
  Out.num("failed", static_cast<double>(Failed));
  Out.str("why", Why);
  Out.print();
  return 0;
}

} // namespace pb
