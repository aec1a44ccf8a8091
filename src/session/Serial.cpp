//===- session/Serial.cpp - Search types <-> JSON conversions -------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//

#include "session/Serial.h"
#include "trace/Schedule.h"

using namespace icb;
using namespace icb::session;
using search::Bug;
using search::EngineSnapshot;
using search::SavedWorkItem;
using search::SearchLimits;
using search::SearchStats;

//===----------------------------------------------------------------------===//
// MinMax / schedule helpers
//===----------------------------------------------------------------------===//

namespace {

JsonValue minMaxToJson(const MinMax &M) {
  JsonValue V = JsonValue::object();
  V.set("min", JsonValue::number(M.min()));
  V.set("max", JsonValue::number(M.max()));
  V.set("sum", JsonValue::number(M.sum()));
  V.set("count", JsonValue::number(M.count()));
  // Derived, for readers: the uint64-only export of the mean (scaled by
  // 1000, rounded). Ignored on parse — min/max/sum/count are canonical.
  V.set("mean_milli", JsonValue::number(M.meanMilli()));
  return V;
}

bool minMaxFromJson(const JsonValue *V, MinMax &Out) {
  if (!V || !V->isObject())
    return false;
  uint64_t Min = 0, Max = 0, Sum = 0, Count = 0;
  if (!V->getU64("min", Min) || !V->getU64("max", Max) ||
      !V->getU64("sum", Sum) || !V->getU64("count", Count))
    return false;
  Out = MinMax::restore(Min, Max, Sum, Count);
  return true;
}

JsonValue histToJson(const Histogram &H) {
  JsonValue A = JsonValue::array();
  for (uint64_t Bucket : H.buckets())
    A.Arr.push_back(JsonValue::number(Bucket));
  return A;
}

bool histFromJson(const JsonValue *V, Histogram &Out) {
  if (!V || !V->isArray())
    return false;
  for (size_t I = 0; I != V->Arr.size(); ++I) {
    if (V->Arr[I].K != JsonValue::Kind::Number)
      return false;
    Out.increment(I, V->Arr[I].U);
  }
  return true;
}

/// A model-VM schedule (plain thread ids) as one space-separated string,
/// parseable by trace::Schedule::parse (no markers).
std::string tidsToText(const std::vector<vm::ThreadId> &Tids) {
  std::string Out;
  for (size_t I = 0; I != Tids.size(); ++I) {
    if (I)
      Out += ' ';
    Out += std::to_string(Tids[I]);
  }
  return Out;
}

bool tidsFromText(const std::string &Text, std::vector<vm::ThreadId> &Out) {
  // Size exactly (decoded prefixes live on in frontier queues): one token
  // per whitespace-to-token transition.
  size_t Tokens = 0;
  bool InToken = false;
  for (char C : Text) {
    bool Space = trace::isScheduleSpace(C);
    Tokens += !Space && !InToken;
    InToken = !Space;
  }
  Out.clear();
  Out.reserve(Tokens);
  return trace::scanScheduleText(
      Text, [&Out](uint32_t Tid, bool Preemption, bool Switch) {
        if (Preemption || Switch)
          return false; // Plain tid lists carry no markers.
        Out.push_back(Tid);
        return true;
      });
}

/// A list of 64-bit values (the thread policy's variable budget) as one
/// space-separated decimal string.
std::string u64sToText(const std::vector<uint64_t> &Values) {
  std::string Out;
  for (size_t I = 0; I != Values.size(); ++I) {
    if (I)
      Out += ' ';
    Out += std::to_string(Values[I]);
  }
  return Out;
}

bool u64sFromText(const std::string &Text, std::vector<uint64_t> &Out) {
  Out.clear();
  size_t I = 0;
  while (I < Text.size()) {
    if (Text[I] == ' ') {
      ++I;
      continue;
    }
    uint64_t Value = 0;
    size_t Start = I;
    while (I < Text.size() && Text[I] >= '0' && Text[I] <= '9') {
      uint64_t Digit = static_cast<uint64_t>(Text[I] - '0');
      if (Value > (~0ull - Digit) / 10)
        return false; // Overflow.
      Value = Value * 10 + Digit;
      ++I;
    }
    if (I == Start)
      return false; // Not a digit.
    Out.push_back(Value);
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// SearchStats
//===----------------------------------------------------------------------===//

JsonValue icb::session::statsToJson(const SearchStats &Stats) {
  JsonValue V = JsonValue::object();
  V.set("executions", JsonValue::number(Stats.Executions));
  V.set("total_steps", JsonValue::number(Stats.TotalSteps));
  V.set("distinct_states", JsonValue::number(Stats.DistinctStates));
  V.set("distinct_terminal_states",
        JsonValue::number(Stats.DistinctTerminalStates));
  V.set("steps_per_execution", minMaxToJson(Stats.StepsPerExecution));
  V.set("blocking_per_execution", minMaxToJson(Stats.BlockingPerExecution));
  V.set("preemptions_per_execution",
        minMaxToJson(Stats.PreemptionsPerExecution));
  V.set("threads_per_execution", minMaxToJson(Stats.ThreadsPerExecution));

  JsonValue Hist = JsonValue::array();
  for (uint64_t Bucket : Stats.PreemptionHistogram.buckets())
    Hist.Arr.push_back(JsonValue::number(Bucket));
  V.set("preemption_histogram", std::move(Hist));

  JsonValue Coverage = JsonValue::array();
  for (const search::CoveragePoint &P : Stats.Coverage) {
    JsonValue Point = JsonValue::array();
    Point.Arr.push_back(JsonValue::number(P.Executions));
    Point.Arr.push_back(JsonValue::number(P.States));
    Coverage.Arr.push_back(std::move(Point));
  }
  V.set("coverage", std::move(Coverage));

  JsonValue PerBound = JsonValue::array();
  for (const search::BoundCoverage &B : Stats.PerBound) {
    JsonValue Row = JsonValue::object();
    Row.set("bound", JsonValue::number(B.Bound));
    Row.set("states", JsonValue::number(B.States));
    Row.set("executions", JsonValue::number(B.Executions));
    PerBound.Arr.push_back(std::move(Row));
  }
  V.set("per_bound", std::move(PerBound));

  V.set("completed", JsonValue::boolean(Stats.Completed));
  return V;
}

bool icb::session::statsFromJson(const JsonValue &V, SearchStats &Out) {
  if (!V.isObject())
    return false;
  Out = SearchStats();
  if (!V.getU64("executions", Out.Executions) ||
      !V.getU64("total_steps", Out.TotalSteps) ||
      !V.getU64("distinct_states", Out.DistinctStates) ||
      !V.getU64("distinct_terminal_states", Out.DistinctTerminalStates) ||
      !V.getBool("completed", Out.Completed))
    return false;
  if (!minMaxFromJson(V.find("steps_per_execution"),
                      Out.StepsPerExecution) ||
      !minMaxFromJson(V.find("blocking_per_execution"),
                      Out.BlockingPerExecution) ||
      !minMaxFromJson(V.find("preemptions_per_execution"),
                      Out.PreemptionsPerExecution) ||
      !minMaxFromJson(V.find("threads_per_execution"),
                      Out.ThreadsPerExecution))
    return false;

  const JsonValue *Hist = V.find("preemption_histogram");
  if (!Hist || !Hist->isArray())
    return false;
  for (size_t I = 0; I != Hist->Arr.size(); ++I) {
    if (Hist->Arr[I].K != JsonValue::Kind::Number)
      return false;
    Out.PreemptionHistogram.increment(I, Hist->Arr[I].U);
  }

  const JsonValue *Coverage = V.find("coverage");
  if (!Coverage || !Coverage->isArray())
    return false;
  for (const JsonValue &PointV : Coverage->Arr) {
    if (!PointV.isArray() || PointV.Arr.size() != 2 ||
        PointV.Arr[0].K != JsonValue::Kind::Number ||
        PointV.Arr[1].K != JsonValue::Kind::Number)
      return false;
    Out.Coverage.push_back({PointV.Arr[0].U, PointV.Arr[1].U});
  }

  const JsonValue *PerBound = V.find("per_bound");
  if (!PerBound || !PerBound->isArray())
    return false;
  for (const JsonValue &RowV : PerBound->Arr) {
    search::BoundCoverage Row;
    uint64_t Bound = 0;
    if (!RowV.getU64("bound", Bound) || Bound > UINT32_MAX ||
        !RowV.getU64("states", Row.States) ||
        !RowV.getU64("executions", Row.Executions))
      return false;
    Row.Bound = static_cast<unsigned>(Bound);
    Out.PerBound.push_back(Row);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

JsonValue icb::session::metricsToJson(const obs::MetricsSnapshot &M) {
  JsonValue V = JsonValue::object();

  // Work-derived section: identical across worker counts and resume.
  JsonValue Counters = JsonValue::object();
  JsonValue TimingCounters = JsonValue::object();
  for (size_t I = 0; I != obs::NumCounters; ++I) {
    auto C = static_cast<obs::Counter>(I);
    uint64_t Value = I < M.Counters.size() ? M.Counters[I] : 0;
    (obs::counterIsDeterministic(C) ? Counters : TimingCounters)
        .set(obs::counterName(C), JsonValue::number(Value));
  }
  V.set("counters", std::move(Counters));
  V.set("replay_depth", minMaxToJson(M.ReplayDepth));

  JsonValue PerBound = JsonValue::array();
  for (uint64_t Bucket : M.ExecutionsPerBound.buckets())
    PerBound.Arr.push_back(JsonValue::number(Bucket));
  V.set("executions_per_bound", std::move(PerBound));

  JsonValue SleepSaved = JsonValue::array();
  for (uint64_t Bucket : M.SleepSavedPerBound.buckets())
    SleepSaved.Arr.push_back(JsonValue::number(Bucket));
  V.set("sleep_saved_per_bound", std::move(SleepSaved));

  // Schedule-space estimator mass (format v5): the tree fixes every
  // split, so this is work-derived like executions_per_bound.
  V.set("est_mass_per_bound", histToJson(M.EstMassPerBound));

  // Per-preemption-site profiles (format v5). Taken (defer-time) and
  // Execs (every item-start, pruned or not) are tree-derived. Bugs and
  // NewStates are timing-class: under --jobs the shared work-item cache
  // admits exactly one of several same-digest chains, so which site's
  // chain runs past the claim — and therefore detects the bugs / first
  // sees the states downstream of it — depends on worker timing. Sites
  // whose only data is timing-class are omitted here (their very
  // presence is attribution-dependent) and appear under timing only.
  JsonValue Sites = JsonValue::object();
  JsonValue SiteNewStates = JsonValue::object();
  JsonValue SiteBugs = JsonValue::object();
  for (const auto &Entry : M.Sites) {
    const obs::SiteStat &S = Entry.second;
    if (!S.Taken.buckets().empty() || !S.Execs.buckets().empty()) {
      JsonValue Row = JsonValue::object();
      Row.set("taken", histToJson(S.Taken));
      Row.set("execs", histToJson(S.Execs));
      Sites.set(Entry.first, std::move(Row));
    }
    if (!S.NewStates.buckets().empty())
      SiteNewStates.set(Entry.first, histToJson(S.NewStates));
    if (!S.Bugs.buckets().empty())
      SiteBugs.set(Entry.first, histToJson(S.Bugs));
  }
  V.set("sites", std::move(Sites));

  // Timing section: one particular run on one particular machine. The
  // determinism tests and the resume CI normalization drop this subtree.
  JsonValue Timing = JsonValue::object();
  Timing.set("counters", std::move(TimingCounters));
  Timing.set("site_new_states", std::move(SiteNewStates));
  Timing.set("site_bugs", std::move(SiteBugs));
  JsonValue Phases = JsonValue::object();
  for (size_t I = 0; I != obs::NumPhases; ++I) {
    MinMax P = I < M.Phases.size() ? M.Phases[I] : MinMax();
    Phases.set(obs::phaseName(static_cast<obs::Phase>(I)),
               minMaxToJson(P));
  }
  Timing.set("phases_ns", std::move(Phases));
  JsonValue PhaseHist = JsonValue::object();
  for (size_t I = 0; I != obs::NumPhases; ++I) {
    JsonValue Buckets = JsonValue::array();
    if (I < M.PhaseHist.size())
      for (uint64_t Bucket : M.PhaseHist[I].buckets())
        Buckets.Arr.push_back(JsonValue::number(Bucket));
    PhaseHist.set(obs::phaseName(static_cast<obs::Phase>(I)),
                  std::move(Buckets));
  }
  Timing.set("phase_hist_log2", std::move(PhaseHist));
  JsonValue Workers = JsonValue::array();
  for (const obs::WorkerMetrics &W : M.Workers) {
    JsonValue Row = JsonValue::object();
    Row.set("busy_ns", JsonValue::number(W.BusyNanos));
    Row.set("idle_ns", JsonValue::number(W.IdleNanos));
    Workers.Arr.push_back(std::move(Row));
  }
  Timing.set("workers", std::move(Workers));
  V.set("timing", std::move(Timing));
  return V;
}

bool icb::session::metricsFromJson(const JsonValue &V,
                                   obs::MetricsSnapshot &Out) {
  if (!V.isObject())
    return false;
  Out = obs::MetricsSnapshot();
  Out.Counters.assign(obs::NumCounters, 0);
  Out.Phases.assign(obs::NumPhases, MinMax());

  const JsonValue *Counters = V.find("counters");
  const JsonValue *Timing = V.find("timing");
  if (!Counters || !Counters->isObject() || !Timing || !Timing->isObject())
    return false;
  const JsonValue *TimingCounters = Timing->find("counters");
  const JsonValue *Phases = Timing->find("phases_ns");
  if (!TimingCounters || !TimingCounters->isObject() || !Phases ||
      !Phases->isObject())
    return false;
  // Counter/phase names absent from the file default to zero: format v2
  // checkpoints predate the POR metrics but must keep loading.
  for (size_t I = 0; I != obs::NumCounters; ++I) {
    auto C = static_cast<obs::Counter>(I);
    const JsonValue &Section =
        obs::counterIsDeterministic(C) ? *Counters : *TimingCounters;
    const char *Name = obs::counterName(C);
    if (Section.find(Name) && !Section.getU64(Name, Out.Counters[I]))
      return false;
  }
  if (!minMaxFromJson(V.find("replay_depth"), Out.ReplayDepth))
    return false;
  for (size_t I = 0; I != obs::NumPhases; ++I) {
    const JsonValue *P =
        Phases->find(obs::phaseName(static_cast<obs::Phase>(I)));
    if (P && !minMaxFromJson(P, Out.Phases[I]))
      return false;
  }

  // Optional: absent in checkpoints predating format v4.
  Out.PhaseHist.assign(obs::NumPhases, Histogram());
  if (const JsonValue *PhaseHist = Timing->find("phase_hist_log2")) {
    if (!PhaseHist->isObject())
      return false;
    for (size_t I = 0; I != obs::NumPhases; ++I) {
      const JsonValue *Buckets =
          PhaseHist->find(obs::phaseName(static_cast<obs::Phase>(I)));
      if (!Buckets)
        continue;
      if (!Buckets->isArray())
        return false;
      for (size_t J = 0; J != Buckets->Arr.size(); ++J) {
        if (Buckets->Arr[J].K != JsonValue::Kind::Number)
          return false;
        Out.PhaseHist[I].increment(J, Buckets->Arr[J].U);
      }
    }
  }

  const JsonValue *PerBound = V.find("executions_per_bound");
  if (!PerBound || !PerBound->isArray())
    return false;
  for (size_t I = 0; I != PerBound->Arr.size(); ++I) {
    if (PerBound->Arr[I].K != JsonValue::Kind::Number)
      return false;
    Out.ExecutionsPerBound.increment(I, PerBound->Arr[I].U);
  }

  // Optional: absent in format v2 checkpoints.
  if (const JsonValue *SleepSaved = V.find("sleep_saved_per_bound")) {
    if (!SleepSaved->isArray())
      return false;
    for (size_t I = 0; I != SleepSaved->Arr.size(); ++I) {
      if (SleepSaved->Arr[I].K != JsonValue::Kind::Number)
        return false;
      Out.SleepSavedPerBound.increment(I, SleepSaved->Arr[I].U);
    }
  }

  // Optional (format v5): estimator mass and per-site profiles. Absent in
  // older checkpoints — the estimator resumes simply uncredited.
  if (const JsonValue *EstMass = V.find("est_mass_per_bound"))
    if (!histFromJson(EstMass, Out.EstMassPerBound))
      return false;
  if (const JsonValue *Sites = V.find("sites")) {
    if (!Sites->isObject())
      return false;
    for (const auto &Entry : Sites->Obj) {
      obs::SiteStat &S = Out.Sites[Entry.first];
      if (!Entry.second.isObject() ||
          !histFromJson(Entry.second.find("taken"), S.Taken) ||
          !histFromJson(Entry.second.find("execs"), S.Execs))
        return false;
    }
  }
  if (const JsonValue *SiteNew = Timing->find("site_new_states")) {
    if (!SiteNew->isObject())
      return false;
    for (const auto &Entry : SiteNew->Obj)
      if (!histFromJson(&Entry.second, Out.Sites[Entry.first].NewStates))
        return false;
  }
  if (const JsonValue *SiteBug = Timing->find("site_bugs")) {
    if (!SiteBug->isObject())
      return false;
    for (const auto &Entry : SiteBug->Obj)
      if (!histFromJson(&Entry.second, Out.Sites[Entry.first].Bugs))
        return false;
  }

  const JsonValue *Workers = Timing->find("workers");
  if (!Workers || !Workers->isArray())
    return false;
  for (const JsonValue &RowV : Workers->Arr) {
    obs::WorkerMetrics W;
    if (!RowV.getU64("busy_ns", W.BusyNanos) ||
        !RowV.getU64("idle_ns", W.IdleNanos))
      return false;
    Out.Workers.push_back(W);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Bug
//===----------------------------------------------------------------------===//

JsonValue icb::session::bugToJson(const Bug &B) {
  JsonValue V = JsonValue::object();
  V.set("kind", JsonValue::str(search::bugKindName(B.Kind)));
  V.set("message", JsonValue::str(B.Message));
  V.set("preemptions", JsonValue::number(B.Preemptions));
  V.set("context_switches", JsonValue::number(B.ContextSwitches));
  V.set("steps", JsonValue::number(B.Steps));
  V.set("schedule", JsonValue::str(tidsToText(B.Schedule)));
  V.set("annotated_schedule", JsonValue::str(B.Sched.str()));
  return V;
}

bool icb::session::bugFromJson(const JsonValue &V, Bug &Out) {
  if (!V.isObject())
    return false;
  Out = Bug();
  std::string KindName, ScheduleText, AnnotatedText;
  uint64_t Preemptions = 0, ContextSwitches = 0;
  if (!V.getString("kind", KindName) ||
      !search::bugKindFromName(KindName, Out.Kind) ||
      !V.getString("message", Out.Message) ||
      !V.getU64("preemptions", Preemptions) || Preemptions > UINT32_MAX ||
      !V.getU64("context_switches", ContextSwitches) ||
      ContextSwitches > UINT32_MAX || !V.getU64("steps", Out.Steps) ||
      !V.getString("schedule", ScheduleText) ||
      !V.getString("annotated_schedule", AnnotatedText))
    return false;
  Out.Preemptions = static_cast<unsigned>(Preemptions);
  Out.ContextSwitches = static_cast<unsigned>(ContextSwitches);
  if (!tidsFromText(ScheduleText, Out.Schedule))
    return false;
  if (!trace::Schedule::parse(AnnotatedText, Out.Sched))
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// SearchLimits
//===----------------------------------------------------------------------===//

JsonValue icb::session::limitsToJson(const SearchLimits &Limits) {
  JsonValue V = JsonValue::object();
  V.set("max_executions", JsonValue::number(Limits.MaxExecutions));
  V.set("max_steps", JsonValue::number(Limits.MaxSteps));
  V.set("max_states", JsonValue::number(Limits.MaxStates));
  V.set("max_preemption_bound",
        JsonValue::number(Limits.MaxPreemptionBound));
  V.set("stop_at_first_bug", JsonValue::boolean(Limits.StopAtFirstBug));
  return V;
}

bool icb::session::limitsFromJson(const JsonValue &V, SearchLimits &Out) {
  if (!V.isObject())
    return false;
  Out = SearchLimits();
  uint64_t Bound = 0;
  if (!V.getU64("max_executions", Out.MaxExecutions) ||
      !V.getU64("max_steps", Out.MaxSteps) ||
      !V.getU64("max_states", Out.MaxStates) ||
      !V.getU64("max_preemption_bound", Bound) || Bound > UINT32_MAX ||
      !V.getBool("stop_at_first_bug", Out.StopAtFirstBug))
    return false;
  Out.MaxPreemptionBound = static_cast<unsigned>(Bound);
  return true;
}

//===----------------------------------------------------------------------===//
// EngineSnapshot
//===----------------------------------------------------------------------===//

namespace {

JsonValue itemsToJson(const std::vector<SavedWorkItem> &Items) {
  JsonValue V = JsonValue::array();
  for (const SavedWorkItem &Item : Items) {
    JsonValue Row = JsonValue::object();
    Row.set("prefix", JsonValue::str(tidsToText(Item.Prefix)));
    Row.set("next", JsonValue::number(Item.Next));
    if (!Item.Sleep.empty())
      Row.set("sleep", JsonValue::str(tidsToText(Item.Sleep)));
    // Bound-policy budget state (format v4); only the thread policy
    // produces non-empty sets.
    if (!Item.BoundThreads.empty())
      Row.set("bound_threads", JsonValue::str(tidsToText(Item.BoundThreads)));
    if (!Item.BoundVars.empty())
      Row.set("bound_vars", JsonValue::str(u64sToText(Item.BoundVars)));
    // Estimator mass and seeding site (format v5); absent when the
    // estimator is dark, so older readers see nothing new to reject.
    if (Item.EstMass != 0)
      Row.set("est_mass", JsonValue::number(Item.EstMass));
    if (!Item.Site.empty())
      Row.set("site", JsonValue::str(Item.Site));
    V.Arr.push_back(std::move(Row));
  }
  return V;
}

bool itemsFromJson(const JsonValue *V, std::vector<SavedWorkItem> &Out) {
  if (!V || !V->isArray())
    return false;
  for (const JsonValue &RowV : V->Arr) {
    SavedWorkItem Item;
    std::string PrefixText;
    if (!RowV.getString("prefix", PrefixText) ||
        !tidsFromText(PrefixText, Item.Prefix) ||
        !RowV.getU32("next", Item.Next))
      return false;
    // Optional: only POR items carry sleep sets (and v2 files never do).
    if (RowV.find("sleep")) {
      std::string SleepText;
      if (!RowV.getString("sleep", SleepText) ||
          !tidsFromText(SleepText, Item.Sleep))
        return false;
    }
    // Optional (format v4): only thread-policy items carry budget sets.
    if (RowV.find("bound_threads")) {
      std::string ThreadsText;
      if (!RowV.getString("bound_threads", ThreadsText) ||
          !tidsFromText(ThreadsText, Item.BoundThreads))
        return false;
    }
    if (RowV.find("bound_vars")) {
      std::string VarsText;
      if (!RowV.getString("bound_vars", VarsText) ||
          !u64sFromText(VarsText, Item.BoundVars))
        return false;
    }
    // Optional (format v5): estimator mass and seeding site.
    if (RowV.find("est_mass") && !RowV.getU64("est_mass", Item.EstMass))
      return false;
    if (RowV.find("site") && !RowV.getString("site", Item.Site))
      return false;
    Out.push_back(std::move(Item));
  }
  return true;
}

bool hexField(const JsonValue &V, const char *Key,
              std::vector<uint64_t> &Out) {
  std::string Text;
  return V.getString(Key, Text) && digestsFromHex(Text, Out);
}

} // namespace

JsonValue icb::session::workItemsToJson(
    const std::vector<search::SavedWorkItem> &Items) {
  return itemsToJson(Items);
}

bool icb::session::workItemsFromJson(const JsonValue &V,
                                     std::vector<search::SavedWorkItem> &Out) {
  return itemsFromJson(&V, Out);
}

JsonValue icb::session::snapshotToJson(const EngineSnapshot &Snap) {
  JsonValue V = JsonValue::object();
  V.set("bound", JsonValue::number(Snap.Bound));
  V.set("final", JsonValue::boolean(Snap.Final));
  V.set("stats", statsToJson(Snap.Stats));

  JsonValue Bugs = JsonValue::array();
  for (const Bug &B : Snap.Bugs)
    Bugs.Arr.push_back(bugToJson(B));
  V.set("bugs", std::move(Bugs));

  // Absent entirely for unmetered runs; resuming restores it so the
  // continued run's work-derived counters match an uninterrupted run's.
  if (!Snap.Metrics.empty())
    V.set("metrics", metricsToJson(Snap.Metrics));

  if (!Snap.Final) {
    V.set("current_queue", itemsToJson(Snap.CurrentQueue));
    V.set("next_queue", itemsToJson(Snap.NextQueue));
    JsonValue Sampler = JsonValue::object();
    Sampler.set("stride", JsonValue::number(Snap.Sampler.Stride));
    Sampler.set("last_executions",
                JsonValue::number(Snap.Sampler.LastExecutions));
    Sampler.set("last_states", JsonValue::number(Snap.Sampler.LastStates));
    Sampler.set("have_pending",
                JsonValue::boolean(Snap.Sampler.HavePending));
    V.set("sampler", std::move(Sampler));
    // Digest sets dominate checkpoint size on long runs; past the
    // threshold they switch to the sorted delta-encoded form (format v3).
    constexpr size_t DigestCompactThreshold = 4096;
    V.set("seen_digests",
          JsonValue::str(
              digestsToHexCompact(Snap.SeenDigests, DigestCompactThreshold)));
    V.set("terminal_digests",
          JsonValue::str(digestsToHexCompact(Snap.TerminalDigests,
                                             DigestCompactThreshold)));
    V.set("item_digests",
          JsonValue::str(
              digestsToHexCompact(Snap.ItemDigests, DigestCompactThreshold)));
  }
  return V;
}

bool icb::session::snapshotFromJson(const JsonValue &V,
                                    EngineSnapshot &Out) {
  if (!V.isObject())
    return false;
  Out = EngineSnapshot();
  uint64_t Bound = 0;
  if (!V.getU64("bound", Bound) || Bound > UINT32_MAX ||
      !V.getBool("final", Out.Final))
    return false;
  Out.Bound = static_cast<unsigned>(Bound);
  const JsonValue *Stats = V.find("stats");
  if (!Stats || !statsFromJson(*Stats, Out.Stats))
    return false;

  const JsonValue *Bugs = V.find("bugs");
  if (!Bugs || !Bugs->isArray())
    return false;
  for (const JsonValue &BugV : Bugs->Arr) {
    Bug B;
    if (!bugFromJson(BugV, B))
      return false;
    Out.Bugs.push_back(std::move(B));
  }

  if (const JsonValue *Metrics = V.find("metrics"))
    if (!metricsFromJson(*Metrics, Out.Metrics))
      return false;

  if (Out.Final)
    return true;

  if (!itemsFromJson(V.find("current_queue"), Out.CurrentQueue) ||
      !itemsFromJson(V.find("next_queue"), Out.NextQueue))
    return false;
  const JsonValue *Sampler = V.find("sampler");
  if (!Sampler || !Sampler->isObject() ||
      !Sampler->getU64("stride", Out.Sampler.Stride) ||
      !Sampler->getU64("last_executions", Out.Sampler.LastExecutions) ||
      !Sampler->getU64("last_states", Out.Sampler.LastStates) ||
      !Sampler->getBool("have_pending", Out.Sampler.HavePending))
    return false;
  if (!hexField(V, "seen_digests", Out.SeenDigests) ||
      !hexField(V, "terminal_digests", Out.TerminalDigests) ||
      !hexField(V, "item_digests", Out.ItemDigests))
    return false;
  return true;
}
