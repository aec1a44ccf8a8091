//===- tests/session_test.cpp - Session subsystem tests -------------------===//
//
// Part of the ICB project (PLDI'07 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session subsystem end to end: the strict JSON layer (round-trips
/// and adversarial rejects), the manifest writer, checkpoint save/load,
/// interrupted-run resume determinism for both executors' sequential and
/// parallel drivers, `.icbrepro` round-trip + strict replay, and
/// delta-debugging schedule minimization. The resume tests are the
/// subsystem's acceptance criterion in miniature: a run cut short at an
/// arbitrary safe point and resumed from the serialized checkpoint must be
/// indistinguishable from an uninterrupted run.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/WorkStealingQueue.h"
#include "benchmarks/WsqModel.h"
#include "rt/Explore.h"
#include "search/IcbSearch.h"
#include "search/ParallelIcb.h"
#include "session/Checkpoint.h"
#include "session/DirLock.h"
#include "session/Manifest.h"
#include "session/Minimize.h"
#include "session/Repro.h"
#include "testutil/ResultChecks.h"
#include "vm/Interp.h"
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <unistd.h>
#include <string>
#include <thread>
#include <vector>

using namespace icb;
using namespace icb::bench;
using namespace icb::session;
using icb::testutil::expectIdenticalResults;

namespace {

/// A fresh directory of the running test's own (mkdtemp under
/// testing::TempDir()), removed with its contents at scope exit. ctest
/// runs every test as its own process, concurrently under -j, so no two
/// tests may share a file path.
struct ScratchDir {
  std::string Path;

  ScratchDir() {
    const testing::TestInfo *T =
        testing::UnitTest::GetInstance()->current_test_info();
    std::string Template = testing::TempDir() + "icb_" +
                           T->test_suite_name() + "_" + T->name() +
                           "_XXXXXX";
    if (mkdtemp(Template.data()))
      Path = Template;
    EXPECT_FALSE(Path.empty()) << "mkdtemp failed for " << Template;
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  ~ScratchDir() {
    std::error_code Ignored;
    if (!Path.empty())
      std::filesystem::remove_all(Path, Ignored);
  }

  std::string file(const std::string &Name) const { return Path + "/" + Name; }
};

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(SessionJson, WriteParseRoundTrip) {
  JsonValue Doc = JsonValue::object();
  Doc.set("zero", JsonValue::number(0));
  Doc.set("max", JsonValue::number(UINT64_MAX));
  Doc.set("past_double", JsonValue::number((1ull << 53) + 1));
  Doc.set("yes", JsonValue::boolean(true));
  Doc.set("no", JsonValue::boolean(false));
  Doc.set("nil", JsonValue::null());
  Doc.set("text", JsonValue::str("quote \" backslash \\ tab \t ctrl \x01"));
  JsonValue Arr = JsonValue::array();
  Arr.Arr.push_back(JsonValue::number(7));
  JsonValue Inner = JsonValue::object();
  Inner.set("k", JsonValue::str(""));
  Arr.Arr.push_back(std::move(Inner));
  Doc.set("arr", std::move(Arr));

  std::string Text = jsonWrite(Doc);
  JsonValue Back;
  std::string Error;
  ASSERT_TRUE(jsonParse(Text, Back, &Error)) << Error;
  // The writer is deterministic and objects preserve insertion order, so
  // a round-trip reproduces the exact bytes.
  EXPECT_EQ(Text, jsonWrite(Back));

  uint64_t U = 0;
  EXPECT_TRUE(Back.getU64("max", U));
  EXPECT_EQ(U, UINT64_MAX);
  std::string S;
  EXPECT_TRUE(Back.getString("text", S));
  EXPECT_EQ(S, "quote \" backslash \\ tab \t ctrl \x01");
}

TEST(SessionJson, ParserRejectsMalformedInput) {
  const char *Bad[] = {
      "",                         // empty
      "{",                        // unterminated object
      "[1,]",                     // trailing comma
      "{\"a\":}",                 // missing value
      "{\"a\":1,}",               // trailing comma in object
      "[1 2]",                    // missing comma
      "{\"a\" 1}",                // missing colon
      "1.5",                      // float
      "-1",                       // negative
      "1e3",                      // exponent
      "tru",                      // bad literal
      "\"abc",                    // unterminated string
      "\"\\q\"",                  // unknown escape
      "\"\\u12G4\"",              // bad \u digit
      "\"\\u12\"",                // truncated \u escape
      "{} garbage",               // trailing garbage
      "18446744073709551616",     // uint64 overflow
      "{1: 2}",                   // non-string key
  };
  for (const char *Text : Bad) {
    SCOPED_TRACE(Text);
    JsonValue V;
    std::string Error;
    EXPECT_FALSE(jsonParse(Text, V, &Error));
    EXPECT_FALSE(Error.empty());
  }
}

TEST(SessionJson, DigestHexRoundTrip) {
  std::vector<uint64_t> Digests = {0, 1, 0xdeadbeef, UINT64_MAX,
                                   (1ull << 53) + 1};
  std::vector<uint64_t> Back;
  ASSERT_TRUE(digestsFromHex(digestsToHex(Digests), Back));
  EXPECT_EQ(Digests, Back);
  EXPECT_FALSE(digestsFromHex("12 xyz", Back));
}

TEST(SessionJson, DigestHexCompactRoundTrip) {
  // Digest sets are order-free, so the writer normalizes every set to
  // sorted-unique before choosing an encoding; above the threshold it
  // switches to the delta form ("*" prefix).
  std::vector<uint64_t> Digests = {0xdeadbeef, 3, UINT64_MAX, 3,
                                   (1ull << 53) + 1, 0};
  std::vector<uint64_t> Unique = Digests;
  std::sort(Unique.begin(), Unique.end());
  Unique.erase(std::unique(Unique.begin(), Unique.end()), Unique.end());

  std::string Compact = digestsToHexCompact(Digests, /*CompactThreshold=*/4);
  ASSERT_FALSE(Compact.empty());
  EXPECT_EQ(Compact[0], '*');
  std::vector<uint64_t> Back;
  ASSERT_TRUE(digestsFromHex(Compact, Back));
  EXPECT_EQ(Back, Unique);

  // Below the threshold the plain hex form is kept, but the set is still
  // written sorted and deduplicated.
  EXPECT_EQ(digestsToHexCompact(Digests, /*CompactThreshold=*/100),
            digestsToHex(Unique));

  // The compact form is what makes huge digest sets affordable: deltas of
  // a dense sorted set are short, so the encoding shrinks accordingly.
  std::vector<uint64_t> Dense;
  for (uint64_t I = 0; I != 8192; ++I)
    Dense.push_back(I * 7);
  std::string Plain = digestsToHex(Dense);
  std::string Small = digestsToHexCompact(Dense, 4096);
  EXPECT_LT(Small.size() * 2, Plain.size());
  ASSERT_TRUE(digestsFromHex(Small, Back));
  EXPECT_EQ(Back, Dense);
}

TEST(SessionJson, AtomicWriteThenRead) {
  ScratchDir Dir;
  std::string Path = Dir.file("icb_session_json_test.tmp");
  std::string Error;
  ASSERT_TRUE(atomicWriteFile(Path, "payload", &Error)) << Error;
  std::string Back;
  ASSERT_TRUE(readFile(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, "payload");
  std::remove(Path.c_str());
  EXPECT_FALSE(readFile(Path, Back, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(SessionJson, ConcurrentAtomicWritersNeverCollide) {
  // Two writers replacing one path at once (two threads here; two test
  // processes under ctest -j, or a checkpoint and a manifest flush) each
  // write their own temp file, so neither's rename can fail or publish
  // the other's half-written bytes.
  ScratchDir Dir;
  std::string Path = Dir.file("contended.json");
  std::atomic<unsigned> Failures{0};
  auto Writer = [&](char Fill) {
    std::string Content(4096, Fill);
    for (int I = 0; I != 200; ++I)
      if (!atomicWriteFile(Path, Content, nullptr))
        ++Failures;
  };
  std::thread A(Writer, 'a'), B(Writer, 'b');
  A.join();
  B.join();
  EXPECT_EQ(Failures.load(), 0u);
  std::string Back;
  ASSERT_TRUE(readFile(Path, Back, nullptr));
  ASSERT_EQ(Back.size(), 4096u);
  EXPECT_TRUE(Back == std::string(4096, 'a') || Back == std::string(4096, 'b'));
  // Every temp file was renamed away: only the target remains.
  size_t Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    (void)E;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
}

TEST(SessionJson, StaleTempFilesAreSwept) {
  // A writer killed between creating its temp file and renaming it leaves
  // the temp file behind; the directory's next owner sweeps exactly those
  // files and nothing else.
  ScratchDir Dir;
  std::string Path = Dir.file("checkpoint.json");
  std::string Error;
  ASSERT_TRUE(atomicWriteFile(Path, "kept", &Error)) << Error;
  for (const char *Name : {"checkpoint.json.tmp.123.0",
                           "checkpoint.json.tmp.456.7", "other.json.tmp.1.0",
                           "checkpoint.jsonx"})
    ASSERT_TRUE(atomicWriteFile(Dir.file(Name), "x", &Error)) << Error;
  removeStaleTempFiles(Path);
  std::vector<std::string> Left;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    Left.push_back(E.path().filename().string());
  std::sort(Left.begin(), Left.end());
  EXPECT_EQ(Left, (std::vector<std::string>{"checkpoint.json",
                                            "checkpoint.jsonx",
                                            "other.json.tmp.1.0"}));
  std::string Back;
  ASSERT_TRUE(readFile(Path, Back, &Error)) << Error;
  EXPECT_EQ(Back, "kept");
}

//===----------------------------------------------------------------------===//
// Manifest
//===----------------------------------------------------------------------===//

TEST(SessionManifest, RecordsConfigAndRuns) {
  search::SearchResult R;
  R.Stats.Executions = 3;
  search::Bug B;
  B.Kind = search::BugKind::AssertFailure;
  B.Message = "boom";
  B.Preemptions = 1;
  R.Bugs.push_back(B);

  Manifest M("session_test");
  JsonValue Config = JsonValue::object();
  Config.set("strategy", JsonValue::str("icb"));
  M.setConfig(std::move(Config));
  size_t Index = M.addRun(
      runRecord("wsq", "pop-check-then-act", "rt", "icb", 1, R, 12));
  R.Stats.Executions = 4;
  M.updateRun(Index,
              runRecord("wsq", "pop-check-then-act", "rt", "icb", 1, R, 15));

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(jsonParse(M.str(), Doc, &Error)) << Error;
  std::string Tool;
  ASSERT_TRUE(Doc.getString("tool", Tool));
  EXPECT_EQ(Tool, "session_test");
  const JsonValue *Runs = Doc.find("runs");
  ASSERT_NE(Runs, nullptr);
  ASSERT_EQ(Runs->Arr.size(), 1u);
  const JsonValue &Run = Runs->Arr[0];
  uint64_t U = 0;
  EXPECT_TRUE(Run.getU64("wall_ms", U));
  EXPECT_EQ(U, 15u);
  const JsonValue *Stats = Run.find("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_TRUE(Stats->getU64("executions", U));
  EXPECT_EQ(U, 4u);
  const JsonValue *Bugs = Run.find("bugs");
  ASSERT_NE(Bugs, nullptr);
  EXPECT_EQ(Bugs->Arr.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Checkpoint + resume determinism
//===----------------------------------------------------------------------===//

/// Test observer: cooperatively stops the run after a fixed number of
/// stopRequested() polls (0 = never stop), optionally requests periodic
/// snapshots every \p Every executions, and keeps every resumable
/// (non-final) snapshot the driver emits.
class SnapshotProbe final : public search::EngineObserver {
public:
  explicit SnapshotProbe(uint64_t StopAfterPolls, uint64_t Every = 0)
      : StopAfterPolls(StopAfterPolls), Every(Every) {}

  bool checkpointDue(uint64_t Executions) override {
    return Every != 0 && Executions >= LastSnap.load() + Every;
  }

  bool stopRequested() override {
    return StopAfterPolls != 0 && Polls.fetch_add(1) + 1 >= StopAfterPolls;
  }

  void onCheckpoint(const search::EngineSnapshot &Snap) override {
    LastSnap.store(Snap.Stats.Executions);
    if (!Snap.Final)
      Resumable.push_back(Snap);
  }

  std::vector<search::EngineSnapshot> Resumable;

private:
  uint64_t StopAfterPolls;
  uint64_t Every;
  std::atomic<uint64_t> Polls{0};
  std::atomic<uint64_t> LastSnap{0};
};

rt::ExploreResult runRtIcb(const rt::TestCase &Test, unsigned Jobs,
                           search::EngineObserver *Obs = nullptr,
                           const search::EngineSnapshot *Resume = nullptr,
                           bool Por = false,
                           obs::MetricsRegistry *Metrics = nullptr) {
  rt::ExploreOptions Opts;
  Opts.Limits.MaxPreemptionBound = 2;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Jobs = Jobs;
  Opts.Por = Por;
  Opts.Observer = Obs;
  Opts.Resume = Resume;
  Opts.Metrics = Metrics;
  rt::IcbExplorer Icb(Opts);
  return Icb.explore(Test);
}

search::SearchResult runVmIcb(const vm::Program &Prog, unsigned Jobs,
                              search::EngineObserver *Obs = nullptr,
                              const search::EngineSnapshot *Resume = nullptr,
                              bool Por = false) {
  vm::Interp VM(Prog);
  if (Jobs == 1) {
    search::IcbSearch::Options Opts;
    Opts.UseStateCache = false;
    Opts.UseSleepSets = Por;
    Opts.Limits.MaxPreemptionBound = 2;
    Opts.Limits.StopAtFirstBug = false;
    Opts.Observer = Obs;
    Opts.Resume = Resume;
    return search::IcbSearch(Opts).run(VM);
  }
  search::ParallelIcbSearch::Options Opts;
  Opts.Jobs = Jobs;
  Opts.UseStateCache = false;
  Opts.UseSleepSets = Por;
  Opts.Limits.MaxPreemptionBound = 2;
  Opts.Limits.StopAtFirstBug = false;
  Opts.Observer = Obs;
  Opts.Resume = Resume;
  return search::ParallelIcbSearch(Opts).run(VM);
}

/// Interrupt a run mid-flight, resume from the emitted snapshot, and
/// demand results identical to the uninterrupted reference. With POR on,
/// the sleep sets serialized inside work items must survive the trip —
/// dropping them would make the resumed run explore *more* than the
/// reference; inventing them would lose executions.
void checkRtResume(unsigned Jobs, bool Por = false) {
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult Reference = runRtIcb(Test, Jobs, nullptr, nullptr, Por);
  ASSERT_TRUE(Reference.foundBug());

  SnapshotProbe Probe(/*StopAfterPolls=*/40);
  rt::ExploreResult Cut = runRtIcb(Test, Jobs, &Probe, nullptr, Por);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());
  EXPECT_LT(Cut.Stats.Executions, Reference.Stats.Executions);

  rt::ExploreResult Resumed =
      runRtIcb(Test, Jobs, nullptr, &Probe.Resumable.back(), Por);
  EXPECT_FALSE(Resumed.Interrupted);
  expectIdenticalResults(Reference, Resumed);
}

void checkVmResume(unsigned Jobs, bool Por = false) {
  vm::Program Prog = wsqModel({3, WsqBug::PopCheckThenAct});
  search::SearchResult Reference = runVmIcb(Prog, Jobs, nullptr, nullptr, Por);
  ASSERT_TRUE(Reference.foundBug());

  SnapshotProbe Probe(/*StopAfterPolls=*/40);
  search::SearchResult Cut = runVmIcb(Prog, Jobs, &Probe, nullptr, Por);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());

  search::SearchResult Resumed =
      runVmIcb(Prog, Jobs, nullptr, &Probe.Resumable.back(), Por);
  EXPECT_FALSE(Resumed.Interrupted);
  expectIdenticalResults(Reference, Resumed);
}

TEST(SessionResume, RtSequentialMatchesUninterrupted) { checkRtResume(1); }
TEST(SessionResume, RtParallelMatchesUninterrupted) { checkRtResume(3); }
TEST(SessionResume, VmSequentialMatchesUninterrupted) { checkVmResume(1); }
TEST(SessionResume, VmParallelMatchesUninterrupted) { checkVmResume(3); }
TEST(SessionResume, RtPorSequentialMatchesUninterrupted) {
  checkRtResume(1, /*Por=*/true);
}
TEST(SessionResume, RtPorParallelMatchesUninterrupted) {
  checkRtResume(3, /*Por=*/true);
}
TEST(SessionResume, VmPorSequentialMatchesUninterrupted) {
  checkVmResume(1, /*Por=*/true);
}
TEST(SessionResume, VmPorParallelMatchesUninterrupted) {
  checkVmResume(3, /*Por=*/true);
}

TEST(SessionResume, PeriodicSnapshotResumesToSameResults) {
  // A completed run's periodic mid-run snapshots are just as resumable as
  // a stop-triggered one: resuming from any of them reproduces the full
  // run exactly.
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  SnapshotProbe Probe(/*StopAfterPolls=*/0, /*Every=*/200);
  rt::ExploreResult Reference = runRtIcb(Test, 1, &Probe);
  ASSERT_FALSE(Reference.Interrupted);
  ASSERT_GE(Probe.Resumable.size(), 2u);

  for (size_t I : {size_t(0), Probe.Resumable.size() / 2}) {
    SCOPED_TRACE(I);
    rt::ExploreResult Resumed =
        runRtIcb(Test, 1, nullptr, &Probe.Resumable[I]);
    expectIdenticalResults(Reference, Resumed);
  }
}

TEST(SessionCheckpoint, SerializedSnapshotResumesIdentically) {
  // The full durability path: interrupt, serialize the snapshot to disk,
  // load it back, resume from the *loaded* copy.
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult Reference = runRtIcb(Test, 1);

  SnapshotProbe Probe(/*StopAfterPolls=*/60);
  rt::ExploreResult Cut = runRtIcb(Test, 1, &Probe);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());

  CheckpointData Data;
  Data.Meta.Benchmark = "Work-Stealing Queue";
  Data.Meta.Bug = "pop-check-then-act";
  Data.Meta.Form = "rt";
  Data.Meta.Strategy = "icb";
  Data.Meta.Jobs = 1;
  Data.Meta.Detector = "vc";
  Data.Meta.Limits.MaxPreemptionBound = 2;
  Data.Snap = Probe.Resumable.back();
  Data.WallMillis = 42;

  ScratchDir Dir;
  std::string Path = checkpointPath(Dir.Path);
  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Data, &Error)) << Error;
  CheckpointData Loaded;
  ASSERT_TRUE(loadCheckpoint(Path, Loaded, &Error)) << Error;
  std::remove(Path.c_str());

  EXPECT_EQ(Loaded.Meta.Benchmark, Data.Meta.Benchmark);
  EXPECT_EQ(Loaded.Meta.Bug, Data.Meta.Bug);
  EXPECT_EQ(Loaded.Meta.Form, Data.Meta.Form);
  EXPECT_EQ(Loaded.Meta.Jobs, Data.Meta.Jobs);
  EXPECT_EQ(Loaded.Meta.Limits.MaxPreemptionBound,
            Data.Meta.Limits.MaxPreemptionBound);
  EXPECT_EQ(Loaded.WallMillis, 42u);
  EXPECT_EQ(Loaded.Snap.Bound, Data.Snap.Bound);
  EXPECT_FALSE(Loaded.Snap.Final);
  EXPECT_EQ(Loaded.Snap.CurrentQueue.size(), Data.Snap.CurrentQueue.size());
  EXPECT_EQ(Loaded.Snap.NextQueue.size(), Data.Snap.NextQueue.size());
  // Digest sets are compacted (sorted, deduplicated) on write, so compare
  // them as sets; the engine only ever membership-tests them.
  std::vector<uint64_t> WantDigests = Data.Snap.SeenDigests;
  std::sort(WantDigests.begin(), WantDigests.end());
  WantDigests.erase(std::unique(WantDigests.begin(), WantDigests.end()),
                    WantDigests.end());
  EXPECT_EQ(Loaded.Snap.SeenDigests, WantDigests);
  EXPECT_EQ(Loaded.Snap.Stats.Executions, Data.Snap.Stats.Executions);

  rt::ExploreResult Resumed = runRtIcb(Test, 1, nullptr, &Loaded.Snap);
  expectIdenticalResults(Reference, Resumed);
}

TEST(SessionCheckpoint, PorSnapshotRoundTripsThroughDisk) {
  // Same durability path with bounded POR on: the sleep sets inside saved
  // work items must survive serialization, or the resumed run diverges.
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult Reference =
      runRtIcb(Test, 1, nullptr, nullptr, /*Por=*/true);

  SnapshotProbe Probe(/*StopAfterPolls=*/60);
  rt::ExploreResult Cut = runRtIcb(Test, 1, &Probe, nullptr, /*Por=*/true);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());

  CheckpointData Data;
  Data.Meta.Form = "rt";
  Data.Meta.Strategy = "icb";
  Data.Meta.Por = true;
  Data.Meta.Limits.MaxPreemptionBound = 2;
  Data.Snap = Probe.Resumable.back();

  ScratchDir Dir;
  std::string Path = checkpointPath(Dir.Path);
  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Data, &Error)) << Error;
  CheckpointData Loaded;
  ASSERT_TRUE(loadCheckpoint(Path, Loaded, &Error)) << Error;
  std::remove(Path.c_str());

  EXPECT_TRUE(Loaded.Meta.Por);
  rt::ExploreResult Resumed =
      runRtIcb(Test, 1, nullptr, &Loaded.Snap, /*Por=*/true);
  expectIdenticalResults(Reference, Resumed);
}

#ifndef ICB_NO_METRICS
TEST(SessionCheckpoint, EstimatorAndSitesSurviveDiskRoundTrip) {
  // The schedule-space estimator's split masses and site provenance ride
  // on work items (checkpoint format v5); dropping either on the disk
  // round trip would make the resumed run's credited mass or its site
  // profiles diverge from an uninterrupted run's.
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  obs::MetricsRegistry RefReg;
  rt::ExploreResult Reference =
      runRtIcb(Test, 1, nullptr, nullptr, false, &RefReg);
  obs::MetricsSnapshot Ref = RefReg.snapshot();
  ASSERT_GT(Ref.estMassTotal(), 0u);

  SnapshotProbe Probe(/*StopAfterPolls=*/60);
  obs::MetricsRegistry CutReg;
  rt::ExploreResult Cut = runRtIcb(Test, 1, &Probe, nullptr, false, &CutReg);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());

  CheckpointData Data;
  Data.Meta.Form = "rt";
  Data.Meta.Strategy = "icb";
  Data.Meta.Limits.MaxPreemptionBound = 2;
  Data.Snap = Probe.Resumable.back();

  ScratchDir Dir;
  std::string Path = checkpointPath(Dir.Path);
  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Data, &Error)) << Error;
  CheckpointData Loaded;
  ASSERT_TRUE(loadCheckpoint(Path, Loaded, &Error)) << Error;
  std::remove(Path.c_str());

  // Safe points conserve estimator mass exactly: every unit of the
  // schedule space is either credited by a finished execution (in the
  // metrics image) or still queued on a frontier item.
  uint64_t Queued = 0;
  for (const auto *Q : {&Loaded.Snap.CurrentQueue, &Loaded.Snap.NextQueue})
    for (const search::SavedWorkItem &Item : *Q)
      Queued += Item.EstMass;
  EXPECT_EQ(Queued + Loaded.Snap.Metrics.estMassTotal(), obs::EstimateOne);

  obs::MetricsRegistry ResReg;
  rt::ExploreResult Resumed =
      runRtIcb(Test, 1, nullptr, &Loaded.Snap, false, &ResReg);
  expectIdenticalResults(Reference, Resumed);
  icb::testutil::expectSameDeterministicMetrics(Ref, ResReg.snapshot());
}
#endif // !ICB_NO_METRICS

TEST(SessionCheckpoint, LoadsFormatVersionTwoFiles) {
  // Bounded POR bumped the checkpoint format to v3; files written by
  // pre-POR builds (v2: no `por` meta field, no `sleep` on work items,
  // plain digest encoding) must keep loading with POR defaulted off.
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult Reference = runRtIcb(Test, 1);

  SnapshotProbe Probe(/*StopAfterPolls=*/60);
  rt::ExploreResult Cut = runRtIcb(Test, 1, &Probe);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());

  CheckpointData Data;
  Data.Meta.Form = "rt";
  Data.Meta.Strategy = "icb";
  Data.Meta.Limits.MaxPreemptionBound = 2;
  Data.Snap = Probe.Resumable.back();

  ScratchDir Dir;
  std::string Path = checkpointPath(Dir.Path);
  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Data, &Error)) << Error;
  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Error)) << Error;

  // Regress the file to what a v2 writer produced: version 2 and no
  // `por` member. (A POR-off v3 writer emits no `sleep` members and this
  // snapshot is far below the digest-compaction threshold, so the rest of
  // the bytes already match the v2 shape.)
  JsonValue Doc;
  ASSERT_TRUE(jsonParse(Text, Doc, &Error)) << Error;
  Doc.set("icb_checkpoint", JsonValue::number(2));
  JsonValue *Meta = nullptr;
  for (JsonValue::Member &M : Doc.Obj)
    if (M.first == "meta")
      Meta = &M.second;
  ASSERT_NE(Meta, nullptr);
  for (size_t I = 0; I != Meta->Obj.size(); ++I)
    if (Meta->Obj[I].first == "por") {
      Meta->Obj.erase(Meta->Obj.begin() + I);
      break;
    }
  EXPECT_EQ(Meta->find("por"), nullptr);
  ASSERT_TRUE(atomicWriteFile(Path, jsonWrite(Doc) + "\n", &Error)) << Error;

  CheckpointData Loaded;
  ASSERT_TRUE(loadCheckpoint(Path, Loaded, &Error)) << Error;
  std::remove(Path.c_str());
  EXPECT_FALSE(Loaded.Meta.Por);

  rt::ExploreResult Resumed = runRtIcb(Test, 1, nullptr, &Loaded.Snap);
  expectIdenticalResults(Reference, Resumed);
}

/// Recursively erases every member named \p Name from \p V.
void eraseMembersNamed(JsonValue &V, const char *Name) {
  if (V.isObject()) {
    for (size_t I = 0; I < V.Obj.size();) {
      if (V.Obj[I].first == Name) {
        V.Obj.erase(V.Obj.begin() + I);
      } else {
        eraseMembersNamed(V.Obj[I].second, Name);
        ++I;
      }
    }
  } else if (V.isArray()) {
    for (JsonValue &E : V.Arr)
      eraseMembersNamed(E, Name);
  }
}

TEST(SessionCheckpoint, LoadsAllOlderFormatVersions) {
  // The bound-policy seam bumped the format to v4; files written by v1,
  // v2, and v3 builds must keep loading, with every missing field
  // defaulting to the hard-wired behavior of its era (POR off,
  // preemption bounding, no metrics), and must resume to results
  // identical to an uninterrupted run.
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult Reference = runRtIcb(Test, 1);

  SnapshotProbe Probe(/*StopAfterPolls=*/60);
  rt::ExploreResult Cut = runRtIcb(Test, 1, &Probe);
  ASSERT_TRUE(Cut.Interrupted);
  ASSERT_FALSE(Probe.Resumable.empty());

  CheckpointData Data;
  Data.Meta.Form = "rt";
  Data.Meta.Strategy = "icb";
  Data.Meta.Limits.MaxPreemptionBound = 2;
  Data.Snap = Probe.Resumable.back();

  ScratchDir Dir;
  std::string Path = checkpointPath(Dir.Path);
  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Data, &Error)) << Error;
  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Error)) << Error;

  for (uint64_t Version : {uint64_t(3), uint64_t(2), uint64_t(1)}) {
    SCOPED_TRACE(Version);
    JsonValue Doc;
    ASSERT_TRUE(jsonParse(Text, Doc, &Error)) << Error;
    Doc.set("icb_checkpoint", JsonValue::number(Version));
    JsonValue *Meta = nullptr;
    for (JsonValue::Member &M : Doc.Obj)
      if (M.first == "meta")
        Meta = &M.second;
    ASSERT_NE(Meta, nullptr);
    // v4 additions: the policy meta fields, per-item budget sets, and the
    // phase latency histograms. The snapshot's own "bound" member (the
    // frontier index) predates v4, so only the meta object loses the
    // member of that name.
    for (size_t I = 0; I < Meta->Obj.size();)
      if (Meta->Obj[I].first == "bound" || Meta->Obj[I].first == "var_bound")
        Meta->Obj.erase(Meta->Obj.begin() + I);
      else
        ++I;
    eraseMembersNamed(Doc, "bound_threads");
    eraseMembersNamed(Doc, "bound_vars");
    eraseMembersNamed(Doc, "phase_hist_log2");
    if (Version <= 2) {
      // v3 additions: the POR meta field and per-item sleep sets.
      for (size_t I = 0; I < Meta->Obj.size();)
        if (Meta->Obj[I].first == "por")
          Meta->Obj.erase(Meta->Obj.begin() + I);
        else
          ++I;
      eraseMembersNamed(Doc, "sleep");
    }
    if (Version <= 1) {
      // v2 additions: the metrics block and the derived MinMax mean.
      eraseMembersNamed(Doc, "metrics");
      eraseMembersNamed(Doc, "mean_milli");
    }
    ASSERT_TRUE(atomicWriteFile(Path, jsonWrite(Doc) + "\n", &Error)) << Error;

    CheckpointData Loaded;
    ASSERT_TRUE(loadCheckpoint(Path, Loaded, &Error)) << Error;
    EXPECT_FALSE(Loaded.Meta.Por);
    EXPECT_EQ(Loaded.Meta.Bound, "preemption");
    EXPECT_EQ(Loaded.Meta.VarBound, 0u);

    rt::ExploreResult Resumed = runRtIcb(Test, 1, nullptr, &Loaded.Snap);
    expectIdenticalResults(Reference, Resumed);
  }

  // And forward again: a v4 file records a non-default policy in full.
  Data.Meta.Bound = "thread";
  Data.Meta.VarBound = 3;
  ASSERT_TRUE(saveCheckpoint(Path, Data, &Error)) << Error;
  CheckpointData V4;
  ASSERT_TRUE(loadCheckpoint(Path, V4, &Error)) << Error;
  std::remove(Path.c_str());
  EXPECT_EQ(V4.Meta.Bound, "thread");
  EXPECT_EQ(V4.Meta.VarBound, 3u);
}

TEST(SessionCheckpoint, LoadRejectsCorruptFiles) {
  ScratchDir Dir;
  std::string Path = Dir.file("icb_corrupt_checkpoint.json");
  std::string Error;
  CheckpointData Out;

  EXPECT_FALSE(loadCheckpoint(Path + ".missing", Out, &Error));

  ASSERT_TRUE(atomicWriteFile(Path, "{ not json", &Error)) << Error;
  EXPECT_FALSE(loadCheckpoint(Path, Out, &Error));
  EXPECT_FALSE(Error.empty());

  ASSERT_TRUE(atomicWriteFile(Path, "{\"icb_checkpoint\": 99}", &Error))
      << Error;
  EXPECT_FALSE(loadCheckpoint(Path, Out, &Error));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Repro artifacts
//===----------------------------------------------------------------------===//

ReproArtifact rtArtifactFor(const rt::ExploreResult &R) {
  ReproArtifact A;
  A.Benchmark = "Work-Stealing Queue";
  A.Bug = "pop-check-then-act";
  A.Form = "rt";
  A.Detector = "vc";
  A.Found = *R.simplestBug();
  return A;
}

TEST(SessionRepro, RoundTripAndStrictReplay) {
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult R = runRtIcb(Test, 1);
  ASSERT_TRUE(R.foundBug());

  ReproArtifact A = rtArtifactFor(R);
  std::string Name = reproFileName(A);
  EXPECT_NE(Name.find(".icbrepro"), std::string::npos);
  for (char C : Name)
    EXPECT_TRUE((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') ||
                C == '-' || C == '.')
        << "unsanitized character '" << C << "' in " << Name;

  ScratchDir Dir;
  std::string Path = Dir.file(Name);
  std::string Error;
  ASSERT_TRUE(saveRepro(Path, A, &Error)) << Error;
  ReproArtifact Loaded;
  ASSERT_TRUE(loadRepro(Path, Loaded, &Error)) << Error;
  std::remove(Path.c_str());
  EXPECT_EQ(Loaded.Benchmark, A.Benchmark);
  EXPECT_EQ(Loaded.Form, "rt");
  EXPECT_EQ(Loaded.Found.Message, A.Found.Message);
  EXPECT_TRUE(Loaded.Found.Sched == A.Found.Sched);

  ReplayOutcome Outcome = replayArtifactRt(Loaded, Test);
  EXPECT_TRUE(Outcome.Reproduced) << Outcome.Detail;
  EXPECT_TRUE(Outcome.BugFired);

  // Strictness: same schedule, doctored expectation -> divergence report,
  // not a silent pass.
  ReproArtifact Tampered = Loaded;
  Tampered.Found.Message = "some other bug";
  ReplayOutcome Diverged = replayArtifactRt(Tampered, Test);
  EXPECT_FALSE(Diverged.Reproduced);
  EXPECT_TRUE(Diverged.BugFired);
  EXPECT_FALSE(Diverged.Detail.empty());
}

TEST(SessionRepro, VmArtifactReplays) {
  vm::Program Prog = wsqModel({3, WsqBug::PopCheckThenAct});
  search::SearchResult R = runVmIcb(Prog, 1);
  ASSERT_TRUE(R.foundBug());

  ReproArtifact A;
  A.Benchmark = "Work-Stealing Queue";
  A.Bug = "pop-check-then-act";
  A.Form = "vm";
  A.Found = *R.simplestBug();
  ASSERT_FALSE(A.Found.Schedule.empty());

  ReplayOutcome Outcome = replayArtifactVm(A, Prog);
  EXPECT_TRUE(Outcome.Reproduced) << Outcome.Detail;

  // Replaying against the wrong program diverges loudly.
  vm::Program Clean = wsqModel({3, WsqBug::None});
  ReplayOutcome Wrong = replayArtifactVm(A, Clean);
  EXPECT_FALSE(Wrong.Reproduced);
  EXPECT_FALSE(Wrong.Detail.empty());
}

TEST(SessionRepro, LoadRejectsCorruptArtifacts) {
  ScratchDir Dir;
  std::string Path = Dir.file("icb_corrupt.icbrepro");
  std::string Error;
  ReproArtifact Out;
  ASSERT_TRUE(atomicWriteFile(Path, "{\"icb_repro\": 1}", &Error)) << Error;
  EXPECT_FALSE(loadRepro(Path, Out, &Error));
  EXPECT_FALSE(Error.empty());
  std::remove(Path.c_str());
}

TEST(SessionRepro, BoundFieldRoundTripsAndGatesReplay) {
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult R = runRtIcb(Test, 1);
  ASSERT_TRUE(R.foundBug());
  ReproArtifact A = rtArtifactFor(R);

  // Default preemption artifacts carry no bound field at all, so the
  // bytes of every pre-existing artifact are unchanged; they stay
  // compatible with an explicit preemption request and refuse any other
  // policy family.
  ScratchDir Dir;
  std::string Path = Dir.file(reproFileName(A));
  std::string Error;
  ASSERT_TRUE(saveRepro(Path, A, &Error)) << Error;
  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Error)) << Error;
  EXPECT_EQ(Text.find("\"bound\""), std::string::npos);
  ReproArtifact Loaded;
  ASSERT_TRUE(loadRepro(Path, Loaded, &Error)) << Error;
  EXPECT_TRUE(Loaded.Bound.empty());
  EXPECT_TRUE(reproBoundCompatible(Loaded, "", nullptr));
  EXPECT_TRUE(reproBoundCompatible(Loaded, "preemption", nullptr));
  std::string Why;
  EXPECT_FALSE(reproBoundCompatible(Loaded, "delay", &Why));
  EXPECT_FALSE(Why.empty());

  // A non-default policy records its full spec; compatibility compares
  // the family only (the K under which the bug was found is advisory).
  A.Bound = "delay:8";
  ASSERT_TRUE(saveRepro(Path, A, &Error)) << Error;
  ASSERT_TRUE(loadRepro(Path, Loaded, &Error)) << Error;
  std::remove(Path.c_str());
  EXPECT_EQ(Loaded.Bound, "delay:8");
  EXPECT_TRUE(reproBoundCompatible(Loaded, "", nullptr));
  EXPECT_TRUE(reproBoundCompatible(Loaded, "delay", nullptr));
  EXPECT_FALSE(reproBoundCompatible(Loaded, "preemption", &Why));
  EXPECT_FALSE(Why.empty());
}

//===----------------------------------------------------------------------===//
// Minimization
//===----------------------------------------------------------------------===//

TEST(SessionMinimize, RtReachesPaperPreemptionBound) {
  rt::TestCase Test = workStealingTest({3, 4, WsqBug::PopCheckThenAct});
  rt::ExploreResult R = runRtIcb(Test, 1);
  ASSERT_TRUE(R.foundBug());

  ReproArtifact A = rtArtifactFor(R);
  MinimizeResult M = minimizeRt(A, Test);
  ASSERT_TRUE(M.Reproduced);
  EXPECT_GT(M.Replays, 0u);
  EXPECT_LE(M.DirectivesAfter, M.DirectivesBefore);
  EXPECT_LE(M.PreemptionsAfter, M.PreemptionsBefore);
  // ICB already guarantees the minimal preemption count (paper bound 1
  // for this bug); minimization must never lose that.
  EXPECT_EQ(M.PreemptionsAfter, 1u);
  EXPECT_EQ(M.Minimized.Kind, A.Found.Kind);
  EXPECT_EQ(M.Minimized.Message, A.Found.Message);

  // The minimized schedule is still a faithful repro.
  ReproArtifact Shrunk = A;
  Shrunk.Found = M.Minimized;
  EXPECT_TRUE(replayArtifactRt(Shrunk, Test).Reproduced);
}

TEST(SessionMinimize, VmShrinksToSamePreemptionCount) {
  vm::Program Prog = wsqModel({3, WsqBug::PopCheckThenAct});
  search::SearchResult R = runVmIcb(Prog, 1);
  ASSERT_TRUE(R.foundBug());

  ReproArtifact A;
  A.Benchmark = "Work-Stealing Queue";
  A.Bug = "pop-check-then-act";
  A.Form = "vm";
  A.Found = *R.simplestBug();

  MinimizeResult M = minimizeVm(A, Prog);
  ASSERT_TRUE(M.Reproduced);
  EXPECT_LE(M.PreemptionsAfter, M.PreemptionsBefore);
  EXPECT_EQ(M.Minimized.Message, A.Found.Message);

  ReproArtifact Shrunk = A;
  Shrunk.Found = M.Minimized;
  EXPECT_TRUE(replayArtifactVm(Shrunk, Prog).Reproduced);
}

//===----------------------------------------------------------------------===//
// Checkpoint-directory locking and robustness
//===----------------------------------------------------------------------===//

TEST(SessionDirLock, SecondAcquirerLosesUntilRelease) {
  ScratchDir Scratch;
  std::string Dir = Scratch.Path;
  std::string Error;

  DirLock First;
  ASSERT_TRUE(First.acquire(Dir, &Error)) << Error;
  EXPECT_TRUE(First.held());

  // flock is per open file description, so a second open of the same
  // .lock conflicts even within one process — exactly the two-runs-on-
  // one---checkpoint-dir collision the CLI reports as exit 4.
  DirLock Second;
  EXPECT_FALSE(Second.acquire(Dir, &Error));
  EXPECT_FALSE(Second.held());
  EXPECT_FALSE(Error.empty());

  First.release();
  EXPECT_FALSE(First.held());
  EXPECT_TRUE(Second.acquire(Dir, &Error)) << Error;
  Second.release();
}

TEST(SessionDirLock, AcquireFailsOnMissingDirectory) {
  ScratchDir Scratch;
  std::string Dir = Scratch.file("never_created");
  std::string Error;
  DirLock Lock;
  EXPECT_FALSE(Lock.acquire(Dir, &Error));
  EXPECT_FALSE(Lock.held());
  EXPECT_FALSE(Error.empty());
}

TEST(SessionCheckpoint, SinkSurvivesVanishingDirectory) {
  // A checkpoint directory removed mid-run (operator cleanup, tmpfs
  // reaper) must surface as a sticky sink error — the CLI maps it to
  // exit 4 — never a crash or a silent no-op.
  ScratchDir Scratch;
  std::string Dir = Scratch.file("vanishing");
  std::string Error;
  ASSERT_TRUE(ensureDir(Dir, &Error)) << Error;

  CheckpointMeta Meta;
  Meta.Benchmark = "racy";
  Meta.Form = "vm";
  Meta.Strategy = "icb";
  CheckpointSink Sink(Dir, /*Every=*/1, Meta);

  search::EngineSnapshot Snap;
  Snap.Bound = 0;
  Snap.CurrentQueue.push_back({});
  Sink.onCheckpoint(Snap);
  ASSERT_TRUE(Sink.ok()) << Sink.error();

  std::remove(checkpointPath(Dir).c_str());
  std::remove((Dir + "/.lock").c_str());
  ASSERT_EQ(::rmdir(Dir.c_str()), 0);

  Sink.onCheckpoint(Snap);
  EXPECT_FALSE(Sink.ok());
  EXPECT_FALSE(Sink.error().empty());

  // The first failure sticks even if the directory reappears.
  ASSERT_TRUE(ensureDir(Dir, &Error)) << Error;
  Sink.onCheckpoint(Snap);
  EXPECT_FALSE(Sink.ok());
}

} // namespace
