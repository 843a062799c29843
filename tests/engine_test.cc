// Tests for the concurrent query engine: single-flight planning, executor
// selection, admission control, cancellation, LRU eviction and disk
// persistence. The key correctness bar everywhere: whatever the concurrency
// or executor, the localized segments and metrics must be bit-identical to
// a serial sequential execution of the same plan.

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/zeusdb.h"
#include "engine/executor_factory.h"
#include "engine/plan_cache.h"
#include "engine/query_engine.h"
#include "video/dataset.h"

namespace zeus {
namespace {

namespace fs = std::filesystem;

video::DatasetProfile SmallProfile() {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 12;
  profile.frames_per_video = 200;
  return profile;
}

core::QueryPlanner::Options FastPlannerOptions() {
  core::QueryPlanner::Options opts;
  opts.apfg.epochs = 4;
  opts.profile.max_windows_per_config = 60;
  opts.trainer.episodes = 3;
  opts.trainer.min_buffer = 32;
  opts.trainer.agent.batch_size = 32;
  opts.max_rl_configs = 4;
  return opts;
}

constexpr uint64_t kDatasetSeed = 58;

video::SyntheticDataset MakeDataset() {
  return video::SyntheticDataset::Generate(SmallProfile(), kDatasetSeed);
}

core::ActionQuery CrossRightQuery(double accuracy = 0.8) {
  core::ActionQuery q;
  q.action_classes = {video::ActionClass::kCrossRight};
  q.accuracy_target = accuracy;
  return q;
}

void ExpectSameOutcome(const engine::QueryResult& a,
                       const engine::QueryResult& b) {
  EXPECT_TRUE(engine::SameSegments(a, b))
      << a.segments.size() << " vs " << b.segments.size() << " segments";
  EXPECT_EQ(a.metrics.tp, b.metrics.tp);
  EXPECT_EQ(a.metrics.fp, b.metrics.fp);
  EXPECT_EQ(a.metrics.fn, b.metrics.fn);
  EXPECT_EQ(a.metrics.tn, b.metrics.tn);
}

// Shared fixture: one persisted-plan engine whose single planner run feeds
// most of the suite (later engines reload the checkpoint from disk instead
// of re-training).
class QueryEngineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    persist_dir_ = new std::string(testing::TempDir() + "/zeus_engine_plans");
    fs::remove_all(*persist_dir_);
    fs::create_directories(*persist_dir_);

    engine::QueryEngine::Options opts;
    opts.num_workers = 4;
    opts.planner = FastPlannerOptions();
    opts.cache.persist_dir = *persist_dir_;
    engine_ = new engine::QueryEngine(opts);
    ASSERT_TRUE(engine_->RegisterDataset("bdd", MakeDataset()).ok());

    // Serial sequential ground truth; the one planner run of the fixture.
    engine::ExecutionOptions seq;
    seq.executor = engine::ExecutorKind::kSequential;
    auto baseline = engine_->Execute("bdd", CrossRightQuery(), seq);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_GT(baseline.value().plan_seconds, 0.0);
    baseline_seq_ = new engine::QueryResult(baseline.value());

    // Same plan through the default (auto => batched) path.
    auto batched = engine_->Execute("bdd", CrossRightQuery());
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_EQ(batched.value().plan_seconds, 0.0);  // cached
    baseline_auto_ = new engine::QueryResult(batched.value());
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete baseline_seq_;
    delete baseline_auto_;
    delete persist_dir_;
    engine_ = nullptr;
    baseline_seq_ = nullptr;
    baseline_auto_ = nullptr;
    persist_dir_ = nullptr;
  }

  static std::string* persist_dir_;
  static engine::QueryEngine* engine_;
  static engine::QueryResult* baseline_seq_;
  static engine::QueryResult* baseline_auto_;
};

std::string* QueryEngineTest::persist_dir_ = nullptr;
engine::QueryEngine* QueryEngineTest::engine_ = nullptr;
engine::QueryResult* QueryEngineTest::baseline_seq_ = nullptr;
engine::QueryResult* QueryEngineTest::baseline_auto_ = nullptr;

TEST_F(QueryEngineTest, MultiVideoQueriesRouteThroughBatchedByDefault) {
  EXPECT_EQ(baseline_seq_->executor, "Zeus-RL");
  EXPECT_EQ(baseline_auto_->executor, "Zeus-RL-Batched");
  // Batching changes cost accounting only — identical localization.
  ExpectSameOutcome(*baseline_auto_, *baseline_seq_);
}

TEST_F(QueryEngineTest, SingleFlightPlansExactlyOnce) {
  // Fresh engine, no persistence: the key is cold, so the four concurrent
  // submissions race into the plan cache together.
  engine::QueryEngine::Options opts;
  opts.num_workers = 4;
  opts.planner = FastPlannerOptions();
  engine::QueryEngine fresh(opts);
  ASSERT_TRUE(fresh.RegisterDataset("bdd", MakeDataset()).ok());

  std::vector<engine::QueryTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = fresh.Submit("bdd", CrossRightQuery());
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    tickets.push_back(t.value());
  }
  int trained = 0;
  for (auto& t : tickets) {
    const auto& r = t.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(t.state(), engine::QueryState::kDone);
    EXPECT_EQ(t.progress(), 1.0);
    if (r.value().plan_seconds > 0.0) ++trained;
    ExpectSameOutcome(r.value(), *baseline_seq_);
  }
  // The planner ran once; exactly one ticket paid for it, the other three
  // joined the in-flight run (plan_seconds == 0).
  EXPECT_EQ(fresh.plan_cache().planner_runs(), 1);
  EXPECT_EQ(trained, 1);
}

TEST_F(QueryEngineTest, SingleFlightIsPerAccuracyBand) {
  // Two tiers on one dataset under a non-zero degrade level resolve to two
  // different accuracy bands (strict stays at 0.80, best-effort sheds one
  // band to 0.75), so the cache holds a cheap and a strict plan side by
  // side: exactly two planner runs, however many submissions race in.
  engine::QueryEngine::Options opts;
  opts.num_workers = 4;
  opts.planner = FastPlannerOptions();
  engine::QueryEngine fresh(opts);
  ASSERT_TRUE(fresh.RegisterDataset("bdd", MakeDataset()).ok());
  fresh.SetDegradeLevel(1);

  engine::ExecutionOptions strict;  // defaults: kStrict
  engine::ExecutionOptions cheap;
  cheap.tier = core::QueryTier::kBestEffort;

  std::vector<engine::QueryTicket> tickets;
  for (int i = 0; i < 2; ++i) {
    auto a = fresh.Submit("bdd", CrossRightQuery(0.8), strict);
    auto b = fresh.Submit("bdd", CrossRightQuery(0.8), cheap);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    tickets.push_back(a.value());
    tickets.push_back(b.value());
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    const auto& r = tickets[i].Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const bool is_strict = i % 2 == 0;
    EXPECT_EQ(r.value().tier, is_strict ? core::QueryTier::kStrict
                                        : core::QueryTier::kBestEffort);
    EXPECT_DOUBLE_EQ(r.value().accuracy_band, is_strict ? 0.80 : 0.75);
  }
  // One planner run per band; the strict band's plan is the same one the
  // fixture trained, so the strict answers match the serial baseline.
  EXPECT_EQ(fresh.plan_cache().planner_runs(), 2);
  ExpectSameOutcome(tickets[0].Wait().value(), *baseline_seq_);
  // Both best-effort tickets were served from the one cheap-band plan.
  ExpectSameOutcome(tickets[1].Wait().value(), tickets[3].Wait().value());
  // The shed answers are counted and annotated as degraded.
  EXPECT_EQ(fresh.Stats().band_degraded, 2);
}

TEST_F(QueryEngineTest, MixedKeyConcurrentSubmitsMatchSerialExecution) {
  // One cached key and one cold key in flight together with repeats.
  const core::ActionQuery warm = CrossRightQuery(0.8);
  const core::ActionQuery cold = CrossRightQuery(0.75);
  std::vector<engine::QueryTicket> tickets;
  for (int i = 0; i < 2; ++i) {
    auto a = engine_->Submit("bdd", warm);
    auto b = engine_->Submit("bdd", cold);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    tickets.push_back(a.value());
    tickets.push_back(b.value());
  }
  for (auto& t : tickets) ASSERT_TRUE(t.Wait().ok());

  // Serial references, now that every plan is cached.
  engine::ExecutionOptions seq;
  seq.executor = engine::ExecutorKind::kSequential;
  auto warm_ref = engine_->Execute("bdd", warm, seq);
  auto cold_ref = engine_->Execute("bdd", cold, seq);
  ASSERT_TRUE(warm_ref.ok());
  ASSERT_TRUE(cold_ref.ok());
  EXPECT_EQ(warm_ref.value().plan_seconds, 0.0);
  EXPECT_EQ(cold_ref.value().plan_seconds, 0.0);
  for (size_t i = 0; i < tickets.size(); ++i) {
    const auto& r = tickets[i].Wait();
    ExpectSameOutcome(r.value(),
                      i % 2 == 0 ? warm_ref.value() : cold_ref.value());
  }
}

TEST_F(QueryEngineTest, CancellationDropsQueuedQueries) {
  // Single worker, cold cache: the first ticket holds the worker inside
  // the planner for seconds, so the two behind it are reliably still
  // queued when cancelled.
  engine::QueryEngine::Options opts;
  opts.num_workers = 1;
  opts.max_pending = 2;
  opts.planner = FastPlannerOptions();
  engine::QueryEngine fresh(opts);
  ASSERT_TRUE(fresh.RegisterDataset("bdd", MakeDataset()).ok());

  auto running = fresh.Submit("bdd", CrossRightQuery());
  ASSERT_TRUE(running.ok());
  // Wait for the worker to claim the first ticket (it then holds the
  // worker inside the planner for seconds), so the queue below holds
  // exactly the two tickets we cancel.
  while (running.value().state() == engine::QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued1 = fresh.Submit("bdd", CrossRightQuery());
  auto queued2 = fresh.Submit("bdd", CrossRightQuery());
  ASSERT_TRUE(queued1.ok());
  ASSERT_TRUE(queued2.ok());
  queued1.value().Cancel();
  queued2.value().Cancel();

  // The queue is at max_pending, but both occupants are cancelled:
  // admission purges them instead of rejecting new work.
  auto after = fresh.Submit("bdd", CrossRightQuery());
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  const auto& first = running.value().Wait();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto& c1 = queued1.value().Wait();
  const auto& c2 = queued2.value().Wait();
  EXPECT_FALSE(c1.ok());
  EXPECT_FALSE(c2.ok());
  EXPECT_EQ(c1.status().code(), common::StatusCode::kCancelled);
  EXPECT_EQ(c2.status().code(), common::StatusCode::kCancelled);
  EXPECT_EQ(queued1.value().state(), engine::QueryState::kCancelled);
  EXPECT_TRUE(after.value().Wait().ok());
  // The cancelled tickets never planned or executed anything extra.
  EXPECT_EQ(fresh.plan_cache().planner_runs(), 1);
}

TEST_F(QueryEngineTest, AdmissionQueueBoundsPendingQueries) {
  engine::QueryEngine::Options opts;
  opts.num_workers = 1;
  opts.max_pending = 1;
  opts.planner = FastPlannerOptions();
  opts.cache.persist_dir = *persist_dir_;  // fast: plan loads from disk
  engine::QueryEngine fresh(opts);
  ASSERT_TRUE(fresh.RegisterDataset("bdd", MakeDataset()).ok());

  std::vector<engine::QueryTicket> admitted;
  int rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto t = fresh.Submit("bdd", CrossRightQuery());
    if (t.ok()) {
      admitted.push_back(t.value());
    } else {
      EXPECT_EQ(t.status().code(), common::StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  // With one worker and a queue bound of one, ten instant submissions
  // cannot all be admitted.
  EXPECT_GT(rejected, 0);
  for (auto& t : admitted) {
    const auto& r = t.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectSameOutcome(r.value(), *baseline_auto_);
  }
  EXPECT_EQ(fresh.plan_cache().planner_runs(), 0);  // disk hit
}

TEST_F(QueryEngineTest, PersistedPlanReloadsAfterRestartWithoutReplanning) {
  // "Engine restart": a brand-new engine pointed at the fixture's plan
  // directory serves the query without a planner run and with identical
  // results.
  engine::QueryEngine::Options opts;
  opts.planner = FastPlannerOptions();
  opts.cache.persist_dir = *persist_dir_;
  engine::QueryEngine restarted(opts);
  ASSERT_TRUE(restarted.RegisterDataset("bdd", MakeDataset()).ok());

  auto r = restarted.Execute("bdd", CrossRightQuery());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().plan_seconds, 0.0);
  EXPECT_EQ(restarted.plan_cache().planner_runs(), 0);
  EXPECT_GE(restarted.plan_cache().disk_loads(), 1);
  ExpectSameOutcome(r.value(), *baseline_auto_);
}

TEST(PlanBandTest, PersistedPlanMatchingQuantizesToAccuracyBands) {
  // Plan keys carry the target on the milli-accuracy grid (PlanKey's
  // %.3f), so a target with sub-band float noise must find its own plan
  // after a persist / warm-start round trip, and adjacent bands must not
  // alias onto it.
  const std::string dir = testing::TempDir() + "/zeus_engine_bands";
  fs::remove_all(dir);
  fs::create_directories(dir);
  engine::QueryEngine::Options opts;
  opts.planner = FastPlannerOptions();
  opts.cache.persist_dir = dir;
  {
    engine::QueryEngine trainer(opts);
    ASSERT_TRUE(trainer.RegisterDataset("bdd", MakeDataset()).ok());
    auto r = trainer.Execute("bdd", CrossRightQuery(0.8 + 1e-12));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(trainer.plan_cache().planner_runs(), 1);
  }

  engine::QueryEngine restarted(opts);
  ASSERT_TRUE(restarted.RegisterDataset("bdd", MakeDataset()).ok());
  ASSERT_EQ(restarted.WarmUpDataset("bdd"), 1u);
  for (double target : {0.8, 0.8 - 1e-12}) {
    auto r = restarted.Execute("bdd", CrossRightQuery(target));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().plan_seconds, 0.0) << target;
  }
  EXPECT_EQ(restarted.plan_cache().planner_runs(), 0);
  EXPECT_EQ(restarted.plan_cache().disk_loads(), 1);
  EXPECT_EQ(restarted.CachedPlan("bdd", CrossRightQuery(0.8)),
            restarted.CachedPlan("bdd", CrossRightQuery(0.8 - 1e-12)));

  // Adjacent bands, even one grid step away, key separately and are not
  // served by the warm plan.
  const std::string warm_key =
      engine::QueryEngine::PlanKey("bdd", CrossRightQuery(0.8));
  for (double target : {0.801, 0.85}) {
    EXPECT_NE(engine::QueryEngine::PlanKey("bdd", CrossRightQuery(target)),
              warm_key)
        << target;
    EXPECT_EQ(restarted.CachedPlan("bdd", CrossRightQuery(target)), nullptr)
        << target;
  }
  fs::remove_all(dir);
}

TEST_F(QueryEngineTest, LruEvictionFallsBackToDisk) {
  engine::QueryEngine::Options opts;
  opts.planner = FastPlannerOptions();
  opts.cache.capacity = 1;
  opts.cache.persist_dir = *persist_dir_;
  engine::QueryEngine small(opts);
  ASSERT_TRUE(small.RegisterDataset("bdd", MakeDataset()).ok());

  const core::ActionQuery a = CrossRightQuery(0.8);
  ASSERT_TRUE(small.Execute("bdd", a).ok());  // disk load of key A
  EXPECT_NE(small.CachedPlan("bdd", a), nullptr);

  // Key B (persisted by the mixed-key test, otherwise planned here) evicts
  // A from the capacity-1 cache.
  const core::ActionQuery b = CrossRightQuery(0.75);
  ASSERT_TRUE(small.Execute("bdd", b).ok());
  EXPECT_LE(small.plan_cache().size(), 1u);
  EXPECT_EQ(small.CachedPlan("bdd", a), nullptr);
  EXPECT_NE(small.CachedPlan("bdd", b), nullptr);

  // A comes back from disk, not from the planner, and still matches the
  // fixture baseline exactly.
  const long loads_before = small.plan_cache().disk_loads();
  auto again = small.Execute("bdd", a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().plan_seconds, 0.0);
  EXPECT_GT(small.plan_cache().disk_loads(), loads_before);
  ExpectSameOutcome(again.value(), *baseline_auto_);
}

TEST_F(QueryEngineTest, ExplainReportsChosenExecutor) {
  core::ActionQuery q = CrossRightQuery();
  q.explain_only = true;
  auto r = engine_->Execute("bdd", q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().explanation.find("executor: batched"), std::string::npos)
      << r.value().explanation;

  engine::ExecutionOptions seq;
  seq.executor = engine::ExecutorKind::kSequential;
  auto rs = engine_->Execute("bdd", q, seq);
  ASSERT_TRUE(rs.ok());
  EXPECT_NE(rs.value().explanation.find("executor: sequential"),
            std::string::npos)
      << rs.value().explanation;
}

TEST_F(QueryEngineTest, SubmitSurfacesParseAndRegistryErrorsSynchronously) {
  EXPECT_FALSE(engine_->Submit("nope", CrossRightQuery()).ok());
  EXPECT_FALSE(engine_->Submit("bdd", "not sql at all").ok());
}

TEST(ExecutorFactoryTest, ResolvesAutoByVideoCount) {
  engine::ExecutionOptions opts;
  EXPECT_EQ(engine::ExecutorFactory::Resolve(opts, 1),
            engine::ExecutorKind::kSequential);
  EXPECT_EQ(engine::ExecutorFactory::Resolve(opts, 8),
            engine::ExecutorKind::kBatched);
  opts.executor = engine::ExecutorKind::kSliding;
  EXPECT_EQ(engine::ExecutorFactory::Resolve(opts, 8),
            engine::ExecutorKind::kSliding);
}

TEST(ExecutorFactoryTest, ParsesKindNames) {
  bool ok = false;
  EXPECT_EQ(engine::ParseExecutorKind("Batched", &ok),
            engine::ExecutorKind::kBatched);
  EXPECT_TRUE(ok);
  EXPECT_EQ(engine::ParseExecutorKind("segment_pp", &ok),
            engine::ExecutorKind::kSegmentPp);
  EXPECT_TRUE(ok);
  engine::ParseExecutorKind("warp-drive", &ok);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace zeus
