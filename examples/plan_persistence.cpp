// Plan persistence: the train-once / deploy-many workflow through the
// engine's persistent PlanCache.
//
// A Zeus deployment trains a plan (APFG fine-tune + configuration
// profiling + DQN) once per (dataset, query, accuracy target) and then
// serves queries from the checkpoint. The plan is the only durable state:
// datasets are rebuilt from their recipe (profile + seed). This example
// walks the full path:
//   1. generate a dataset and run the query on an engine whose PlanCache
//      persists to a plan directory — the cache trains the plan and
//      checkpoints it via PlanIo,
//   2. simulate a fresh process: a new engine pointed at the same plan
//      directory loads the plan from disk and serves the query with
//      plan_seconds == 0 (no re-training) and identical results.
//
// The exit code is the round-trip check: 0 when the restarted engine
// served bit-identical segments without planning.

#include <cstdio>
#include <filesystem>

#include "engine/query_engine.h"
#include "video/dataset.h"

namespace {

zeus::engine::QueryEngine::Options EngineOptions(const std::string& plan_dir) {
  zeus::engine::QueryEngine::Options opts;
  opts.planner.apfg.epochs = 12;
  opts.planner.profile.max_windows_per_config = 200;
  opts.planner.trainer.episodes = 10;
  opts.cache.persist_dir = plan_dir;
  return opts;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  using zeus::video::ActionClass;
  using zeus::video::DatasetFamily;
  using zeus::video::DatasetProfile;
  using zeus::video::SyntheticDataset;

  const std::string root = fs::temp_directory_path() / "zeus_deployment";
  const std::string plan_dir = root + "/plans";
  fs::remove_all(root);
  fs::create_directories(plan_dir);

  // --- Train-time process -------------------------------------------------
  DatasetProfile profile =
      DatasetProfile::ForFamily(DatasetFamily::kBdd100kLike);
  profile.num_videos = 28;
  profile.frames_per_video = 400;
  profile.action_fraction = 0.12;  // denser: keeps the demo's test split
                                   // populated with action instances
  auto dataset = SyntheticDataset::Generate(profile, 17);
  // The restarted engine gets a copy rather than a regenerated dataset:
  // video ids are process-global, so a second Generate in this process
  // would hand out new ids and the segment comparison would not line up.
  SyntheticDataset restart_copy = dataset;

  zeus::core::ActionQuery query;
  query.action_classes = {ActionClass::kCrossRight};
  query.accuracy_target = 0.85;

  zeus::engine::QueryEngine trainer(EngineOptions(plan_dir));
  if (!trainer.RegisterDataset("bdd", std::move(dataset)).ok()) return 1;
  auto first = trainer.Execute("bdd", query);
  if (!first.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 first.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "plan trained in %.1f s and checkpointed to %s; executed via %s: "
      "F1=%.3f, %zu segment(s)\n",
      first.value().plan_seconds, plan_dir.c_str(),
      first.value().executor.c_str(), first.value().metrics.f1,
      first.value().segments.size());

  // --- Serving-time process (fresh state, no training) --------------------
  std::printf("\n--- simulated restart: serving from the plan directory ---\n");
  zeus::engine::QueryEngine server(EngineOptions(plan_dir));
  if (!server.RegisterDataset("bdd", std::move(restart_copy)).ok()) return 1;
  auto second = server.Execute("bdd", query);
  if (!second.ok()) {
    std::fprintf(stderr, "post-restart query failed: %s\n",
                 second.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "post-restart execution: F1=%.3f, %zu segment(s), plan_seconds=%.1f "
      "(planner runs: %ld, disk loads: %ld)\n",
      second.value().metrics.f1, second.value().segments.size(),
      second.value().plan_seconds, server.plan_cache().planner_runs(),
      server.plan_cache().disk_loads());

  bool identical =
      second.value().plan_seconds == 0.0 &&
      server.plan_cache().planner_runs() == 0 &&
      server.plan_cache().disk_loads() == 1 &&
      zeus::engine::SameSegments(second.value(), first.value()) &&
      second.value().metrics.tp == first.value().metrics.tp &&
      second.value().metrics.fp == first.value().metrics.fp;
  std::printf("checkpoint round-trip is %s — no re-training needed.\n",
              identical ? "bit-identical" : "NOT identical (bug!)");
  return identical ? 0 : 1;
}
