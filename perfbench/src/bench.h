#ifndef ZEUS_PERFBENCH_BENCH_H_
#define ZEUS_PERFBENCH_BENCH_H_

// Shared pieces of the Zeus serving benchmark: command-line arguments, the
// corpus (datasets, planner settings and query mix), the run report, and
// the hooks each workload implements. See perfbench/README.md.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "cluster/protocol.h"
#include "core/query.h"
#include "core/query_planner.h"
#include "engine/engine_group.h"
#include "stats.h"
#include "video/dataset.h"

namespace zeus::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Datasets are generated from this seed, not from `seed`, so that answer
  // quality and modeled throughput compare across request streams.
  uint64_t corpus_seed = 17;
  std::string work_dir;  // scratch space (plan catalogs), removed by run.py
  std::string out_dir;   // result and span files
  std::string commit = "unknown";
};

// ---- Corpus ----------------------------------------------------------------

struct DatasetDef {
  std::string name;
  video::DatasetFamily family = video::DatasetFamily::kBdd100kLike;
  int videos = 0;
  int frames = 0;
};

cluster::DatasetSpec SpecFor(const DatasetDef& def, uint64_t corpus_seed);
// Generated exactly as a ShardServer generates it from SpecFor(def).
video::SyntheticDataset Generate(const DatasetDef& def, uint64_t corpus_seed);

// One query of a workload's mix. `plan` indexes the distinct plans
// (dataset, classes, accuracy band) the mix needs.
struct QueryVariant {
  std::string dataset;
  std::string sql;
  core::ActionQuery query;
  int plan = 0;
  // Index of the variant this one restricts (same plan, no BETWEEN/LIMIT),
  // -1 for an unrestricted variant.
  int base = -1;
};

// The three family datasets of the serving and planning workloads.
std::vector<DatasetDef> FamilyCorpus();
// The planner settings every workload plans with.
core::QueryPlanner::Options BenchPlanner();
// One query per dataset family (the plan-cold queries); the Thumos-like
// one is the multi-class IN query.
std::vector<QueryVariant> FamilyQueries();
// The serving mix: the three family queries, a second accuracy band on
// the IN query, and frame BETWEEN / LIMIT variants whose bounds are drawn
// from `seed`.
std::vector<QueryVariant> ServeMix(uint64_t seed);
// Indices of the unrestricted variants, one per distinct plan.
std::vector<int> PlanVariants(const std::vector<QueryVariant>& mix);

// EngineGroup options the workloads use. `catalog` is the plan persist
// directory ("" = memory only); `workers` is capped at the CPU count.
engine::EngineGroup::Options GroupOptions(const std::string& catalog,
                                          bool warm_start, int workers = 4);

// The videos an answer over `dataset` is computed on (its test split).
std::vector<const video::Video*> TestVideos(const video::SyntheticDataset& ds);

// ---- Report ------------------------------------------------------------------

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void Metric(const std::string& name, double value, const std::string& unit);
  // A tail percentile, kept in the result file but not printed: over ten
  // runs on a 4-vCPU VM the p90/p99 tails spread past the largest bound a
  // printed metric may have (README, "End-to-end metrics").
  void Tail(const std::string& name, double value);
  // A reported end-to-end metric's value (0 when not reported yet).
  double Value(const std::string& name) const;
  // Per-layer metrics are only printed by the traced run.
  void Layer(const std::string& name, double value, const std::string& unit);
  // Free-form detail for the result file (a JSON value).
  void Detail(const std::string& key, const std::string& json_value);
  void DetailSummary(const std::string& key, const Summary& s);

  // A failed correctness check: the run reports correct=false and exits
  // non-zero.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  // Checks one answer with the independent checker and pools its counts
  // into answer_f1 (and its modeled cost into modeled_fps).
  void CheckAndPool(const std::vector<const video::Video*>& videos,
                    const VideoPositions& positions,
                    const core::ActionQuery& query,
                    const engine::QueryResult& r, const std::string& what);
  // Pools an answer already checked (or equal to one that was).
  void Pool(const CheckReport& c, const engine::QueryResult& r);
  double pooled_f1() const { return pooled_.F1(); }
  double modeled_fps() const;

  Accounting& accounting() { return acct_; }
  const Args& args() const { return args_; }

  // Prints the final JSON line and writes the result file. Returns the
  // process exit code: 0 only when every check passed, no operation failed
  // and at least one was attempted.
  int Finish();

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  Args args_;
  std::map<std::string, Entry> metrics_;
  std::map<std::string, Entry> layers_;
  std::vector<std::pair<std::string, std::string>> details_;
  Accounting acct_;
  bool correct_ = true;
  std::vector<std::string> check_failures_;
  SegmentCounts pooled_;
  double frames_ = 0.0;
  double gpu_seconds_ = 0.0;
};

// ---- Workloads -------------------------------------------------------------

// Every workload prints all end-to-end metrics into `report`; with
// args.trace it additionally measures once more with tracing on, replays
// the layer calls and reports the per-layer metrics.
void RunServeWarm(Report* report);
void RunServeRouted(Report* report);
void RunStreamIngest(Report* report);
void RunPlanCold(Report* report);

// The BatchedExecutor answer must equal the sequential QueryExecutor
// reference on the same plan and videos.
void CheckExecutorsAgree(const core::QueryPlan& plan,
                         const std::vector<const video::Video*>& videos,
                         const std::string& what, Report* report);

// Peak resident set size of this process in MiB.
double PeakRssMiB();

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_BENCH_H_
