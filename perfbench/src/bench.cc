#include "bench.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "core/batched_executor.h"
#include "core/executor.h"
#include "common/stringutil.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"

namespace zeus::perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  return common::Format("%.9g", v);
}

std::string CpuFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void WriteValues(std::ostringstream& os,
                 const std::map<std::string, std::pair<double, std::string>>&
                     values) {
  os << "{";
  bool first = true;
  for (const auto& [name, v] : values) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << Num(v.first) << ", \"unit\": \"" << v.second << "\"}";
    first = false;
  }
  os << "}";
}

}  // namespace

cluster::DatasetSpec SpecFor(const DatasetDef& def, uint64_t corpus_seed) {
  cluster::DatasetSpec spec;
  spec.name = def.name;
  spec.family = def.family;
  spec.seed = corpus_seed;
  spec.num_videos = static_cast<uint32_t>(def.videos);
  spec.frames_per_video = static_cast<uint32_t>(def.frames);
  return spec;
}

video::SyntheticDataset Generate(const DatasetDef& def, uint64_t corpus_seed) {
  const cluster::DatasetSpec spec = SpecFor(def, corpus_seed);
  return video::SyntheticDataset::Generate(cluster::ProfileFor(spec),
                                           spec.seed);
}

std::vector<DatasetDef> FamilyCorpus() {
  // The reduced Figure 8 sizes (bench_fig8_end_to_end --reduced).
  return {{"bdd", video::DatasetFamily::kBdd100kLike, 24, 250},
          {"thumos", video::DatasetFamily::kThumos14Like, 14, 250},
          {"anet", video::DatasetFamily::kActivityNetLike, 14, 250}};
}

core::QueryPlanner::Options BenchPlanner() {
  // The reduced Figure 8 planner settings.
  core::QueryPlanner::Options opts;
  opts.seed = 17;
  opts.apfg.epochs = 6;
  opts.profile.max_windows_per_config = 100;
  opts.trainer.episodes = 6;
  return opts;
}

namespace {

QueryVariant MakeVariant(const std::string& dataset, const std::string& sql,
                         int plan, int base) {
  QueryVariant v;
  v.dataset = dataset;
  v.sql = sql;
  auto parsed = core::QueryParser::Parse(sql);
  ZEUS_CHECK(parsed.ok());
  v.query = parsed.value();
  v.plan = plan;
  v.base = base;
  return v;
}

constexpr char kSelect[] = "SELECT segment_ids FROM UDF(video) WHERE ";
constexpr char kThumosIn[] =
    "action_class IN ('pole-vault', 'clean-and-jerk')";

}  // namespace

std::vector<QueryVariant> FamilyQueries() {
  const std::string s = kSelect;
  return {
      MakeVariant("bdd", s + "action_class = 'cross-right' AND accuracy >= 85%",
                  0, -1),
      MakeVariant("thumos", s + kThumosIn + " AND accuracy >= 75%", 1, -1),
      MakeVariant("anet",
                  s + "action_class = 'ironing-clothes' AND accuracy >= 75%", 2,
                  -1),
  };
}

std::vector<QueryVariant> ServeMix(uint64_t seed) {
  std::vector<QueryVariant> mix = FamilyQueries();
  const std::string s = kSelect;
  const std::string in75 = s + kThumosIn + " AND accuracy >= 75%";
  // A second accuracy band on one dataset.
  mix.push_back(
      MakeVariant("thumos", s + kThumosIn + " AND accuracy >= 85%", 3, -1));
  // Seeded frame-range and result-cap variants.
  common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const int b0 = rng.NextInt(0, 100);
  const int e0 = b0 + rng.NextInt(60, 140);
  mix.push_back(MakeVariant(
      "bdd",
      s + "action_class = 'cross-right' AND accuracy >= 85% AND frame BETWEEN " +
          std::to_string(b0) + " AND " + std::to_string(e0),
      0, 0));
  mix.push_back(MakeVariant(
      "thumos", in75 + " LIMIT " + std::to_string(rng.NextInt(1, 4)), 1, 1));
  const int b1 = rng.NextInt(0, 120);
  const int e1 = b1 + rng.NextInt(60, 120);
  mix.push_back(MakeVariant(
      "thumos",
      in75 + " AND frame BETWEEN " + std::to_string(b1) + " AND " +
          std::to_string(e1) + " LIMIT " + std::to_string(rng.NextInt(1, 3)),
      1, 1));
  return mix;
}

std::vector<int> PlanVariants(const std::vector<QueryVariant>& mix) {
  std::vector<int> out;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (mix[i].base < 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

engine::EngineGroup::Options GroupOptions(const std::string& catalog,
                                          bool warm_start, int workers) {
  engine::EngineGroup::Options opts;
  opts.num_shards = 1;
  opts.engine.num_workers = std::max(
      1, std::min(workers, static_cast<int>(std::thread::hardware_concurrency())));
  // Admission never refuses at the benchmark's offered load; a refusal
  // would still be counted as a failed operation.
  opts.engine.max_pending = 4096;
  opts.engine.planner = BenchPlanner();
  opts.engine.cache.capacity = 16;
  opts.engine.cache.persist_dir = catalog;
  opts.engine.cache.warm_start = warm_start;
  return opts;
}

std::vector<const video::Video*> TestVideos(const video::SyntheticDataset& ds) {
  std::vector<const video::Video*> out;
  for (int i : ds.test_indices()) out.push_back(&ds.video(static_cast<size_t>(i)));
  return out;
}

// ---- Report ------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Tail(const std::string& name, double value) {
  Detail(name + "_tail", Num(value));
}

double Report::Value(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

void Report::Detail(const std::string& key, const std::string& json_value) {
  details_.push_back({key, json_value});
}

void Report::DetailSummary(const std::string& key, const Summary& s) {
  Detail(key, common::Format(
                  "{\"n\": %zu, \"median\": %s, \"q1\": %s, \"q3\": %s, "
                  "\"tail_pct\": %s, \"tail\": %s, \"max\": %s}",
                  s.n, Num(s.median).c_str(), Num(s.q1).c_str(),
                  Num(s.q3).c_str(), Num(s.tail_pct).c_str(),
                  Num(s.tail).c_str(), Num(s.max).c_str()));
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (check_failures_.size() < 20) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  correct_ = false;
  check_failures_.push_back(what);
}

void Report::CheckAndPool(const std::vector<const video::Video*>& videos,
                          const VideoPositions& positions,
                          const core::ActionQuery& query,
                          const engine::QueryResult& r,
                          const std::string& what) {
  const CheckReport c = CheckAnswer(videos, positions, query, r);
  Check(c.ok, what + ": " + c.error);
  Pool(c, r);
}

void Report::Pool(const CheckReport& c, const engine::QueryResult& r) {
  if (c.ok && c.pooled) pooled_.Add(c.counts);
  if (r.gpu_seconds > 0.0) {
    frames_ += r.throughput_fps * r.gpu_seconds;
    gpu_seconds_ += r.gpu_seconds;
  }
}

double Report::modeled_fps() const {
  return gpu_seconds_ > 0.0 ? frames_ / gpu_seconds_ : 0.0;
}

int Report::Finish() {
  // A failed operation fails the run as a failed check does.
  const bool correct = correct_ && acct_.failed() == 0;
  std::map<std::string, std::pair<double, std::string>> metrics, layers;
  for (const auto& [k, v] : metrics_) metrics[k] = {v.value, v.unit};
  for (const auto& [k, v] : layers_) layers[k] = {v.value, v.unit};

  std::ostringstream file;
  file << "{\n  \"workload\": \"" << args_.workload << "\",\n"
       << "  \"seed\": " << args_.seed << ",\n"
       << "  \"corpus_seed\": " << args_.corpus_seed << ",\n"
       << "  \"seconds\": " << args_.seconds << ",\n"
       << "  \"trace\": " << (args_.trace ? 1 : 0) << ",\n"
       << "  \"provenance\": {\"commit\": \"" << JsonEscape(args_.commit)
       << "\", \"compiler\": \"" << JsonEscape(__VERSION__)
       << "\", \"cpu_flags\": \"" << JsonEscape(CpuFlags())
       << "\", \"gemm_isa\": \""
       << tensor::GemmIsaName(tensor::ResolveGemmIsa(tensor::GemmIsa::kAuto))
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compute_pool_threads\": "
       << (tensor::DefaultComputePool() != nullptr
               ? tensor::DefaultComputePool()->num_threads()
               : 1)
       << "},\n  \"correct\": " << (correct ? "true" : "false")
       << ",\n  \"attempted\": " << acct_.attempted()
       << ",\n  \"failed\": " << acct_.failed() << ",\n  \"phases\": {";
  bool first = true;
  for (const auto& [phase, c] : acct_.phases()) {
    file << (first ? "" : ", ") << "\"" << phase << "\": {\"attempted\": "
         << c.attempted << ", \"failed\": " << c.failed
         << ", \"missed_limit\": " << c.missed_limit << "}";
    first = false;
  }
  file << "},\n  \"failure_reasons\": {";
  first = true;
  for (const auto& [why, n] : acct_.reasons()) {
    file << (first ? "" : ", ") << "\"" << JsonEscape(why) << "\": " << n;
    first = false;
  }
  file << "},\n  \"check_failures\": [";
  for (size_t i = 0; i < check_failures_.size() && i < 50; ++i) {
    file << (i ? ", " : "") << "\"" << JsonEscape(check_failures_[i]) << "\"";
  }
  file << "],\n  \"metrics\": ";
  std::ostringstream m;
  WriteValues(m, metrics);
  file << m.str() << ",\n  \"per_layer\": ";
  std::ostringstream l;
  WriteValues(l, layers);
  file << l.str() << ",\n  \"details\": {";
  for (size_t i = 0; i < details_.size(); ++i) {
    file << (i ? ",\n    " : "\n    ") << "\"" << details_[i].first
         << "\": " << details_[i].second;
  }
  file << "\n  }\n}\n";

  if (!args_.out_dir.empty()) {
    const std::string path =
        common::Format("%s/%s-seed%llu-trace%d.json", args_.out_dir.c_str(),
                       args_.workload.c_str(),
                       static_cast<unsigned long long>(args_.seed),
                       args_.trace ? 1 : 0);
    std::ofstream out(path);
    out << file.str();
    if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << acct_.attempted()
       << ", \"failed\": " << acct_.failed() << ", \"metrics\": ";
  WriteValues(line, args_.trace ? layers : metrics);
  line << "}";
  std::fflush(stderr);
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct && acct_.attempted() > 0 ? 0 : 1;
}

void CheckExecutorsAgree(const core::QueryPlan& plan,
                         const std::vector<const video::Video*>& videos,
                         const std::string& what, Report* report) {
  const core::RunResult batched = core::BatchedExecutor(&plan).Localize(videos);
  const core::RunResult sequential = core::QueryExecutor(&plan).Localize(videos);
  report->Check(batched.masks == sequential.masks,
                what + ": BatchedExecutor differs from QueryExecutor");
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace zeus::perfbench
