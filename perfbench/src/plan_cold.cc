// plan-cold: one query per dataset family planned from scratch, one after
// another, each plan then answering once. A run is a sequence of whole
// rounds, each on a fresh memory-only engine.

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "common/thread_pool.h"
#include "layers.h"
#include "tensor/gemm.h"
#include "trace.h"

namespace zeus::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

constexpr int kSetups = 3;
// Rounds a run makes at least: a round takes about as long as a 10 s run,
// and a run of one round or of two would report a median of one planner
// run per query or of two.
constexpr int kMinRounds = 2;

struct ColdSamples {
  std::vector<double> round_plan_s;  // mean planner run per round
  std::vector<double> plan_s, query_ms, answer_ms;
  double query_seconds = 0.0;
  long queries = 0;
  long rounds = 0;
};

struct ColdState {
  std::vector<DatasetDef> defs;
  std::vector<QueryVariant> queries;
  std::vector<video::SyntheticDataset> data;  // parallel to defs
  std::map<std::string, engine::QueryResult> first_answer;  // by SQL
  // The engines register copies of `data`, which keep its video ids.
  VideoPositions positions;
  double corpus_frames = 0.0;
};

const video::SyntheticDataset& DataOf(const ColdState& st,
                                      const std::string& name) {
  for (size_t i = 0; i < st.defs.size(); ++i) {
    if (st.defs[i].name == name) return st.data[i];
  }
  ZEUS_CHECK(false);
  return st.data.front();
}

void RunRound(ColdState* st, const Args& args, Report* report,
              ColdSamples* out, std::unique_ptr<engine::EngineGroup>* keep) {
  Accounting& acct = report->accounting();
  // The previous round's engine goes first, so that every round has the
  // same memory peak.
  if (keep != nullptr) keep->reset();
  auto group = std::make_unique<engine::EngineGroup>(GroupOptions("", false));
  for (size_t i = 0; i < st->defs.size(); ++i) {
    report->Check(group->RegisterDataset(st->defs[i].name, st->data[i]).ok(),
                  "register " + st->defs[i].name);
  }
  // The seed orders the queries of every round.
  std::vector<size_t> order(st->queries.size());
  std::iota(order.begin(), order.end(), 0);
  common::Rng rng(args.seed * 40503ULL + static_cast<uint64_t>(out->rounds));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[size_t(rng.NextInt(0, int(i) - 1))]);
  }
  double round_plan = 0.0;
  for (size_t qi : order) {
    const QueryVariant& q = st->queries[qi];
    acct.Attempt("cold-query");
    const auto t0 = Clock::now();
    auto r = [&] {
      ScopedSpan s("engine.execute");
      return group->Execute(q.dataset, q.query);
    }();
    const double seconds = Seconds(Clock::now() - t0);
    if (!r.ok()) {
      acct.Fail("cold-query", r.status().ToString());
      continue;
    }
    const engine::QueryResult& res = r.value();
    report->Check(res.plan_seconds > 0.0, "cold query did not plan: " + q.sql);
    report->CheckAndPool(TestVideos(DataOf(*st, q.dataset)), st->positions,
                         q.query, res, q.sql);
    auto [it, fresh] = st->first_answer.emplace(q.sql, res);
    report->Check(fresh || SameAnswer(it->second, res, st->positions),
                  "a replanned query answered differently: " + q.sql);
    // Asked again, the query is answered from the plan cache, identically.
    acct.Attempt("repeat-query");
    auto again = group->Execute(q.dataset, q.query);
    if (!again.ok()) {
      acct.Fail("repeat-query", again.status().ToString());
    } else {
      report->Check(again.value().plan_seconds == 0.0 &&
                        SameAnswer(res, again.value(), st->positions),
                    "a repeated query answered differently: " + q.sql);
    }
    out->plan_s.push_back(res.plan_seconds);
    out->query_ms.push_back(seconds * 1e3);
    out->answer_ms.push_back((seconds - res.plan_seconds) * 1e3);
    out->query_seconds += seconds;
    round_plan += res.plan_seconds;
    ++out->queries;
  }
  report->Check(group->planner_runs() == static_cast<long>(st->queries.size()),
                common::Format("planner_runs %ld != %zu planned queries",
                               group->planner_runs(), st->queries.size()));
  out->round_plan_s.push_back(round_plan / double(st->queries.size()));
  ++out->rounds;
  if (keep != nullptr) *keep = std::move(group);
}

// One planner run of `q` on a fresh memory-only group with `pool` as the
// process's compute pool (nullptr = serial), in seconds.
double PlanWithPool(const ColdState& st, const QueryVariant& q,
                    common::ThreadPool* pool, Report* report) {
  tensor::ComputeContext& ctx = tensor::GlobalComputeContext();
  common::ThreadPool* const saved = ctx.pool;
  ctx.pool = pool;
  engine::EngineGroup group(GroupOptions("", false));
  report->Check(group.RegisterDataset(q.dataset, DataOf(st, q.dataset)).ok(),
                "register " + q.dataset);
  auto r = group.Execute(q.dataset, q.query);
  ctx.pool = saved;
  report->Check(r.ok() && r.value().plan_seconds > 0.0,
                "thread-scaling planner run: " + q.sql);
  return r.ok() ? r.value().plan_seconds : 0.0;
}

ColdSamples Measure(ColdState* st, const Args& args, Report* report,
                    std::unique_ptr<engine::EngineGroup>* keep) {
  ColdSamples out;
  const auto start = Clock::now();
  do {
    RunRound(st, args, report, &out, keep);
  } while (out.rounds < kMinRounds ||
           Seconds(Clock::now() - start) < args.seconds);
  return out;
}

}  // namespace

void RunPlanCold(Report* report) {
  const Args& args = report->args();
  ColdState st;
  st.defs = FamilyCorpus();
  st.queries = FamilyQueries();

  // Set-up: generate the corpus, three times.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    st.data.clear();
    const auto t0 = Clock::now();
    for (const DatasetDef& d : st.defs) {
      ScopedSpan s("video.generate");
      st.data.push_back(Generate(d, args.corpus_seed));
    }
    setups.push_back(Seconds(Clock::now() - t0));
  }
  for (const video::SyntheticDataset& ds : st.data) {
    AddPositions(ds, &st.positions);
    for (const video::Video& v : ds.videos()) st.corpus_frames += v.num_frames();
  }

  std::unique_ptr<engine::EngineGroup> last;
  ColdSamples m = Measure(&st, args, report, &last);
  // The last round's plans: the batched executor equals the sequential one.
  std::vector<std::shared_ptr<core::QueryPlan>> plans;
  for (const QueryVariant& q : st.queries) {
    plans.push_back(last->CachedPlan(q.dataset, q.query));
    report->Check(plans.back() != nullptr, "cold plan cached: " + q.sql);
    if (plans.back() != nullptr) {
      CheckExecutorsAgree(*plans.back(), TestVideos(DataOf(st, q.dataset)),
                          q.sql, report);
    }
  }

  report->Metric("setup_s", Percentile(setups, 50), "s");
  report->Metric("plan_s", Percentile(m.round_plan_s, 50), "s");
  report->Metric("queries_per_s", m.queries / m.query_seconds, "1/s");
  report->Metric("query_p50_ms", Percentile(m.query_ms, 50), "ms");
  report->Tail("query_p99_ms", Percentile(m.query_ms, 99));
  // The plan-cache update: one planner run. The first answer after it
  // (three samples of a few milliseconds) spread 0.8 over ten runs; it is
  // kept in the result file as answer_ms.
  std::vector<double> plan_ms;
  for (double s : m.plan_s) plan_ms.push_back(s * 1e3);
  report->Metric("update_p50_ms", Percentile(plan_ms, 50), "ms");
  report->Tail("update_p90_ms", Percentile(m.answer_ms, 90));
  report->Metric("ingest_fps",
                 st.corpus_frames * double(m.rounds) / m.query_seconds,
                 "frames/s");
  report->Metric("answer_f1", report->pooled_f1(), "ratio");
  report->Metric("modeled_fps", report->modeled_fps(), "frames/s");
  report->DetailSummary("setup_s", Summarize(setups));
  report->DetailSummary("plan_s_per_run", Summarize(m.plan_s));
  report->DetailSummary("cold_query_ms", Summarize(m.query_ms));
  report->DetailSummary("answer_ms", Summarize(m.answer_ms));
  report->Detail("rounds", std::to_string(m.rounds));
  std::string per_query = "{";
  for (const QueryVariant& q : st.queries) {
    const engine::QueryResult& r = st.first_answer[q.sql];
    per_query += common::Format(
        "%s\"%s\": {\"f1\": %.4f, \"segments\": %zu, \"modeled_fps\": %.1f}",
        per_query.size() > 1 ? ", " : "", q.sql.c_str(),
        CheckAnswer(TestVideos(DataOf(st, q.dataset)), st.positions, q.query, r)
            .counts.F1(),
        r.segments.size(), r.throughput_fps);
  }
  report->Detail("per_query", per_query + "}");

  if (!args.trace) {
    report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }
  Tracer::Get().Enable(true);
  ColdSamples traced = Measure(&st, args, report, nullptr);
  const engine::GroupStats stats = last->Stats(false);
  report->Layer("engine.planner_runs",
                double(last->planner_runs()), "count");
  report->Layer("engine.plan_cache_hits", double(stats.cache_hits), "count");
  report->Layer("engine.disk_loads", double(last->disk_loads()), "count");
  {
    const auto t0 = Clock::now();
    for (const DatasetDef& d : st.defs) {
      ScopedSpan s("video.generate");
      Generate(d, args.corpus_seed);
    }
    report->Layer("video.generate_s", Seconds(Clock::now() - t0), "s");
  }
  report->Layer("engine.execute_ms", Percentile(m.query_ms, 50), "ms");
  report->Layer("core.localize_ms", Percentile(m.answer_ms, 50), "ms");
  for (const char* zero :
       {"engine.overhead_ms", "engine.window_run_ms", "engine.stream_dropped",
        "video.append_ms", "load.send_lag_p99_ms", "cluster.shard_direct_ms",
        "cluster.router_hop_ms", "cluster.read_failovers",
        "cluster.certain_answers"}) {
    const std::string n = zero;
    report->Layer(n, 0.0, n.find("_ms") != std::string::npos ? "ms" : "count");
  }
  report->Layer("apfg.feature_hits", double(stats.feature_hits), "count");
  report->Layer("apfg.feature_misses", double(stats.feature_misses), "count");
  report->Layer("apfg.feature_hit_ratio",
                stats.feature_hits + stats.feature_misses > 0
                    ? double(stats.feature_hits) /
                          double(stats.feature_hits + stats.feature_misses)
                    : 0.0,
                "ratio");
  LayerInputs in;
  for (size_t i = 0; i < st.queries.size(); ++i) {
    if (plans[i] == nullptr) continue;
    in.plans.push_back(plans[i]);
    in.videos.push_back(TestVideos(DataOf(st, st.queries[i].dataset)));
  }
  in.sample = st.first_answer[st.queries.front().sql];
  in.trained = in.plans;
  ReplayLayers(in, report);
  {
    // Thread scaling of planning: the Thumos-like query planned serially
    // and with a pool of one thread per CPU (README, "Compute pool").
    const QueryVariant& q = st.queries[1];
    const double serial_s = PlanWithPool(st, q, nullptr, report);
    common::ThreadPool pool(
        std::max(2, static_cast<int>(std::thread::hardware_concurrency())));
    const double pooled_s = PlanWithPool(st, q, &pool, report);
    report->Layer("core.plan_serial_s", serial_s, "s");
    report->Layer("core.plan_pooled_s", pooled_s, "s");
    report->Layer("core.plan_thread_speedup",
                  pooled_s > 0.0 ? serial_s / pooled_s : 0.0, "ratio");
  }
  Tracer::Get().Enable(false);
  ReportTrace(report->Value("plan_s"), Percentile(traced.round_plan_s, 50),
              report);
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace zeus::perfbench
