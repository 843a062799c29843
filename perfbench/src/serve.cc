// serve-warm and serve-routed: the serving mix answered from trained plans,
// in process through EngineGroup::Submit, or over TCP through a Router in
// front of three replicated ShardServers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "cluster/remote_shard.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "layers.h"
#include "serving.h"
#include "trace.h"

namespace zeus::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Open-loop phase: a seeded Poisson arrival schedule at a fixed rate, a few
// percent of the closed-loop capacity on a 4-core VM, with ten samples
// beyond p99.
constexpr double kOpenRatePerS = 200.0;
constexpr int kOpenRequests = 1000;
// A request slower than this misses the open-loop latency limit.
constexpr double kLatencyLimitMs = 100.0;
// Client threads of the closed loops (and the open loop's waiters + sender).
constexpr int kClients = 4;
// Tickets each in-process closed-loop client keeps outstanding: enough to
// keep every engine worker busy, so capacity is not set by how fast an
// idle thread wakes up.
constexpr int kWindow = 4;
constexpr int kSetups = 3;
// Served test videos are grown to this many frames by appending stream
// blocks after registration (only the test split grows; plans trained on
// the train split stay valid). Each answer then localizes ~7x the frames of
// the generated split, so its latency is set by the work it does rather
// than by thread wake-ups, which on a 4-vCPU VM vary several-fold from run
// to run.
constexpr long kServedBlocks = 24;
long ServedFrames(const DatasetDef& d) {
  return d.frames + kServedBlocks * video::SyntheticDataset::kStreamBlockFrames;
}

// Compact() drops an Answer's result when it equals the variant's
// reference answer, whose checks then stand for it, and keeps the fields
// the checks and metrics read; a differing answer is kept whole.

// Everything the serving workloads share: the corpus, the benchmark's own
// copies of the datasets (for the checker), the plan catalog, and the
// reference answer of every variant.
struct ServeState {
  std::vector<DatasetDef> defs;
  std::vector<QueryVariant> mix;
  std::map<std::string, std::shared_ptr<video::SyntheticDataset>> data;
  std::string catalog;
  std::vector<engine::QueryResult> reference;
  std::vector<double> plan_seconds;
  // The plans as trained (for their planner phase times).
  std::vector<std::shared_ptr<core::QueryPlan>> trained;
  // Video positions of every copy of each dataset the benchmark has seen.
  std::map<std::string, VideoPositions> positions;

  // Records the video ids of an engine's copy of `dataset`.
  void Learn(const std::string& dataset, const video::SyntheticDataset* copy) {
    if (copy != nullptr) AddPositions(*copy, &positions[dataset]);
  }
};

std::vector<const video::Video*> VideosOf(const ServeState& st,
                                          const std::string& dataset) {
  return TestVideos(*st.data.at(dataset));
}

// The answer a restricted variant must give: its base answer's segments
// that intersect the frame range, cut at the limit.
std::vector<engine::QueryResult::Segment> Restrict(
    const engine::QueryResult& base, const core::ActionQuery& q) {
  std::vector<engine::QueryResult::Segment> out;
  const int end = q.frame_end < 0 ? (1 << 30) : q.frame_end;
  for (const auto& s : base.segments) {
    if (s.end <= q.frame_begin || s.start >= end) continue;
    if (q.limit >= 0 && static_cast<int>(out.size()) >= q.limit) break;
    out.push_back(s);
  }
  return out;
}

// Trains every plan of the mix into the catalog (concurrently, one Submit
// per plan) and records the reference answer of every variant.
void Prepare(Report* report, ServeState* st) {
  const Args& args = report->args();
  st->defs = FamilyCorpus();
  st->mix = ServeMix(args.seed);
  st->catalog = args.work_dir + "/catalog";
  std::filesystem::create_directories(st->catalog);
  for (const DatasetDef& d : st->defs) {
    st->data[d.name] = std::make_shared<video::SyntheticDataset>(
        Generate(d, args.corpus_seed));
    report->Check(st->data[d.name]->GrowTo(ServedFrames(d), 1).ok(),
                  "grow " + d.name);
    st->Learn(d.name, st->data[d.name].get());
  }

  engine::EngineGroup trainer(GroupOptions(st->catalog, false));
  for (const DatasetDef& d : st->defs) {
    report->Check(trainer.RegisterDataset(d.name, Generate(d, args.corpus_seed)).ok(),
                  "register " + d.name);
    report->Check(trainer.GrowDataset(d.name, ServedFrames(d), 1).ok(),
                  "grow " + d.name);
    st->Learn(d.name, trainer.dataset(d.name));
  }
  const std::vector<int> plans = PlanVariants(st->mix);
  std::vector<engine::QueryTicket> tickets;
  for (int v : plans) {
    auto t = trainer.Submit(st->mix[v].dataset, st->mix[v].query);
    report->Check(t.ok(), "plan submit: " + st->mix[v].sql);
    if (t.ok()) tickets.push_back(t.value());
  }
  for (const engine::QueryTicket& t : tickets) {
    const auto& r = t.Wait();
    report->Check(r.ok() && r.value().plan_seconds > 0.0,
                  "planning run: " + (r.ok() ? std::string("no planner run")
                                             : r.status().ToString()));
    if (r.ok()) st->plan_seconds.push_back(r.value().plan_seconds);
  }
  report->Check(trainer.planner_runs() == static_cast<long>(plans.size()),
                common::Format("planner_runs %ld != %zu planned queries",
                               trainer.planner_runs(), plans.size()));
  for (const QueryVariant& v : st->mix) {
    auto r = trainer.Execute(v.dataset, v.query);
    report->Check(r.ok(), "reference answer: " + v.sql);
    st->reference.push_back(r.ok() ? r.value() : engine::QueryResult{});
    report->CheckAndPool(VideosOf(*st, v.dataset), st->positions[v.dataset],
                         v.query, st->reference.back(), "reference " + v.sql);
  }
  for (size_t i = 0; i < st->mix.size(); ++i) {
    const QueryVariant& v = st->mix[i];
    if (v.base < 0) continue;
    engine::QueryResult expected = st->reference[i];
    expected.segments = Restrict(st->reference[size_t(v.base)], v.query);
    report->Check(SameAnswer(expected, st->reference[i], st->positions[v.dataset]),
                  "BETWEEN/LIMIT answer is not its base answer restricted: " +
                      v.sql);
  }
  // Executors: the batched answer equals the sequential reference.
  for (int v : plans) {
    auto plan = trainer.CachedPlan(st->mix[v].dataset, st->mix[v].query);
    report->Check(plan != nullptr, "cached plan: " + st->mix[v].sql);
    if (plan != nullptr) {
      CheckExecutorsAgree(*plan, VideosOf(*st, st->mix[v].dataset),
                          st->mix[v].sql, report);
      st->trained.push_back(plan);
    }
  }
}

void Compact(const ServeState& st, Answer* a) {
  if (!a->ok || !a->result.has_value()) return;
  const engine::QueryResult& r = *a->result;
  const QueryVariant& v = st.mix[size_t(a->variant)];
  a->same = SameAnswer(r, st.reference[size_t(a->variant)],
                       st.positions.at(v.dataset));
  a->plan_seconds = r.plan_seconds;
  a->wall_seconds = r.wall_seconds;
  a->consistency = r.consistency;
  if (a->same) a->result.reset();
}

// Checks a batch of answers: the independent checker, identity with the
// variant's reference (every repeat, and every plan reloaded from disk,
// answers the same), and accounts for failures.
void CheckAnswers(const ServeState& st, const std::string& phase,
                  std::vector<Answer>& answers, bool routed, Report* report) {
  Accounting& acct = report->accounting();
  acct.Attempt(phase, static_cast<long>(answers.size()));
  std::vector<CheckReport> reference_checks;
  for (size_t i = 0; i < st.mix.size(); ++i) {
    reference_checks.push_back(
        CheckAnswer(VideosOf(st, st.mix[i].dataset),
                    st.positions.at(st.mix[i].dataset), st.mix[i].query,
                    st.reference[i]));
  }
  for (Answer& a : answers) {
    Compact(st, &a);
    if (!a.ok) {
      if (a.error.rfind("refused", 0) == 0) {
        acct.Refuse(phase, a.error);
      } else {
        acct.Fail(phase, a.error);
      }
      continue;
    }
    if (a.latency_ms > kLatencyLimitMs) acct.MissLimit(phase);
    const QueryVariant& v = st.mix[size_t(a.variant)];
    if (a.same) {
      report->Pool(reference_checks[size_t(a.variant)],
                   st.reference[size_t(a.variant)]);
    } else {
      report->CheckAndPool(VideosOf(st, v.dataset), st.positions.at(v.dataset),
                           v.query, *a.result, phase + " " + v.sql);
      report->Check(false,
                    phase + ": answer differs from the reference: " + v.sql);
    }
    report->Check(a.plan_seconds == 0.0,
                  phase + ": a served answer ran the planner: " + v.sql);
    if (routed) {
      report->Check(a.consistency == engine::Consistency::kCertain,
                    phase + ": routed answer not certain");
    }
  }
}

std::vector<double> Latencies(const std::vector<Answer>& answers) {
  std::vector<double> out;
  for (const Answer& a : answers) {
    if (a.ok) out.push_back(a.latency_ms);
  }
  return out;
}

// Frames the answers covered (test-split frames of the answered dataset).
double FramesAnswered(const ServeState& st, const std::vector<Answer>& answers) {
  std::map<std::string, double> per_dataset;
  for (const auto& [name, ds] : st.data) {
    double f = 0;
    for (const video::Video* v : TestVideos(*ds)) f += v->num_frames();
    per_dataset[name] = f;
  }
  double total = 0.0;
  for (const Answer& a : answers) {
    if (a.ok) total += per_dataset[st.mix[size_t(a.variant)].dataset];
  }
  return total;
}

// Closed loop: kClients callers, each sending its next request when the
// previous one returned, until `deadline`. `call` answers one variant.
template <typename Call>
std::vector<Answer> ClosedLoop(const ServeState& st, uint64_t seed,
                               Clock::time_point deadline, Call&& call) {
  std::vector<std::vector<Answer>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(seed * 1315423911ULL + static_cast<uint64_t>(c) + 1);
      int64_t request = (static_cast<int64_t>(c) + 1) << 40;
      while (Clock::now() < deadline) {
        Answer a;
        a.variant = rng.NextInt(0, static_cast<int>(st.mix.size()) - 1);
        const auto t0 = Clock::now();
        call(c, st.mix[size_t(a.variant)], ++request, &a);
        a.latency_ms = Ms(Clock::now() - t0);
        Compact(st, &a);
        per_client[size_t(c)].push_back(std::move(a));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Answer> all;
  for (auto& v : per_client) {
    for (Answer& a : v) all.push_back(std::move(a));
  }
  return all;
}

void SubmitAndWait(engine::EngineGroup* group, const QueryVariant& v,
                   int64_t request, Answer* a) {
  common::Result<engine::QueryTicket> t = [&] {
    ScopedSpan s("engine.submit", request);
    return group->Submit(v.dataset, v.query);
  }();
  if (!t.ok()) {
    a->error = "refused: " + t.status().ToString();
    return;
  }
  ScopedSpan s("engine.wait", request);
  const auto& r = t.value().Wait();
  if (!r.ok()) {
    a->error = r.status().ToString();
    return;
  }
  a->ok = true;
  a->result = r.value();
}

// Two engine workers: with four, answers contend on the plan's
// FeatureCache and the engine's locks, and capacity swung between 5k and
// 14k answers/s from run to run on a 4-vCPU VM.
constexpr int kServeWorkers = 2;

std::unique_ptr<engine::EngineGroup> BringUpGroup(const ServeState& st,
                                                   uint64_t corpus_seed,
                                                   Report* report) {
  // The catalog holds every plan; warm start loads them at construction.
  auto group = std::make_unique<engine::EngineGroup>(
      GroupOptions(st.catalog, /*warm_start=*/true, kServeWorkers));
  for (const DatasetDef& d : st.defs) {
    report->Check(group->RegisterDataset(d.name, Generate(d, corpus_seed)).ok(),
                  "register " + d.name);
    report->Check(group->GrowDataset(d.name, ServedFrames(d), 1).ok(),
                  "grow " + d.name);
  }
  return group;
}

struct WarmMeasure {
  OpenLoop open;
  std::vector<Answer> closed;
  double closed_seconds = 0.0;
  engine::GroupStats before, after;
};

// Closed loop over Submit: kClients callers, each keeping kWindow tickets
// outstanding and sending its next request when its oldest one returned,
// until `deadline`; then the outstanding tickets drain.
std::vector<Answer> PipelinedLoop(const ServeState& st, engine::EngineGroup* group,
                                  uint64_t seed, Clock::time_point deadline) {
  std::vector<std::vector<Answer>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(seed * 1315423911ULL + static_cast<uint64_t>(c) + 1);
      int64_t request = (static_cast<int64_t>(c) + 1) << 40;
      struct Outstanding {
        Answer answer;
        Clock::time_point sent;
        std::optional<engine::QueryTicket> ticket;
        int64_t request;
      };
      std::deque<Outstanding> window;
      auto send = [&] {
        Outstanding o;
        o.answer.variant = rng.NextInt(0, static_cast<int>(st.mix.size()) - 1);
        o.request = ++request;
        o.sent = Clock::now();
        const QueryVariant& v = st.mix[size_t(o.answer.variant)];
        ScopedSpan s("engine.submit", o.request);
        auto t = group->Submit(v.dataset, v.query);
        if (t.ok()) {
          o.ticket = t.value();
        } else {
          o.answer.error = "refused: " + t.status().ToString();
        }
        window.push_back(std::move(o));
      };
      for (int i = 0; i < kWindow; ++i) send();
      while (!window.empty()) {
        Outstanding o = std::move(window.front());
        window.pop_front();
        if (o.ticket.has_value()) {
          ScopedSpan s("engine.wait", o.request);
          const auto& r = o.ticket->Wait();
          if (r.ok()) {
            o.answer.ok = true;
            o.answer.result = r.value();
          } else {
            o.answer.error = r.status().ToString();
          }
        }
        o.answer.latency_ms = Ms(Clock::now() - o.sent);
        Compact(st, &o.answer);
        per_client[size_t(c)].push_back(std::move(o.answer));
        if (Clock::now() < deadline) send();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Answer> all;
  for (auto& v : per_client) {
    for (Answer& a : v) all.push_back(std::move(a));
  }
  return all;
}

WarmMeasure MeasureWarm(const ServeState& st, engine::EngineGroup* group,
                        const Args& args, double seconds) {
  WarmMeasure m;
  m.before = group->Stats(false);
  const auto open_start = Clock::now();
  m.open = RunOpenLoop(group, st.mix, kOpenRequests, kOpenRatePerS, args.seed,
                       [&](Answer* a) { Compact(st, a); });
  const double open_s = Seconds(Clock::now() - open_start);
  const double closed_budget = std::max(1.0, seconds - open_s);
  const auto c0 = Clock::now();
  m.closed = PipelinedLoop(
      st, group, args.seed,
      c0 + std::chrono::milliseconds(int64_t(closed_budget * 1e3)));
  m.closed_seconds = Seconds(Clock::now() - c0);
  m.after = group->Stats(false);
  return m;
}

void ReportCommon(const ServeState& st, Report* report,
                  const std::vector<double>& setups) {
  report->Metric("setup_s", Percentile(setups, 50), "s");
  report->Metric("plan_s", Percentile(st.plan_seconds, 50), "s");
  report->Metric("answer_f1", report->pooled_f1(), "ratio");
  report->Metric("modeled_fps", report->modeled_fps(), "frames/s");
  report->DetailSummary("setup_s", Summarize(setups));
  report->DetailSummary("plan_s", Summarize(st.plan_seconds));
  std::string per_query = "{";
  for (size_t i = 0; i < st.mix.size(); ++i) {
    const CheckReport c =
        CheckAnswer(VideosOf(st, st.mix[i].dataset),
                    st.positions.at(st.mix[i].dataset), st.mix[i].query,
                    st.reference[i]);
    per_query += common::Format(
        "%s\"%s\": {\"f1\": %.4f, \"segments\": %zu, \"modeled_fps\": %.1f}",
        i ? ", " : "", st.mix[i].sql.c_str(), c.counts.F1(),
        st.reference[i].segments.size(), st.reference[i].throughput_fps);
  }
  report->Detail("per_query", per_query + "}");
}

// SyntheticDataset::Generate of the whole corpus, in seconds.
double TimeGenerate(const ServeState& st, uint64_t corpus_seed) {
  const auto t0 = Clock::now();
  for (const DatasetDef& d : st.defs) {
    ScopedSpan s("video.generate");
    Generate(d, corpus_seed);
  }
  return Seconds(Clock::now() - t0);
}

LayerInputs ServeLayerInputs(const ServeState& st,
                             const std::function<std::shared_ptr<core::QueryPlan>(
                                 const QueryVariant&)>& plan_of) {
  LayerInputs in;
  for (int v : PlanVariants(st.mix)) {
    auto plan = plan_of(st.mix[size_t(v)]);
    if (plan == nullptr) continue;
    in.plans.push_back(plan);
    in.videos.push_back(VideosOf(st, st.mix[size_t(v)].dataset));
  }
  in.catalog = st.catalog;
  in.catalog_dataset = "thumos";
  in.catalog_data = st.data.at("thumos");
  in.sample = st.reference.front();
  in.trained = st.trained;
  return in;
}

}  // namespace

void RunServeWarm(Report* report) {
  const Args& args = report->args();
  ServeState st;
  Prepare(report, &st);

  // Set-up: bring the serving stack up from the plan catalog, three times.
  std::vector<double> setups;
  std::unique_ptr<engine::EngineGroup> group;
  for (int i = 0; i < kSetups; ++i) {
    group.reset();
    const auto t0 = Clock::now();
    group = BringUpGroup(st, args.corpus_seed, report);
    setups.push_back(Seconds(Clock::now() - t0));
  }
  for (const DatasetDef& d : st.defs) st.Learn(d.name, group->dataset(d.name));
  report->Check(group->planner_runs() == 0, "set-up ran the planner");
  report->Check(group->disk_loads() >= static_cast<long>(PlanVariants(st.mix).size()),
                "set-up did not load every plan from the catalog");

  // Warm-up: every variant once (fills the feature caches); a plan
  // reloaded from disk must answer exactly as the trained one did.
  std::vector<Answer> warm;
  for (size_t v = 0; v < st.mix.size(); ++v) {
    Answer a;
    a.variant = static_cast<int>(v);
    SubmitAndWait(group.get(), st.mix[v], 0, &a);
    warm.push_back(std::move(a));
  }
  CheckAnswers(st, "warmup", warm, false, report);

  WarmMeasure m = MeasureWarm(st, group.get(), args, args.seconds);
  report->Check(m.after.planner_runs == m.before.planner_runs,
                "planner ran during the measured phases");
  CheckAnswers(st, "open", m.open.answers, false, report);
  CheckAnswers(st, "closed", m.closed, false, report);

  const std::vector<double> open_lat = Latencies(m.open.answers);
  const std::vector<double> closed_lat = Latencies(m.closed);
  report->Metric("query_p50_ms", Percentile(open_lat, 50), "ms");
  report->Tail("query_p99_ms", Percentile(open_lat, 99));
  report->Metric("queries_per_s", closed_lat.size() / m.closed_seconds, "1/s");
  report->Metric("ingest_fps", FramesAnswered(st, m.closed) / m.closed_seconds,
                 "frames/s");
  report->Metric("update_p50_ms", Percentile(open_lat, 50), "ms");
  report->Tail("update_p90_ms", Percentile(open_lat, 90));
  ReportCommon(st, report, setups);
  report->DetailSummary("open_latency_ms", Summarize(open_lat));
  report->DetailSummary("closed_latency_ms", Summarize(closed_lat));
  for (size_t v = 0; v < st.mix.size(); ++v) {
    std::vector<double> lat;
    for (const Answer& a : m.closed) {
      if (a.ok && a.variant == int(v)) lat.push_back(a.latency_ms);
    }
    report->DetailSummary("closed_latency_ms_variant" + std::to_string(v),
                          Summarize(lat));
  }
  report->DetailSummary("send_lag_ms", Summarize(m.open.send_lag_ms));

  if (!args.trace) {
    report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }
  // Traced run: measure again with spans on, then replay the layers.
  Tracer::Get().Enable(true);
  WarmMeasure traced = MeasureWarm(st, group.get(), args, args.seconds);
  CheckAnswers(st, "open-traced", traced.open.answers, false, report);
  CheckAnswers(st, "closed-traced", traced.closed, false, report);
  const double traced_p50 = Percentile(Latencies(traced.open.answers), 50);

  std::vector<double> overhead, localize;
  for (const Answer& a : m.open.answers) {
    if (!a.ok) continue;
    overhead.push_back(a.latency_ms - a.wall_seconds * 1e3);
    localize.push_back(a.wall_seconds * 1e3);
  }
  report->Layer("engine.overhead_ms", Percentile(overhead, 50), "ms");
  report->Layer("core.localize_ms", Percentile(localize, 50), "ms");
  report->Layer("load.send_lag_p99_ms", Percentile(m.open.send_lag_ms, 99), "ms");
  const long hits = m.after.feature_hits - m.before.feature_hits;
  const long misses = m.after.feature_misses - m.before.feature_misses;
  report->Layer("apfg.feature_hits", static_cast<double>(hits), "count");
  report->Layer("apfg.feature_misses", static_cast<double>(misses), "count");
  report->Layer("apfg.feature_hit_ratio",
                hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0,
                "ratio");
  const engine::GroupStats stats = group->Stats(false);
  report->Layer("engine.planner_runs", static_cast<double>(stats.planner_runs),
                "count");
  report->Layer("engine.plan_cache_hits", static_cast<double>(stats.cache_hits),
                "count");
  report->Layer("engine.disk_loads", static_cast<double>(stats.disk_loads),
                "count");
  std::vector<double> exec_ms;
  for (size_t v = 0; v < st.mix.size(); ++v) {
    for (int r = 0; r < 5; ++r) {
      ScopedSpan s("engine.execute");
      const auto t0 = Clock::now();
      auto res = group->Execute(st.mix[v].dataset, st.mix[v].query);
      exec_ms.push_back(Ms(Clock::now() - t0));
      report->Check(res.ok() && SameAnswer(res.value(), st.reference[v],
                                           st.positions.at(st.mix[v].dataset)),
                    "inline Execute differs from the reference");
    }
  }
  report->Layer("engine.execute_ms", Percentile(exec_ms, 50), "ms");
  for (const char* zero : {"engine.window_run_ms", "engine.stream_dropped",
                           "video.append_ms", "cluster.shard_direct_ms",
                           "cluster.router_hop_ms", "cluster.read_failovers",
                           "cluster.certain_answers"}) {
    report->Layer(zero, 0.0, std::string(zero).find("_ms") != std::string::npos
                                 ? "ms"
                                 : "count");
  }
  report->Layer("video.generate_s", TimeGenerate(st, args.corpus_seed), "s");
  ReportNoPlanScaling(report);
  ReplayLayers(ServeLayerInputs(st,
                                [&](const QueryVariant& v) {
                                  return group->CachedPlan(v.dataset, v.query);
                                }),
               report);
  Tracer::Get().Enable(false);
  ReportTrace(report->Value("query_p50_ms"), traced_p50, report);
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
}

namespace {

// Every dataset of the corpus with its served frame count.
std::vector<std::pair<DatasetDef, long>> Served(const ServeState& st) {
  std::vector<std::pair<DatasetDef, long>> out;
  for (const DatasetDef& d : st.defs) out.push_back({d, ServedFrames(d)});
  return out;
}

struct RoutedMeasure {
  std::vector<Answer> answers;
  double seconds = 0.0;
};

RoutedMeasure MeasureRouted(const ServeState& st, Cluster* c, const Args& args,
                            double seconds) {
  std::vector<std::unique_ptr<cluster::RemoteShard>> conns;
  for (int i = 0; i < kClients; ++i) {
    conns.push_back(Connect(c->router().port(), "client" + std::to_string(i)));
  }
  RoutedMeasure m;
  const auto t0 = Clock::now();
  m.answers = ClosedLoop(
      st, args.seed, t0 + std::chrono::milliseconds(int64_t(seconds * 1e3)),
      [&](int client, const QueryVariant& v, int64_t request, Answer* a) {
        RemoteExecute(conns[size_t(client)].get(), v, request, a);
      });
  m.seconds = Seconds(Clock::now() - t0);
  return m;
}

// Median latency of `n` sequential requests of one variant over `conn`.
double SequentialMedianMs(cluster::RemoteShard* conn, const QueryVariant& v,
                          const engine::QueryResult& reference,
                          const VideoPositions& positions, int n,
                          Report* report) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    Answer a;
    const auto t0 = Clock::now();
    RemoteExecute(conn, v, 0, &a);
    t.push_back(Ms(Clock::now() - t0));
    report->Check(a.ok && SameAnswer(*a.result, reference, positions),
                  "direct/routed replay answer differs: " + v.sql);
  }
  return Percentile(t, 50);
}

}  // namespace

void RunServeRouted(Report* report) {
  const Args& args = report->args();
  ServeState st;
  Prepare(report, &st);

  // Set-up: bring the cluster up from the plan catalog, three times.
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    const auto t0 = Clock::now();
    cluster = std::make_unique<Cluster>(st.catalog, Served(st),
                                        args.corpus_seed, report);
    setups.push_back(Seconds(Clock::now() - t0));
  }
  for (int i = 0; i < 3; ++i) {
    for (const DatasetDef& d : st.defs) {
      st.Learn(d.name, cluster->shard(i).engine().dataset(d.name));
    }
  }
  const long planner_runs0 = cluster->router().Stats().stats.planner_runs;
  report->Check(planner_runs0 == 0, "cluster set-up ran the planner");

  {
    auto conn = Connect(cluster->router().port(), "warmup");
    std::vector<Answer> warm;
    for (size_t v = 0; v < st.mix.size(); ++v) {
      Answer a;
      a.variant = static_cast<int>(v);
      RemoteExecute(conn.get(), st.mix[v], 0, &a);
      warm.push_back(std::move(a));
    }
    CheckAnswers(st, "warmup", warm, true, report);
  }

  RoutedMeasure m = MeasureRouted(st, cluster.get(), args, args.seconds);
  report->Check(cluster->router().Stats().stats.planner_runs == planner_runs0,
                "planner ran during the measured phase");
  CheckAnswers(st, "closed", m.answers, true, report);

  const std::vector<double> lat = Latencies(m.answers);
  report->Metric("queries_per_s", lat.size() / m.seconds, "1/s");
  report->Metric("query_p50_ms", Percentile(lat, 50), "ms");
  report->Tail("query_p99_ms", Percentile(lat, 99));
  report->Metric("ingest_fps", FramesAnswered(st, m.answers) / m.seconds,
                 "frames/s");
  report->Metric("update_p50_ms", Percentile(lat, 50), "ms");
  report->Tail("update_p90_ms", Percentile(lat, 90));
  ReportCommon(st, report, setups);
  report->DetailSummary("closed_latency_ms", Summarize(lat));

  if (!args.trace) {
    report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    return;
  }
  Tracer::Get().Enable(true);
  RoutedMeasure traced = MeasureRouted(st, cluster.get(), args, args.seconds);
  CheckAnswers(st, "closed-traced", traced.answers, true, report);
  const double traced_p50 = Percentile(Latencies(traced.answers), 50);

  // Router hop: one variant sent sequentially straight to its home shard,
  // then through the router.
  const int v = PlanVariants(st.mix).back();
  const QueryVariant& q = st.mix[size_t(v)];
  const int home = cluster->router().HomeOf(q.dataset);
  auto direct = Connect(cluster->shard(home).port(), "direct");
  auto routed = Connect(cluster->router().port(), "routed");
  const VideoPositions& pos = st.positions.at(q.dataset);
  const double direct_ms = SequentialMedianMs(
      direct.get(), q, st.reference[size_t(v)], pos, 200, report);
  const double routed_ms = SequentialMedianMs(
      routed.get(), q, st.reference[size_t(v)], pos, 200, report);
  report->Layer("cluster.shard_direct_ms", direct_ms, "ms");
  report->Layer("cluster.router_hop_ms", routed_ms - direct_ms, "ms");
  const cluster::ClusterHealth health = cluster->router().Health();
  report->Layer("cluster.read_failovers", double(health.read_failovers), "count");
  report->Layer("cluster.certain_answers", double(health.certain_answers),
                "count");
  const engine::ShardStats stats = cluster->router().Stats().stats;
  report->Layer("engine.planner_runs", double(stats.planner_runs), "count");
  report->Layer("engine.plan_cache_hits", double(stats.cache_hits), "count");
  report->Layer("engine.disk_loads", double(stats.disk_loads), "count");
  report->Layer("apfg.feature_hits", double(stats.feature_hits), "count");
  report->Layer("apfg.feature_misses", double(stats.feature_misses), "count");
  report->Layer("apfg.feature_hit_ratio",
                stats.feature_hits + stats.feature_misses > 0
                    ? double(stats.feature_hits) /
                          double(stats.feature_hits + stats.feature_misses)
                    : 0.0,
                "ratio");
  std::vector<double> localize;
  for (const Answer& a : m.answers) {
    if (a.ok) localize.push_back(a.wall_seconds * 1e3);
  }
  report->Layer("core.localize_ms", Percentile(localize, 50), "ms");
  for (const char* zero :
       {"engine.execute_ms", "engine.overhead_ms", "engine.window_run_ms",
        "engine.stream_dropped", "video.append_ms", "load.send_lag_p99_ms"}) {
    report->Layer(zero, 0.0, std::string(zero).find("_ms") != std::string::npos
                                 ? "ms"
                                 : "count");
  }
  report->Layer("video.generate_s", TimeGenerate(st, args.corpus_seed), "s");
  ReportNoPlanScaling(report);

  // The layer replay needs the plans in process: load them from the
  // catalog into a local group.
  engine::EngineGroup local(GroupOptions(st.catalog, true));
  for (const DatasetDef& d : st.defs) {
    report->Check(local.RegisterDataset(d.name, Generate(d, args.corpus_seed)).ok(),
                  "replay register " + d.name);
    report->Check(local.GrowDataset(d.name, ServedFrames(d), 1).ok(),
                  "replay grow " + d.name);
    st.Learn(d.name, local.dataset(d.name));
  }
  ReplayLayers(ServeLayerInputs(st,
                                [&](const QueryVariant& qv) {
                                  return local.CachedPlan(qv.dataset, qv.query);
                                }),
               report);
  Tracer::Get().Enable(false);
  ReportTrace(report->Value("query_p50_ms"), traced_p50, report);
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace zeus::perfbench
