// stream-ingest: one streamable dataset grows by one 64-frame block per
// tick while two sliding-window subscribers re-answer their standing query;
// the next tick starts only after both have an update covering the new
// epoch. A run is a sequence of whole rounds, each on a fresh engine
// brought up from the plan catalog, so every round sees the same stream.

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
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

constexpr int kTicksPerRound = 16;
constexpr long kWindowFrames[] = {192, 576};
constexpr int kSubscribers = 2;
constexpr int kTimeoutMs = 60'000;

const DatasetDef& StreamDef() {
  static const DatasetDef def{"stream", video::DatasetFamily::kThumos14Like, 14,
                              250};
  return def;
}

constexpr char kStreamSql[] =
    "SELECT segment_ids FROM UDF(video) WHERE action_class IN "
    "('pole-vault', 'clean-and-jerk') AND accuracy >= 75%";

core::ActionQuery StreamQuery() {
  return core::QueryParser::Parse(kStreamSql).value();
}

struct Delivered {
  Clock::time_point at;
  engine::StreamUpdate update;
};

// One subscriber: a thread blocking on Next() and recording every update
// with its delivery time.
class Subscriber {
 public:
  Subscriber(engine::SubscriptionTicket ticket, std::mutex* mu,
             std::condition_variable* cv)
      : ticket_(std::move(ticket)), mu_(mu), cv_(cv) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Subscriber() { Stop(); }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  // Cancels the subscription and joins the thread; idempotent.
  void Stop() {
    ticket_.Cancel();
    if (thread_.joinable()) thread_.join();
  }

  // Caller holds *mu, or has called Stop().
  const std::vector<Delivered>& delivered() const { return delivered_; }
  const std::string& error() const { return error_; }
  long dropped() const { return ticket_.dropped(); }

 private:
  void Loop() {
    uint64_t last = 0;
    for (;;) {
      auto u = ticket_.Next(last, kTimeoutMs);
      const Clock::time_point at = Clock::now();
      std::lock_guard<std::mutex> lock(*mu_);
      if (!u.ok()) {
        if (!ticket_.cancelled()) error_ = u.status().ToString();
        cv_->notify_all();
        return;
      }
      last = u.value().seq;
      delivered_.push_back({at, std::move(u).value()});
      cv_->notify_all();
    }
  }

  engine::SubscriptionTicket ticket_;
  std::mutex* mu_;
  std::condition_variable* cv_;
  std::vector<Delivered> delivered_;
  std::string error_;
  std::thread thread_;
};

struct StreamSamples {
  std::vector<double> setup_s, update_ms, window_ms, append_ms, localize_ms;
  // Tails per round (32 updates each): one round is the unit that repeats,
  // and the median of its tails is steady where a run-wide tail is set by
  // a few scheduler hiccups.
  std::vector<double> round_update_p90, round_localize_p99;
  double tick_seconds = 0.0;
  double frames = 0.0;
  long updates = 0;
  long dropped = 0;
  long rounds = 0;
  long planner_runs = 0;
  long feature_hits = 0, feature_misses = 0;
};

struct StreamState {
  std::string catalog;
  // The benchmark's own copy of the stream, grown to a whole round.
  std::shared_ptr<video::SyntheticDataset> local;
  std::vector<double> plan_seconds;
  long base_frames = 0;
  // Video positions of the local copy and of every engine copy.
  VideoPositions positions;
  std::shared_ptr<core::QueryPlan> trained;
};

// One round: bring-up, subscriptions, kTicksPerRound appends. Keeps the
// group alive in *keep when given (the final full-prefix check).
void RunRound(StreamState& st, const Args& args, Report* report,
              StreamSamples* out,
              std::unique_ptr<engine::EngineGroup>* keep) {
  Accounting& acct = report->accounting();
  const std::string& name = StreamDef().name;
  const auto s0 = Clock::now();
  auto group = std::make_unique<engine::EngineGroup>(
      GroupOptions(st.catalog, /*warm_start=*/true));
  report->Check(group->RegisterDataset(name, Generate(StreamDef(),
                                                      args.corpus_seed))
                    .ok(),
                "register stream");
  AddPositions(*group->dataset(name), &st.positions);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::unique_ptr<Subscriber>> subs;
  for (int s = 0; s < kSubscribers; ++s) {
    engine::SubscribeOptions so;
    so.window_frames = kWindowFrames[s];
    auto t = group->Subscribe(name, StreamQuery(), so);
    acct.Attempt("subscribe");
    if (!t.ok()) {
      acct.Fail("subscribe", t.status().ToString());
      return;
    }
    subs.push_back(std::make_unique<Subscriber>(t.value(), &mu, &cv));
  }
  auto covered = [&](uint64_t epoch) {
    for (const auto& s : subs) {
      if (!s->error().empty()) return true;
      if (s->delivered().empty() ||
          s->delivered().back().update.result.frame_epoch < epoch) {
        return false;
      }
    }
    return true;
  };
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(kTimeoutMs),
                [&] { return covered(0); });
  }
  out->setup_s.push_back(Seconds(Clock::now() - s0));
  const engine::GroupStats before = group->Stats(false);

  std::vector<size_t> seen(kSubscribers, 0);
  for (int tick = 0; tick < kTicksPerRound; ++tick) {
    acct.Attempt("append");
    const auto t0 = Clock::now();
    auto appended = [&] {
      ScopedSpan s("engine.append", tick + 1);
      return group->AppendFrames(name, video::SyntheticDataset::kStreamBlockFrames);
    }();
    const auto t1 = Clock::now();
    if (!appended.ok()) {
      acct.Fail("append", appended.status().ToString());
      break;
    }
    out->append_ms.push_back(Ms(t1 - t0));
    out->frames += static_cast<double>(appended.value().appended) *
                   static_cast<double>(st.local->test_indices().size());
    const uint64_t epoch = appended.value().frame_epoch;
    std::unique_lock<std::mutex> lock(mu);
    const bool ok = cv.wait_for(lock, std::chrono::milliseconds(kTimeoutMs),
                                [&] { return covered(epoch); });
    out->tick_seconds += Seconds(Clock::now() - t0);
    for (int s = 0; s < kSubscribers; ++s) {
      acct.Attempt("update");
      const Subscriber& sub = *subs[size_t(s)];
      if (!ok || !sub.error().empty()) {
        acct.Fail("update", ok ? sub.error() : "no update covering the epoch");
        continue;
      }
      const auto& d = sub.delivered();
      for (size_t i = seen[size_t(s)]; i < d.size(); ++i) {
        if (d[i].update.result.frame_epoch >= epoch) {
          out->update_ms.push_back(Ms(d[i].at - t0));
          out->window_ms.push_back(Ms(d[i].at - t1));
          break;
        }
      }
      out->updates += static_cast<long>(d.size() - seen[size_t(s)]);
      seen[size_t(s)] = d.size();
    }
  }
  const engine::GroupStats after = group->Stats(false);
  out->feature_hits += after.feature_hits - before.feature_hits;
  out->feature_misses += after.feature_misses - before.feature_misses;
  out->planner_runs += after.planner_runs;

  const std::vector<double> round_updates(
      out->update_ms.end() - std::min(out->update_ms.size(), 2 * size_t(kTicksPerRound)),
      out->update_ms.end());
  out->round_update_p90.push_back(Percentile(round_updates, 90));
  const size_t localize_before = out->localize_ms.size();

  // Stop the subscribers, then check every update: certain, covering its
  // window of its snapshot, and right by the independent checker.
  const std::vector<const video::Video*> videos = TestVideos(*st.local);
  for (int s = 0; s < kSubscribers; ++s) {
    Subscriber& sub = *subs[size_t(s)];
    sub.Stop();
    out->dropped += sub.dropped();
    uint64_t prev_epoch = 0;
    for (const Delivered& d : sub.delivered()) {
      const engine::QueryResult& r = d.update.result;
      const long len = st.base_frames +
                       static_cast<long>(r.frame_epoch) *
                           video::SyntheticDataset::kStreamBlockFrames;
      report->Check(r.consistency == engine::Consistency::kCertain,
                    "stream update not certain");
      report->Check(r.frame_epoch >= prev_epoch, "stream epochs went backwards");
      report->Check(r.window_end == len,
                    common::Format("update covers [%ld, %ld), stream holds %ld",
                                   r.window_begin, r.window_end, len));
      report->Check(r.window_begin == std::max(0L, len - kWindowFrames[s]),
                    common::Format("update window begins at %ld, expected %ld",
                                   r.window_begin,
                                   std::max(0L, len - kWindowFrames[s])));
      report->CheckAndPool(videos, st.positions, StreamQuery(), r,
                           "stream update");
      out->localize_ms.push_back(r.wall_seconds * 1e3);
      prev_epoch = r.frame_epoch;
    }
  }
  out->round_localize_p99.push_back(Percentile(
      std::vector<double>(out->localize_ms.begin() + long(localize_before),
                          out->localize_ms.end()),
      99));
  ++out->rounds;
  subs.clear();
  if (keep != nullptr) *keep = std::move(group);
}

// After the timed phase: a full-prefix subscription over the final prefix
// must equal a cold one-shot query on a separate engine. Returns the
// one-shot answer, or nothing when an operation failed.
std::optional<engine::QueryResult> CheckFullPrefix(StreamState& st,
                                                   const Args& args,
                                                   engine::EngineGroup* group,
                                                   Report* report) {
  Accounting& acct = report->accounting();
  const std::string& name = StreamDef().name;
  acct.Attempt("full-prefix");
  engine::SubscribeOptions so;
  so.window_frames = 0;
  auto t = group->Subscribe(name, StreamQuery(), so);
  if (!t.ok()) {
    acct.Fail("full-prefix", t.status().ToString());
    return std::nullopt;
  }
  auto u = t.value().Next(0, kTimeoutMs);
  t.value().Cancel();
  if (!u.ok()) {
    acct.Fail("full-prefix", u.status().ToString());
    return std::nullopt;
  }
  const engine::QueryResult& inc = u.value().result;
  engine::EngineGroup cold(GroupOptions(st.catalog, true));
  report->Check(cold.RegisterDataset(name, Generate(StreamDef(), args.corpus_seed))
                    .ok(),
                "register cold stream");
  AddPositions(*cold.dataset(name), &st.positions);
  auto grown = cold.GrowDataset(name, inc.window_end, inc.frame_epoch);
  report->Check(grown.ok(), "grow cold stream");
  auto one_shot = cold.Execute(name, StreamQuery());
  if (!one_shot.ok()) {
    acct.Fail("full-prefix", one_shot.status().ToString());
    return std::nullopt;
  }
  report->Check(SameAnswer(inc, one_shot.value(), st.positions) &&
                    inc.window_end == one_shot.value().window_end,
                "full-prefix window answer differs from a cold one-shot query");
  report->CheckAndPool(TestVideos(*st.local), st.positions, StreamQuery(),
                       one_shot.value(),
                       "cold one-shot over the final prefix");
  return one_shot.value();
}

StreamSamples Measure(StreamState& st, const Args& args, Report* report,
                      std::unique_ptr<engine::EngineGroup>* keep) {
  StreamSamples out;
  const auto start = Clock::now();
  do {
    RunRound(st, args, report, &out, keep);
  } while (Seconds(Clock::now() - start) < args.seconds);
  return out;
}

}  // namespace

void RunStreamIngest(Report* report) {
  const Args& args = report->args();
  StreamState st;
  st.catalog = args.work_dir + "/catalog";
  std::filesystem::create_directories(st.catalog);
  st.local = std::make_shared<video::SyntheticDataset>(
      Generate(StreamDef(), args.corpus_seed));
  st.base_frames = st.local->stream_length();
  AddPositions(*st.local, &st.positions);
  report->Check(st.local->streamable(), "stream dataset is not streamable");
  report->Check(st.local
                    ->GrowTo(st.base_frames + kTicksPerRound *
                                                  video::SyntheticDataset::
                                                      kStreamBlockFrames,
                             kTicksPerRound)
                    .ok(),
                "grow the local stream copy");
  {
    // Set-up of the catalog: train the stream query's plan.
    engine::EngineGroup trainer(GroupOptions(st.catalog, false));
    report->Check(trainer.RegisterDataset(StreamDef().name,
                                          Generate(StreamDef(), args.corpus_seed))
                      .ok(),
                  "register stream");
    auto r = trainer.Execute(StreamDef().name, StreamQuery());
    report->Check(r.ok() && r.value().plan_seconds > 0.0, "train stream plan");
    if (r.ok()) st.plan_seconds.push_back(r.value().plan_seconds);
    report->Check(trainer.planner_runs() == 1, "stream planner_runs != 1");
    AddPositions(*trainer.dataset(StreamDef().name), &st.positions);
    // The plan reloaded from the catalog answers as the trained one did.
    engine::EngineGroup reloaded(GroupOptions(st.catalog, true));
    report->Check(reloaded.RegisterDataset(StreamDef().name,
                                           Generate(StreamDef(), args.corpus_seed))
                      .ok(),
                  "register reloaded stream");
    AddPositions(*reloaded.dataset(StreamDef().name), &st.positions);
    auto again = reloaded.Execute(StreamDef().name, StreamQuery());
    report->Check(again.ok() && reloaded.planner_runs() == 0 &&
                      reloaded.disk_loads() >= 1,
                  "stream plan not reloaded from the catalog");
    report->Check(r.ok() && again.ok() &&
                      SameAnswer(r.value(), again.value(), st.positions),
                  "the reloaded stream plan answers differently");
    auto plan = trainer.CachedPlan(StreamDef().name, StreamQuery());
    report->Check(plan != nullptr, "stream plan cached");
    if (plan != nullptr) {
      CheckExecutorsAgree(*plan, TestVideos(*trainer.dataset(StreamDef().name)),
                          "stream", report);
      st.trained = plan;
    }
  }

  std::unique_ptr<engine::EngineGroup> last;
  StreamSamples m = Measure(st, args, report, &last);
  report->Check(m.planner_runs == 0, "planner ran during the stream rounds");
  std::optional<engine::QueryResult> final_answer;
  if (last != nullptr) final_answer = CheckFullPrefix(st, args, last.get(), report);
  last.reset();
  // The serving probe: the final-prefix answer through the cluster (and,
  // traced, through Submit on the replay group below).
  ServingProbe probe;
  probe.def = StreamDef();
  probe.frames = st.local->stream_length();
  probe.query.dataset = StreamDef().name;
  probe.query.sql = kStreamSql;
  probe.query.query = StreamQuery();
  probe.catalog = st.catalog;
  if (final_answer.has_value()) probe.reference = *final_answer;

  report->Metric("setup_s", Percentile(m.setup_s, 50), "s");
  report->Metric("update_p50_ms", Percentile(m.update_ms, 50), "ms");
  report->Tail("update_p90_ms", Percentile(m.round_update_p90, 50));
  // A window run's own execution time: its delivery time adds thread
  // wake-ups whose tail swung several-fold between runs.
  report->Metric("query_p50_ms", Percentile(m.localize_ms, 50), "ms");
  report->Tail("query_p99_ms", Percentile(m.round_localize_p99, 50));
  report->Metric("ingest_fps", m.frames / m.tick_seconds, "frames/s");
  report->Metric("queries_per_s", m.updates / m.tick_seconds, "1/s");
  report->Metric("plan_s", Percentile(st.plan_seconds, 50), "s");
  report->Metric("answer_f1", report->pooled_f1(), "ratio");
  report->Metric("modeled_fps", report->modeled_fps(), "frames/s");
  report->DetailSummary("setup_s", Summarize(m.setup_s));
  report->DetailSummary("update_ms", Summarize(m.update_ms));
  report->DetailSummary("window_run_ms", Summarize(m.window_ms));
  report->DetailSummary("append_ms", Summarize(m.append_ms));
  report->Detail("rounds", std::to_string(m.rounds));

  if (!args.trace) {
    // The workload's own peak, before the probe's cluster adds its copies.
    report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    if (final_answer.has_value()) {
      ProbeServing(probe, nullptr, &st.positions, report);
    }
    return;
  }
  Tracer::Get().Enable(true);
  StreamSamples traced = Measure(st, args, report, nullptr);
  report->Layer("video.append_ms", Percentile(m.append_ms, 50), "ms");
  report->Layer("engine.window_run_ms", Percentile(m.window_ms, 50), "ms");
  report->Layer("engine.stream_dropped", double(m.dropped), "count");
  report->Layer("core.localize_ms", Percentile(m.localize_ms, 50), "ms");
  report->Layer("apfg.feature_hits", double(m.feature_hits), "count");
  report->Layer("apfg.feature_misses", double(m.feature_misses), "count");
  report->Layer("apfg.feature_hit_ratio",
                m.feature_hits + m.feature_misses > 0
                    ? double(m.feature_hits) /
                          double(m.feature_hits + m.feature_misses)
                    : 0.0,
                "ratio");
  report->Layer("engine.planner_runs", double(m.planner_runs), "count");
  {
    const auto t0 = Clock::now();
    ScopedSpan s("video.generate");
    Generate(StreamDef(), args.corpus_seed);
    report->Layer("video.generate_s", Seconds(Clock::now() - t0), "s");
  }

  engine::EngineGroup group(GroupOptions(st.catalog, true));
  report->Check(group.RegisterDataset(StreamDef().name,
                                      Generate(StreamDef(), args.corpus_seed))
                    .ok(),
                "register replay stream");
  report->Check(group.GrowDataset(StreamDef().name, st.local->stream_length(),
                                  kTicksPerRound)
                    .ok(),
                "grow replay stream");
  std::vector<double> exec_ms;
  engine::QueryResult sample;
  for (int r = 0; r < 10; ++r) {
    ScopedSpan s("engine.execute");
    const auto t0 = Clock::now();
    auto res = group.Execute(StreamDef().name, StreamQuery());
    exec_ms.push_back(Ms(Clock::now() - t0));
    report->Check(res.ok(), "replay execute");
    if (res.ok()) sample = res.value();
  }
  AddPositions(*group.dataset(StreamDef().name), &st.positions);
  report->Check(final_answer.has_value() &&
                    SameAnswer(sample, *final_answer, st.positions),
                "replay answer differs from the final-prefix answer");
  report->Layer("engine.execute_ms", Percentile(exec_ms, 50), "ms");
  const engine::GroupStats stats = group.Stats(false);
  report->Layer("engine.plan_cache_hits", double(stats.cache_hits), "count");
  report->Layer("engine.disk_loads", double(stats.disk_loads), "count");
  if (final_answer.has_value()) ProbeServing(probe, &group, &st.positions, report);
  ReportNoPlanScaling(report);
  LayerInputs in;
  in.plans.push_back(group.CachedPlan(StreamDef().name, StreamQuery()));
  in.videos.push_back(TestVideos(*st.local));
  in.catalog = st.catalog;
  in.catalog_dataset = StreamDef().name;
  in.catalog_data = std::make_shared<video::SyntheticDataset>(
      Generate(StreamDef(), args.corpus_seed));
  in.sample = sample;
  if (st.trained != nullptr) in.trained.push_back(st.trained);
  report->Check(in.plans.front() != nullptr, "replay plan loaded");
  if (in.plans.front() != nullptr) ReplayLayers(in, report);
  Tracer::Get().Enable(false);
  ReportTrace(report->Value("update_p50_ms"), Percentile(traced.update_ms, 50),
              report);
  report->Metric("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace zeus::perfbench
