#include "serving.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "trace.h"

namespace zeus::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

constexpr int kOpenWaiters = 3;

// Probe sizes: answers per path checked in every run, and timed per path
// in the traced run; the traced open loop runs 2 s at a rate far below the
// capacity of one engine answering a ~2 ms query.
constexpr int kProbeChecked = 8;
constexpr int kProbeTimed = 200;
constexpr int kProbeOpenRequests = 400;
constexpr double kProbeOpenRatePerS = 200.0;

}  // namespace

OpenLoop RunOpenLoop(engine::EngineGroup* group,
                     const std::vector<QueryVariant>& mix, int requests,
                     double rate_per_s, uint64_t seed,
                     const std::function<void(Answer*)>& finish) {
  common::Rng rng(seed * 2654435761ULL + 3);
  std::vector<double> due(static_cast<size_t>(requests));
  std::vector<int> pick(static_cast<size_t>(requests));
  double t = 0.0;
  for (int i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    due[size_t(i)] = t;
    pick[size_t(i)] = rng.NextInt(0, static_cast<int>(mix.size()) - 1);
  }
  OpenLoop out;
  out.answers.resize(size_t(requests));
  out.send_lag_ms.resize(size_t(requests));

  struct Pending {
    int i;
    engine::QueryTicket ticket;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool sent_all = false;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due_at = [&](int i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[size_t(i)]));
  };

  std::vector<std::thread> waiters;
  for (int w = 0; w < kOpenWaiters; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || sent_all; });
        if (queue.empty()) return;
        Pending p = std::move(queue.front());
        queue.pop_front();
        lock.unlock();
        Answer& a = out.answers[size_t(p.i)];
        ScopedSpan s("engine.wait", p.i + 1);
        const auto& r = p.ticket.Wait();
        a.latency_ms = Ms(Clock::now() - due_at(p.i));
        if (r.ok()) {
          a.ok = true;
          a.result = r.value();
          if (finish) finish(&a);
        } else {
          a.error = r.status().ToString();
        }
      }
    });
  }
  for (int i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(due_at(i));
    out.send_lag_ms[size_t(i)] = Ms(Clock::now() - due_at(i));
    Answer& a = out.answers[size_t(i)];
    a.variant = pick[size_t(i)];
    const QueryVariant& v = mix[size_t(a.variant)];
    common::Result<engine::QueryTicket> ticket = [&] {
      ScopedSpan s("engine.submit", i + 1);
      return group->Submit(v.dataset, v.query);
    }();
    if (!ticket.ok()) {
      a.error = "refused: " + ticket.status().ToString();
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back({i, ticket.value()});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sent_all = true;
  }
  cv.notify_all();
  for (std::thread& w : waiters) w.join();
  return out;
}

Cluster::Cluster(const std::string& catalog,
                 const std::vector<std::pair<DatasetDef, long>>& served,
                 uint64_t corpus_seed, Report* report) {
  cluster::Router::Options ropts;
  for (int i = 0; i < kShards; ++i) {
    cluster::ShardServer::Options so;
    so.engine = GroupOptions(catalog, false).engine;
    so.engine.num_workers = 2;
    so.name = "shard" + std::to_string(i);
    shards_.push_back(std::make_unique<cluster::ShardServer>(so));
    report->Check(shards_.back()->Start().ok(), "start " + so.name);
    ropts.shards.push_back({"127.0.0.1", shards_.back()->port()});
  }
  ropts.replication = 2;
  ropts.name = "router";
  router_ = std::make_unique<cluster::Router>(ropts);
  report->Check(router_->Start().ok(), "start router");
  for (const auto& [def, frames] : served) {
    report->Check(router_->RegisterDataset(SpecFor(def, corpus_seed)).ok(),
                  "routed register " + def.name);
    report->Check(
        router_->AppendFrames(def.name, uint64_t(frames - def.frames)).ok(),
        "routed grow " + def.name);
  }
}

Cluster::~Cluster() {
  router_->Stop();
  for (auto& s : shards_) s->Stop();
}

std::unique_ptr<cluster::RemoteShard> Connect(int port, const std::string& name) {
  cluster::RemoteShard::Options o;
  o.port = port;
  o.name = name;
  return std::make_unique<cluster::RemoteShard>(o);
}

void RemoteExecute(cluster::RemoteShard* conn, const QueryVariant& v,
                   int64_t request, Answer* a) {
  cluster::ExecRequest req;
  req.dataset = v.dataset;
  req.sql = v.sql;
  ScopedSpan s("cluster.execute", request);
  auto r = conn->Execute(req);
  if (!r.ok()) {
    a->error = r.status().ToString();
    return;
  }
  a->ok = true;
  a->result = std::move(r).value();
}

void ProbeServing(const ServingProbe& p, engine::EngineGroup* group,
                  VideoPositions* positions, Report* report) {
  Accounting& acct = report->accounting();
  Cluster cluster(p.catalog, {{p.def, p.frames}},
                  report->args().corpus_seed, report);
  for (int i = 0; i < Cluster::kShards; ++i) {
    const video::SyntheticDataset* copy =
        cluster.shard(i).engine().dataset(p.def.name);
    if (copy != nullptr) AddPositions(*copy, positions);
  }
  // Every answer: identical to the in-process one, served from a loaded
  // plan, and (routed) certain.
  auto check = [&](const std::string& path, const Answer& a) {
    acct.Attempt(path);
    if (!a.ok) {
      if (a.error.rfind("refused", 0) == 0) {
        acct.Refuse(path, a.error);
      } else {
        acct.Fail(path, a.error);
      }
      return;
    }
    report->Check(SameAnswer(*a.result, p.reference, *positions),
                  path + " answer differs from the in-process answer: " +
                      p.query.sql);
    report->Check(a.result->plan_seconds == 0.0,
                  path + " answer ran the planner: " + p.query.sql);
    report->Check(a.result->consistency == engine::Consistency::kCertain,
                  path + " answer not certain: " + p.query.sql);
  };

  const int home = cluster.router().HomeOf(p.def.name);
  auto direct = Connect(cluster.shard(home).port(), "probe-direct");
  auto routed = Connect(cluster.router().port(), "probe-routed");
  std::vector<double> direct_ms, routed_ms;
  const int n = group != nullptr ? kProbeTimed : kProbeChecked;
  for (int i = 0; i < n; ++i) {
    for (bool via_router : {false, true}) {
      Answer a;
      const auto t0 = Clock::now();
      RemoteExecute(via_router ? routed.get() : direct.get(), p.query, i + 1,
                    &a);
      (via_router ? routed_ms : direct_ms).push_back(Ms(Clock::now() - t0));
      check(via_router ? "routed" : "direct", a);
    }
  }
  report->Check(cluster.router().Stats().stats.planner_runs == 0,
                "the cluster ran the planner");
  if (group == nullptr) return;

  const double direct_p50 = Percentile(direct_ms, 50);
  report->Layer("cluster.shard_direct_ms", direct_p50, "ms");
  report->Layer("cluster.router_hop_ms", Percentile(routed_ms, 50) - direct_p50,
                "ms");
  const cluster::ClusterHealth health = cluster.router().Health();
  report->Layer("cluster.read_failovers", double(health.read_failovers),
                "count");
  report->Layer("cluster.certain_answers", double(health.certain_answers),
                "count");

  const long planner_runs = group->planner_runs();
  OpenLoop open = RunOpenLoop(group, {p.query}, kProbeOpenRequests,
                              kProbeOpenRatePerS, report->args().seed);
  report->Check(group->planner_runs() == planner_runs,
                "planner ran during the open loop");
  std::vector<double> overhead;
  for (const Answer& a : open.answers) {
    check("open", a);
    if (a.ok) overhead.push_back(a.latency_ms - a.result->wall_seconds * 1e3);
  }
  report->Layer("engine.overhead_ms", Percentile(overhead, 50), "ms");
  report->Layer("load.send_lag_p99_ms", Percentile(open.send_lag_ms, 99), "ms");
}

}  // namespace zeus::perfbench
