#ifndef ZEUS_PERFBENCH_SERVING_H_
#define ZEUS_PERFBENCH_SERVING_H_

// The serving paths the workloads share: the open-loop Submit schedule, the
// three-shard cluster behind a Router, and the serving probe, which checks
// (and in the traced run times) one trained query through the cluster and
// through the engine's admission queue for workloads whose timed phase
// goes through neither.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cluster/remote_shard.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"

namespace zeus::perfbench {

// One answered request.
struct Answer {
  int variant = 0;
  double latency_ms = 0.0;
  bool ok = false;
  std::string error;
  std::optional<engine::QueryResult> result;
  bool same = false;
  double plan_seconds = 0.0;
  double wall_seconds = 0.0;
  engine::Consistency consistency = engine::Consistency::kCertain;
};

struct OpenLoop {
  std::vector<Answer> answers;
  std::vector<double> send_lag_ms;
};

// Open loop: `requests` requests of variants of `mix` on a seeded Poisson
// schedule at `rate_per_s`. One sender (the calling thread) submits each
// request at its due time regardless of completions; three waiter threads
// collect the tickets and call `finish` (when given) on every answer.
// Latency is timed from each request's due time; a refused Submit is an
// answer whose error starts with "refused".
OpenLoop RunOpenLoop(engine::EngineGroup* group,
                     const std::vector<QueryVariant>& mix, int requests,
                     double rate_per_s, uint64_t seed,
                     const std::function<void(Answer*)>& finish = nullptr);

// Three ShardServers (two engine workers each) behind a Router with
// replication 2. Every dataset is registered from its spec and its test
// split grown to the given frame count; the shards load plans from
// `catalog` on first use.
class Cluster {
 public:
  static constexpr int kShards = 3;

  Cluster(const std::string& catalog,
          const std::vector<std::pair<DatasetDef, long>>& served,
          uint64_t corpus_seed, Report* report);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  cluster::Router& router() { return *router_; }
  cluster::ShardServer& shard(int i) { return *shards_[size_t(i)]; }

 private:
  std::vector<std::unique_ptr<cluster::ShardServer>> shards_;
  std::unique_ptr<cluster::Router> router_;
};

std::unique_ptr<cluster::RemoteShard> Connect(int port, const std::string& name);

// Sends `v` over `conn` and fills `a` (a "cluster.execute" span).
void RemoteExecute(cluster::RemoteShard* conn, const QueryVariant& v,
                   int64_t request, Answer* a);

struct ServingProbe {
  DatasetDef def;
  long frames = 0;  // the test split is grown to this many frames
  QueryVariant query;
  std::string catalog;  // holds the query's trained plan
  // The in-process answer over `frames`, already checked by the caller.
  engine::QueryResult reference;
};

// Brings a Cluster up for `p.def` and answers `p.query` straight from its
// home shard and through the Router, alternately. Every answer must be
// identical to the reference and run no planner; routed answers must be
// kCertain. With `group` (an in-process group serving the same query over
// the same frames) the probe also times: it reports the cluster.* layer
// metrics from a longer alternating sequence, and engine.overhead_ms and
// load.send_lag_p99_ms from an open loop of Submit on `group`.
void ProbeServing(const ServingProbe& p, engine::EngineGroup* group,
                  VideoPositions* positions, Report* report);

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_SERVING_H_
