#ifndef ZEUS_PERFBENCH_LAYERS_H_
#define ZEUS_PERFBENCH_LAYERS_H_

// The traced run's layer replay: after a workload finishes, the layer calls
// its answers went through are timed one module at a time, on the
// workload's own plans and videos, through each module's public functions.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/query_planner.h"
#include "engine/query_engine.h"

namespace zeus::perfbench {

struct LayerInputs {
  // Plans the workload served, each with the videos it answered over.
  std::vector<std::shared_ptr<core::QueryPlan>> plans;
  std::vector<std::vector<const video::Video*>> videos;
  // A plan catalog and one dataset whose plans it holds (plan load time);
  // empty when the workload keeps no catalog.
  std::string catalog;
  std::string catalog_dataset;
  std::shared_ptr<video::SyntheticDataset> catalog_data;
  // A served answer, for the wire codec.
  engine::QueryResult sample;
  // The plans as the planner produced them (a plan loaded from the catalog
  // does not carry its training times).
  std::vector<std::shared_ptr<core::QueryPlan>> trained;
};

// Reports the tensor, nn, apfg, video (decode), rl, core and net layer
// metrics. Workload-specific layer metrics are reported by the workload.
void ReplayLayers(const LayerInputs& in, Report* report);

// The thread-scaling planner runs (core.plan_serial_s, core.plan_pooled_s,
// core.plan_thread_speedup) are plan-cold's; the other workloads report 0.
void ReportNoPlanScaling(Report* report);

// Per-module self time from the recorded spans, the span count, the span
// file, and the tracing overhead of the workload's headline metric
// (`untraced` vs `traced`, same direction either way).
void ReportTrace(double untraced, double traced, Report* report);

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_LAYERS_H_
