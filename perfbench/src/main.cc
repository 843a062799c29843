// zbench — the Zeus serving benchmark. Runs one workload against the public
// API and prints, as its last line of standard output, one JSON object
// with the operations attempted and failed, whether every answer was
// correct, and the metrics (end-to-end metrics untraced; per-layer metrics
// with --trace 1). perfbench/run.py builds and drives it.
//
//   zbench --workload serve-warm|serve-routed|stream-ingest|plan-cold
//          --seed N --seconds S --trace 0|1
//          [--corpus-seed N] [--work-dir DIR] [--out-dir DIR] [--commit SHA]
//
// The compute pool's size comes from ZEUS_NUM_THREADS, 1 when unset; the
// result file records the size it got.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/logging.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: zbench --workload "
               "serve-warm|serve-routed|stream-ingest|plan-cold\n"
               "              --seed N --seconds S --trace 0|1\n"
               "              [--corpus-seed N] [--work-dir DIR] "
               "[--out-dir DIR] [--commit SHA]\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zeus::perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed" && ParseU64(v, &n)) {
      args.seed = n;
    } else if (flag == "--seconds" && ParseU64(v, &n) && n >= 1 && n <= 600) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && ParseU64(v, &n) && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--corpus-seed" && ParseU64(v, &n)) {
      args.corpus_seed = n;
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else if (flag == "--commit") {
      args.commit = v;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty()) return Usage();
  // The library sizes its compute pool from ZEUS_NUM_THREADS on first use,
  // else one thread per CPU. Unless the caller set it, the benchmark runs
  // on one thread: on a 4-vCPU VM the default pool made planning times
  // spread past every bound from run to run (README, "Compute pool").
  // plan-cold's traced run measures planning with the pool as well.
  setenv("ZEUS_NUM_THREADS", "1", /*overwrite=*/0);
  // The library's INFO lines (one per trained plan) would interleave with
  // the benchmark's own output.
  zeus::common::SetLogLevel(zeus::common::LogLevel::kWarning);

  Report report(args);
  if (args.workload == "serve-warm") {
    RunServeWarm(&report);
  } else if (args.workload == "serve-routed") {
    RunServeRouted(&report);
  } else if (args.workload == "stream-ingest") {
    RunStreamIngest(&report);
  } else if (args.workload == "plan-cold") {
    RunPlanCold(&report);
  } else {
    return Usage();
  }
  return report.Finish();
}
