#ifndef ZEUS_PERFBENCH_STATS_H_
#define ZEUS_PERFBENCH_STATS_H_

// Statistics and operation accounting shared by every workload.
//
// A timing is reported as its median and the highest percentile that has at
// least ten samples beyond it, together with the sample count; with fewer
// than forty samples only the median is a meaningful summary. Operations
// are counted per phase as attempted and failed; a refused submission is a
// failure and also misses any latency limit.

#include <map>
#include <string>
#include <vector>

namespace zeus::perfbench {

// Percentile `p` in [0, 100] by linear interpolation between order
// statistics. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// The highest of {99.9, 99, 95, 90, 75} that leaves at least ten samples
// beyond it, or 50 when the sample is smaller than forty.
double SupportedTailPercentile(size_t n);

struct Summary {
  size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_pct = 50.0;  // SupportedTailPercentile(n)
  double tail = 0.0;       // the sample at tail_pct
  double max = 0.0;
};

Summary Summarize(const std::vector<double>& samples);

// Attempted / failed operations per phase. A refusal counts as a failure
// and as a miss of the phase's latency limit.
struct PhaseCounts {
  long attempted = 0;
  long failed = 0;
  long missed_limit = 0;
};

class Accounting {
 public:
  void Attempt(const std::string& phase, long n = 1);
  void Fail(const std::string& phase, const std::string& why);
  void Refuse(const std::string& phase, const std::string& why);
  // A completed operation whose latency exceeded the phase's limit.
  void MissLimit(const std::string& phase);

  const std::map<std::string, PhaseCounts>& phases() const { return phases_; }
  long attempted() const;
  long failed() const;
  // Distinct failure reasons with their counts (diagnostics).
  const std::map<std::string, long>& reasons() const { return reasons_; }

 private:
  std::map<std::string, PhaseCounts> phases_;
  std::map<std::string, long> reasons_;
};

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_STATS_H_
