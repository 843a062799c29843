#include "stats.h"

#include <algorithm>
#include <cmath>

namespace zeus::perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(samples.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double SupportedTailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.median = Percentile(samples, 50.0);
  s.q1 = Percentile(samples, 25.0);
  s.q3 = Percentile(samples, 75.0);
  s.tail_pct = SupportedTailPercentile(s.n);
  s.tail = Percentile(samples, s.tail_pct);
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

void Accounting::Attempt(const std::string& phase, long n) {
  phases_[phase].attempted += n;
}

void Accounting::Fail(const std::string& phase, const std::string& why) {
  ++phases_[phase].failed;
  ++reasons_[phase + ": " + why];
}

void Accounting::Refuse(const std::string& phase, const std::string& why) {
  Fail(phase, "refused: " + why);
  ++phases_[phase].missed_limit;
}

void Accounting::MissLimit(const std::string& phase) {
  ++phases_[phase].missed_limit;
}

long Accounting::attempted() const {
  long n = 0;
  for (const auto& [name, c] : phases_) n += c.attempted;
  return n;
}

long Accounting::failed() const {
  long n = 0;
  for (const auto& [name, c] : phases_) n += c.failed;
  return n;
}

}  // namespace zeus::perfbench
