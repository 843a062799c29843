#ifndef ZEUS_PERFBENCH_TRACE_H_
#define ZEUS_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around its calls into the program's modules; the
// span name is "<module>.<call>" and the module part keys the per-layer
// self time. Each span carries its parent (the enclosing span on the same
// thread) and a request id shared by the spans of one request. Recording
// is off unless Enable() was called; a disabled ScopedSpan costs one
// relaxed load.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace zeus::perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // 0 = not tied to a request
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(Span span);

  size_t size() const;
  // Self time per module in milliseconds: each span's duration minus the
  // part of it covered by its child spans, summed by module.
  std::map<std::string, double> SelfMillisByModule() const;
  // Total span time per span name, in milliseconds, and span counts.
  std::map<std::string, std::pair<double, long>> TotalsByName() const;
  // One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

int64_t NowNanos();

// Records one span for its lifetime when tracing is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t request_ = 0;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_TRACE_H_
