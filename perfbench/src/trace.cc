#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace zeus::perfbench {

namespace {

// The innermost open span on this thread (parent of the next one).
thread_local int64_t current_span = 0;

std::string ModuleOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfMillisByModule() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_begin = 0, cur_end = -1;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (b > cur_end) {
          if (cur_end > cur_begin) covered += cur_end - cur_begin;
          cur_begin = b;
          cur_end = e;
        } else {
          cur_end = std::max(cur_end, e);
        }
      }
      if (cur_end > cur_begin) covered += cur_end - cur_begin;
    }
    out[ModuleOf(s.name)] += (s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

std::map<std::string, std::pair<double, long>> Tracer::TotalsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::pair<double, long>> out;
  for (const Span& s : spans_) {
    auto& [ms, n] = out[s.name];
    ms += (s.end_ns - s.start_ns) / 1e6;
    ++n;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %lld, \"parent\": %lld, \"request\": %lld}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t request)
    : name_(name), request_(request) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  id_ = t.NextId();
  parent_ = current_span;
  current_span = id_;
  start_ns_ = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const int64_t end = NowNanos();
  current_span = parent_;
  Tracer::Get().Record({name_, start_ns_, end, id_, parent_, request_});
}

}  // namespace zeus::perfbench
