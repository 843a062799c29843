#include "checker.h"

#include <algorithm>
#include <map>

#include "common/stringutil.h"

namespace zeus::perfbench {

namespace {

constexpr int kEvalSegmentFrames = 16;

bool IsTarget(video::ActionClass cls,
              const std::vector<video::ActionClass>& targets) {
  return std::find(targets.begin(), targets.end(), cls) != targets.end();
}

CheckReport Fail(std::string error) {
  CheckReport r;
  r.ok = false;
  r.error = std::move(error);
  return r;
}

}  // namespace

double SegmentCounts::F1() const {
  const double denom = 2.0 * tp + fp + fn;
  return denom > 0.0 ? 2.0 * tp / denom : 0.0;
}

void AddPositions(const video::SyntheticDataset& copy, VideoPositions* out) {
  const std::vector<int>& test = copy.test_indices();
  for (size_t i = 0; i < test.size(); ++i) {
    (*out)[copy.video(static_cast<size_t>(test[i])).id()] = i;
  }
}

CheckReport CheckAnswer(const std::vector<const video::Video*>& videos,
                        const VideoPositions& position,
                        const core::ActionQuery& q,
                        const engine::QueryResult& result) {
  const long begin = std::max<long>(q.frame_begin, result.window_begin);
  // A live-stream answer covers the prefix up to its snapshot's length
  // (window_end); the caller may pass videos grown further since.
  long end = q.frame_end < 0 ? (1L << 40) : q.frame_end;
  if (result.window_end > 0) end = std::min(end, result.window_end);
  auto length = [&](const video::Video& v) {
    return result.window_end > 0
               ? static_cast<int>(std::min<long>(v.num_frames(), result.window_end))
               : v.num_frames();
  };

  // Well-formedness: known video, inside it, sorted, disjoint, inside the
  // frame range, within the limit.
  std::vector<std::vector<uint8_t>> masks(videos.size());
  for (size_t i = 0; i < videos.size(); ++i) {
    masks[i].assign(static_cast<size_t>(videos[i]->num_frames()), 0);
  }
  if (q.limit >= 0 && static_cast<long>(result.segments.size()) > q.limit) {
    return Fail(common::Format("%zu segments exceed LIMIT %d",
                               result.segments.size(), q.limit));
  }
  size_t prev_pos = 0;
  int prev_end = -1;
  for (size_t s = 0; s < result.segments.size(); ++s) {
    const engine::QueryResult::Segment& seg = result.segments[s];
    auto it = position.find(seg.video_id);
    if (it == position.end() || it->second >= videos.size()) {
      return Fail(common::Format("segment %zu names unknown video %d", s,
                                 seg.video_id));
    }
    const video::Video& v = *videos[it->second];
    if (seg.start < 0 || seg.start >= seg.end || seg.end > length(v)) {
      return Fail(common::Format("segment %zu [%d, %d) is outside video %d "
                                 "(%d frames) or empty",
                                 s, seg.start, seg.end, seg.video_id,
                                 length(v)));
    }
    if (s > 0) {
      if (it->second < prev_pos) {
        return Fail(common::Format("segment %zu is out of video order", s));
      }
      if (it->second == prev_pos && seg.start < prev_end) {
        return Fail(common::Format("segment %zu [%d, %d) overlaps or precedes "
                                   "its predecessor ending at %d",
                                   s, seg.start, seg.end, prev_end));
      }
    }
    if (seg.end <= begin || seg.start >= end) {
      return Fail(common::Format("segment %zu [%d, %d) lies outside the "
                                 "frame range [%ld, %ld)",
                                 s, seg.start, seg.end, begin, end));
    }
    prev_pos = it->second;
    prev_end = seg.end;
    std::fill(masks[it->second].begin() + seg.start,
              masks[it->second].begin() + seg.end, uint8_t{1});
  }

  // Segment-level counts over the evaluation segments in scope.
  CheckReport report;
  report.pooled = q.limit < 0;
  const std::vector<video::ActionClass>& targets = q.action_classes;
  for (size_t i = 0; i < videos.size(); ++i) {
    const video::Video& v = *videos[i];
    const int n = length(v);
    for (int start = 0; start < n; start += kEvalSegmentFrames) {
      const int stop = std::min(n, start + kEvalSegmentFrames);
      if (stop <= begin || start >= end) continue;
      int gt = 0, pred = 0;
      for (int f = start; f < stop; ++f) {
        if (IsTarget(v.Label(f), targets)) ++gt;
        if (masks[i][static_cast<size_t>(f)] != 0) ++pred;
      }
      const double span = stop - start;
      const bool gt_pos = gt / span > 0.5;
      const bool pred_pos = pred / span > 0.5;
      if (gt_pos && pred_pos) ++report.counts.tp;
      else if (pred_pos) ++report.counts.fp;
      else if (gt_pos) ++report.counts.fn;
      else ++report.counts.tn;
    }
  }

  // Without a frame filter the program's own counts cover exactly the
  // returned segments, so they must agree with the recomputation.
  const bool unfiltered = begin == 0 && q.frame_end < 0 && q.limit < 0;
  if (unfiltered) {
    const core::PrfMetrics& m = result.metrics;
    if (m.tp != report.counts.tp || m.fp != report.counts.fp ||
        m.fn != report.counts.fn || m.tn != report.counts.tn) {
      return Fail(common::Format(
          "reported tp/fp/fn/tn %ld/%ld/%ld/%ld differ from recomputed "
          "%ld/%ld/%ld/%ld",
          m.tp, m.fp, m.fn, m.tn, report.counts.tp, report.counts.fp,
          report.counts.fn, report.counts.tn));
    }
  }
  return report;
}

bool SameAnswer(const engine::QueryResult& a, const engine::QueryResult& b,
                const VideoPositions& positions) {
  if (a.segments.size() != b.segments.size()) return false;
  for (size_t i = 0; i < a.segments.size(); ++i) {
    const auto& x = a.segments[i];
    const auto& y = b.segments[i];
    auto px = positions.find(x.video_id);
    auto py = positions.find(y.video_id);
    if (px == positions.end() || py == positions.end() ||
        px->second != py->second || x.start != y.start || x.end != y.end) {
      return false;
    }
  }
  return a.metrics.tp == b.metrics.tp && a.metrics.fp == b.metrics.fp &&
         a.metrics.fn == b.metrics.fn && a.metrics.tn == b.metrics.tn;
}

}  // namespace zeus::perfbench
