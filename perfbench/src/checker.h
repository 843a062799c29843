#ifndef ZEUS_PERFBENCH_CHECKER_H_
#define ZEUS_PERFBENCH_CHECKER_H_

// Independent answer checker. It knows the evaluation protocol of the paper
// (§6.1: 16-frame evaluation segments, a segment is positive when more than
// half of it is covered) and the answer contract of a query, and checks an
// engine::QueryResult against the frame labels of the videos it was
// computed over, without calling the program's own metric code.

#include <map>
#include <string>
#include <vector>

#include "engine/query_engine.h"
#include "video/dataset.h"
#include "video/video.h"

namespace zeus::perfbench {

struct SegmentCounts {
  long tp = 0, fp = 0, fn = 0, tn = 0;
  void Add(const SegmentCounts& o) {
    tp += o.tp;
    fp += o.fp;
    fn += o.fn;
    tn += o.tn;
  }
  // Segment-level F1 (0 when there is no positive at all).
  double F1() const;
};

struct CheckReport {
  bool ok = true;
  std::string error;  // first violation found
  // Counts recomputed from the returned segments over the answer's scope:
  // the whole video, or the evaluation segments that intersect the frame
  // range / window the answer covers.
  SegmentCounts counts;
  // False for LIMIT answers: a truncated answer is checked for form but
  // its recall says nothing about the localizer, so it is not pooled.
  bool pooled = true;
};

// Video id -> position in its dataset's test split. Video ids come from a
// process-wide counter at generation, so two copies of one dataset (two
// engines, two replicas) carry different ids for the same video; answers
// are compared and checked by position.
using VideoPositions = std::map<int, size_t>;
void AddPositions(const video::SyntheticDataset& copy, VideoPositions* out);

// `videos` are the videos the answer was computed over, in the order the
// engine walked them (the dataset's test split); `positions` must know the
// ids of the copy that answered. `query` is the query as sent (an answer
// that crossed the wire does not carry it).
CheckReport CheckAnswer(const std::vector<const video::Video*>& videos,
                        const VideoPositions& positions,
                        const core::ActionQuery& query,
                        const engine::QueryResult& result);

// True when two answers are the same answer: segments (by video position),
// order and the program's reported counts.
bool SameAnswer(const engine::QueryResult& a, const engine::QueryResult& b,
                const VideoPositions& positions);

}  // namespace zeus::perfbench

#endif  // ZEUS_PERFBENCH_CHECKER_H_
