#include "checker.h"

#include <gtest/gtest.h>

namespace zeus::perfbench {
namespace {

using video::ActionClass;

// Two 64-frame videos (ids 10 and 11). Video 10 holds the target action on
// frames [16, 48), video 11 on [0, 16).
class CheckerTest : public testing::Test {
 protected:
  void SetUp() override {
    a_.set_id(10);
    b_.set_id(11);
    for (int f = 16; f < 48; ++f) a_.SetLabel(f, ActionClass::kCrossRight);
    for (int f = 0; f < 16; ++f) b_.SetLabel(f, ActionClass::kCrossRight);
    videos_ = {&a_, &b_};
  }

  // The exact answer, with the counts the engine would report.
  engine::QueryResult Good() const {
    engine::QueryResult r;
    r.query.action_classes = {ActionClass::kCrossRight};
    r.segments = {{10, 16, 48}, {11, 0, 16}};
    r.metrics.tp = 3;
    r.metrics.tn = 5;
    return r;
  }

  video::Video a_{64, 2, 2};
  video::Video b_{64, 2, 2};
  std::vector<const video::Video*> videos_;
  // Ids 20 and 21 are a second copy of the same two videos.
  VideoPositions pos_ = {{10, 0}, {11, 1}, {20, 0}, {21, 1}};
};

TEST_F(CheckerTest, ExactAnswerPassesWithRecomputedCounts) {
  const CheckReport c = CheckAnswer(videos_, pos_, Good().query, Good());
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.counts.tp, 3);
  EXPECT_EQ(c.counts.fp, 0);
  EXPECT_EQ(c.counts.fn, 0);
  EXPECT_EQ(c.counts.tn, 5);
  EXPECT_DOUBLE_EQ(c.counts.F1(), 1.0);
  EXPECT_TRUE(c.pooled);
}

TEST_F(CheckerTest, PartialAnswerScoresBelowOne) {
  engine::QueryResult r = Good();
  r.segments = {{10, 16, 32}, {10, 50, 64}};
  r.metrics = {};
  r.metrics.tp = 1;
  r.metrics.fp = 1;
  r.metrics.fn = 2;
  r.metrics.tn = 4;
  const CheckReport c = CheckAnswer(videos_, pos_, r.query, r);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_NEAR(c.counts.F1(), 2.0 / 5.0, 1e-12);
}

TEST_F(CheckerTest, TamperedCountsFail) {
  engine::QueryResult r = Good();
  r.metrics.tp = 4;
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, SegmentOutsideVideoFails) {
  engine::QueryResult r = Good();
  r.segments[1].end = 65;
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
  r = Good();
  r.segments[0].start = r.segments[0].end;  // empty
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, UnknownVideoFails) {
  engine::QueryResult r = Good();
  r.segments[1].video_id = 12;
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, OverlappingOrUnsortedSegmentsFail) {
  engine::QueryResult r = Good();
  r.segments = {{10, 16, 40}, {10, 30, 48}};
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
  r.segments = {{10, 30, 48}, {10, 0, 10}};
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
  r.segments = {{11, 0, 16}, {10, 16, 48}};  // walk order is 10 then 11
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, FrameRangeIsHonoured) {
  engine::QueryResult r = Good();
  r.query.frame_begin = 20;
  r.query.frame_end = 40;
  r.segments = {{10, 16, 48}};
  const CheckReport c = CheckAnswer(videos_, pos_, r.query, r);
  ASSERT_TRUE(c.ok) << c.error;  // the filter skips the count comparison
  r.segments = {{10, 16, 48}, {11, 0, 16}};  // [0, 16) misses [20, 40)
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, LimitIsHonouredAndNotPooled) {
  engine::QueryResult r = Good();
  r.query.limit = 1;
  r.segments.resize(1);
  const CheckReport c = CheckAnswer(videos_, pos_, r.query, r);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_FALSE(c.pooled);
  r = Good();
  r.query.limit = 1;
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, StreamWindowBoundsTheAnswer) {
  engine::QueryResult r = Good();
  r.window_begin = 32;
  r.window_end = 48;  // the snapshot held 48 frames per video
  r.segments = {{10, 16, 48}};
  ASSERT_TRUE(CheckAnswer(videos_, pos_, r.query, r).ok);
  r.segments = {{10, 16, 50}};  // past the snapshot's end
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
  r.segments = {{10, 16, 48}, {11, 0, 16}};  // before the window
  EXPECT_FALSE(CheckAnswer(videos_, pos_, r.query, r).ok);
}

TEST_F(CheckerTest, SameAnswerComparesSegmentsAndCounts) {
  const engine::QueryResult a = Good();
  engine::QueryResult b = Good();
  EXPECT_TRUE(SameAnswer(a, b, pos_));
  b.segments[0].end = 47;
  EXPECT_FALSE(SameAnswer(a, b, pos_));
  b = Good();
  b.metrics.fn = 1;
  EXPECT_FALSE(SameAnswer(a, b, pos_));
}

TEST_F(CheckerTest, AnswersFromAnotherCopyCompareByPosition) {
  const engine::QueryResult a = Good();
  engine::QueryResult b = Good();
  b.segments[0].video_id = 20;
  b.segments[1].video_id = 21;
  EXPECT_TRUE(CheckAnswer(videos_, pos_, b.query, b).ok);
  EXPECT_TRUE(SameAnswer(a, b, pos_));
  b.segments[0].video_id = 21;  // the right frames of the wrong video
  EXPECT_FALSE(SameAnswer(a, b, pos_));
  EXPECT_FALSE(CheckAnswer(videos_, pos_, b.query, b).ok);
}

}  // namespace
}  // namespace zeus::perfbench
