// Parameterized property sweeps across module boundaries: decoder
// invariants over the full knob range, metrics algebra, and
// configuration-space invariants.

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/configuration.h"
#include "core/metrics.h"
#include "video/dataset.h"
#include "video/decoder.h"

namespace zeus {
namespace {

video::Video RandomVideo(int frames, int side, uint64_t seed) {
  common::Rng rng(seed);
  video::Video v(frames, side, side);
  for (int f = 0; f < frames; ++f) {
    float* px = v.FrameData(f);
    for (int i = 0; i < side * side; ++i) px[i] = rng.NextFloat();
  }
  return v;
}

// ---------------------------------------------------------------------------
// Decoder properties over the knob grid.

class DecoderPropertyTest
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DecoderPropertyTest, ShapeCoverageAndStandardization) {
  const auto [res, len, rate] = GetParam();
  video::DecodeSpec spec{res, len, rate};
  video::Video v = RandomVideo(200, 30, 11);

  tensor::Tensor t = video::SegmentDecoder::Decode(v, 17, spec);
  // Shape is always {1, L, r, r} regardless of the video's native size.
  EXPECT_EQ(t.shape(), (std::vector<int>{1, len, res, res}));
  // Covered source frames = L * rate.
  EXPECT_EQ(video::SegmentDecoder::CoveredFrames(spec), len * rate);
  // Standardized: mean ~0, variance <= ~1 (epsilon shaves a little).
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sum_sq += static_cast<double>(t[i]) * t[i];
  }
  const double n = static_cast<double>(t.size());
  EXPECT_NEAR(sum / n, 0.0, 1e-3);
  EXPECT_LE(sum_sq / n, 1.05);
  // Deterministic: decoding twice gives identical bytes.
  tensor::Tensor u = video::SegmentDecoder::Decode(v, 17, spec);
  for (size_t i = 0; i < t.size(); ++i) ASSERT_EQ(t[i], u[i]);
}

INSTANTIATE_TEST_SUITE_P(
    KnobGrid, DecoderPropertyTest,
    testing::Combine(testing::Values(8, 15, 24, 30),   // resolution px
                     testing::Values(2, 8, 16),        // segment length
                     testing::Values(1, 4, 8)),        // sampling rate
    [](const testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "l" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Metrics algebra.

TEST(MetricsPropertyTest, OracleMaskScoresPerfect) {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 2;
  profile.frames_per_video = 200;
  auto ds = video::SyntheticDataset::Generate(profile, 31);
  std::vector<video::ActionClass> targets = {profile.classes[0]};
  for (size_t i = 0; i < ds.num_videos(); ++i) {
    const video::Video& v = ds.video(i);
    core::FrameMask oracle(static_cast<size_t>(v.num_frames()), 0);
    bool any = false;
    for (int f = 0; f < v.num_frames(); ++f) {
      oracle[static_cast<size_t>(f)] = v.IsActionAny(f, targets) ? 1 : 0;
      any |= oracle[static_cast<size_t>(f)] != 0;
    }
    if (!any) continue;  // F1 undefined without positives
    auto m = core::EvaluateVideo(v, targets, oracle, core::EvalOptions{});
    EXPECT_DOUBLE_EQ(m.f1, 1.0) << "video " << i;
  }
}

TEST(MetricsPropertyTest, EmptyMaskHasZeroRecall) {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 1;
  profile.frames_per_video = 300;
  auto ds = video::SyntheticDataset::Generate(profile, 32);
  const video::Video& v = ds.video(0);
  std::vector<video::ActionClass> targets(profile.classes.begin(),
                                          profile.classes.end());
  core::FrameMask empty(static_cast<size_t>(v.num_frames()), 0);
  auto m = core::EvaluateVideo(v, targets, empty, core::EvalOptions{});
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_EQ(m.tp, 0);
  EXPECT_EQ(m.fp, 0);
}

TEST(MetricsPropertyTest, FullMaskHasFullRecall) {
  video::Video v(300, 4, 4);
  for (int f = 40; f < 120; ++f) v.SetLabel(f, video::ActionClass::kLeftTurn);
  core::FrameMask full(static_cast<size_t>(v.num_frames()), 1);
  auto m = core::EvaluateVideo(v, {video::ActionClass::kLeftTurn}, full,
                               core::EvalOptions{});
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_EQ(m.fn, 0);
  // And precision reflects the 80/300 positive share at 16-frame tiling.
  EXPECT_GT(m.fp, 0);
}

TEST(MetricsPropertyTest, MaskToInstancesRoundTripsExtraction) {
  // Instances extracted from a video, painted into a mask, and re-extracted
  // must match exactly (for a single-class video).
  video::Video v(100, 2, 2);
  for (int f = 10; f < 25; ++f) v.SetLabel(f, video::ActionClass::kLeftTurn);
  for (int f = 60; f < 61; ++f) v.SetLabel(f, video::ActionClass::kLeftTurn);
  for (int f = 99; f < 100; ++f) v.SetLabel(f, video::ActionClass::kLeftTurn);
  auto instances = video::ExtractInstances(v);
  core::FrameMask mask(100, 0);
  for (const auto& inst : instances) {
    for (int f = inst.start; f < inst.end; ++f) {
      mask[static_cast<size_t>(f)] = 1;
    }
  }
  auto round = core::MaskToInstances(mask);
  ASSERT_EQ(round.size(), instances.size());
  for (size_t i = 0; i < round.size(); ++i) {
    EXPECT_EQ(round[i].start, instances[i].start);
    EXPECT_EQ(round[i].end, instances[i].end);
  }
}

TEST(MetricsPropertyTest, WindowAccuracyEmptyWindowIsPerfect) {
  video::Video v(50, 2, 2);
  core::FrameMask mask(50, 0);
  EXPECT_DOUBLE_EQ(
      core::WindowAccuracy(v, {video::ActionClass::kLeftTurn}, mask, 0, 50),
      1.0);
}

// ---------------------------------------------------------------------------
// Configuration space invariants over every dataset family.

class ConfigSpacePropertyTest
    : public testing::TestWithParam<video::DatasetFamily> {};

TEST_P(ConfigSpacePropertyTest, AlphasNormalizedAndExtremesConsistent) {
  auto space = core::ConfigurationSpace::ForFamily(GetParam());
  space.AttachCosts(core::CostModel{});
  double alpha_sum = 0.0;
  for (const auto& c : space.configs()) {
    EXPECT_GT(c.gpu_seconds_per_invocation, 0.0);
    EXPECT_GT(c.throughput_fps, 0.0);
    alpha_sum += c.alpha;
  }
  EXPECT_NEAR(alpha_sum, 1.0, 1e-9);
  // Slowest has the max per-invocation cost, fastest the max throughput.
  const auto& slowest = space.config(space.SlowestId());
  const auto& fastest = space.config(space.FastestId());
  for (const auto& c : space.configs()) {
    EXPECT_LE(c.gpu_seconds_per_invocation,
              slowest.gpu_seconds_per_invocation + 1e-12);
    EXPECT_LE(c.throughput_fps, fastest.throughput_fps + 1e-9);
  }
}

TEST_P(ConfigSpacePropertyTest, FrozenKnobShrinksSpace) {
  auto space = core::ConfigurationSpace::ForFamily(GetParam());
  for (auto knob : {core::Knob::kResolution, core::Knob::kSegmentLength,
                    core::Knob::kSamplingRate}) {
    auto frozen = space.WithFrozenKnob(knob);
    EXPECT_LT(frozen.size(), space.size());
    EXPECT_GT(frozen.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ConfigSpacePropertyTest,
                         testing::Values(video::DatasetFamily::kBdd100kLike,
                                         video::DatasetFamily::kThumos14Like,
                                         video::DatasetFamily::kActivityNetLike,
                                         video::DatasetFamily::kCityscapesLike,
                                         video::DatasetFamily::kKittiLike),
                         [](const testing::TestParamInfo<video::DatasetFamily>&
                                info) {
                           // gtest names must be alphanumeric.
                           std::string name = video::DatasetFamilyName(info.param);
                           std::string clean;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               clean += c;
                             }
                           }
                           return clean;
                         });

// ---------------------------------------------------------------------------
// Dataset generation respects its profile across seeds.

class DatasetSeedTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DatasetSeedTest, StatisticsTrackProfileTargets) {
  auto profile =
      video::DatasetProfile::ForFamily(video::DatasetFamily::kBdd100kLike);
  profile.num_videos = 10;
  profile.frames_per_video = 400;
  auto ds = video::SyntheticDataset::Generate(profile, GetParam());
  auto stats = ds.ComputeStatistics();
  EXPECT_EQ(stats.total_frames, 10L * 400);
  // Realized density within a loose band of the target.
  EXPECT_GT(stats.percent_action_frames, 100.0 * profile.action_fraction * 0.4);
  EXPECT_LT(stats.percent_action_frames, 100.0 * profile.action_fraction * 3.0);
  EXPECT_GE(stats.min_action_length, profile.min_action_length);
  EXPECT_LE(stats.max_action_length, profile.max_action_length);
  // Splits partition the videos.
  EXPECT_EQ(ds.train_indices().size() + ds.val_indices().size() +
                ds.test_indices().size(),
            ds.num_videos());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetSeedTest,
                         testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace zeus
