#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "apfg/feature_cache.h"
#include "apfg/r3d.h"
#include "cluster/protocol.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "core/batched_executor.h"
#include "core/executor.h"
#include "core/metrics.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "rl/env.h"
#include "tensor/gemm.h"
#include "trace.h"
#include "video/decoder.h"

namespace zeus::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Median wall time of `reps` calls of `fn`, in microseconds, each call
// inside a span named `span`.
template <typename Fn>
double MedianMicros(const char* span, int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    ScopedSpan s(span);
    const auto a = Clock::now();
    fn();
    t.push_back(Micros(a, Clock::now()));
  }
  return Percentile(t, 50.0);
}

struct GemmShape {
  int m, n, k;
};

// The GEMMs a Conv3d stack lowers to for one segment (vol2col: weights
// {out, in*kt*kh*kw} times columns {in*kt*kh*kw, To*Ho*Wo}), plus the
// Linear layers' multiply-adds, for one decode spec.
struct Lowering {
  std::vector<GemmShape> conv;
  double flops = 0.0;
};

Lowering LowerR3d(apfg::R3dLite* model, const video::DecodeSpec& spec) {
  Lowering out;
  int t = spec.segment_length, h = spec.resolution_px, w = spec.resolution_px;
  nn::Sequential& net = model->net();
  for (size_t i = 0; i < net.NumLayers(); ++i) {
    if (auto* conv = dynamic_cast<nn::Conv3d*>(net.layer(i))) {
      const auto& o = conv->options();
      const int to = nn::Conv3d::OutDim(t, o.kernel[0], o.stride[0], o.padding[0]);
      const int ho = nn::Conv3d::OutDim(h, o.kernel[1], o.stride[1], o.padding[1]);
      const int wo = nn::Conv3d::OutDim(w, o.kernel[2], o.stride[2], o.padding[2]);
      const GemmShape g{conv->out_channels(), to * ho * wo,
                        conv->in_channels() * o.kernel[0] * o.kernel[1] *
                            o.kernel[2]};
      out.conv.push_back(g);
      out.flops += 2.0 * g.m * g.n * g.k;
      t = to;
      h = ho;
      w = wo;
    } else if (auto* lin = dynamic_cast<nn::Linear*>(net.layer(i))) {
      out.flops += 2.0 * lin->in_features() * lin->out_features();
    }
  }
  return out;
}

std::vector<float> RandomVector(size_t n, common::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng->NextUniform(-1.0, 1.0));
  return v;
}

// Spearman rank correlation (average ranks for ties).
double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size();) {
      size_t j = i;
      while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]]) ++j;
      for (size_t k = i; k <= j; ++k) r[idx[k]] = (i + j) / 2.0;
      i = j + 1;
    }
    return r;
  };
  const std::vector<double> rx = ranks(x), ry = ranks(y);
  const double n = static_cast<double>(x.size());
  const double mx = std::accumulate(rx.begin(), rx.end(), 0.0) / n;
  const double my = std::accumulate(ry.begin(), ry.end(), 0.0) / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

void ReplayLayers(const LayerInputs& in, Report* report) {
  common::Rng rng(report->args().seed + 101);
  const core::QueryPlan& plan0 = *in.plans.front();
  const std::vector<const video::Video*>& videos0 = in.videos.front();
  const video::Video& video0 = *videos0.front();
  const video::DecodeSpec best =
      plan0.space.config(plan0.space.SlowestId()).spec;
  apfg::R3dLite* model = plan0.apfg->ModelFor(best);

  // ---- tensor ----
  const Lowering low = LowerR3d(model, best);
  double sgemm_flops = 0.0, sgemm_us = 0.0, int8_us = 0.0;
  for (const GemmShape& g : low.conv) {
    const std::vector<float> a = RandomVector(size_t(g.m) * g.k, &rng);
    const std::vector<float> b = RandomVector(size_t(g.k) * g.n, &rng);
    std::vector<float> c(size_t(g.m) * g.n);
    const int reps = 200;
    sgemm_us += reps * MedianMicros("tensor.sgemm", reps, [&] {
      tensor::Sgemm(false, false, g.m, g.n, g.k, 1.0f, a.data(), g.k,
                    b.data(), g.n, 0.0f, c.data(), g.n);
    });
    tensor::Int8Panels pa, pb;
    tensor::QuantizePackA(a.data(), g.k, g.m, g.k, &pa);
    tensor::QuantizePackB(b.data(), g.n, false, g.k, g.n, &pb);
    int8_us += reps * MedianMicros("tensor.int8_gemm", reps, [&] {
      tensor::QuantizedGemm(g.m, g.n, g.k, pa, pb, c.data(), g.n);
    });
    sgemm_flops += reps * 2.0 * g.m * g.n * g.k;
  }
  report->Layer("tensor.sgemm_gflops", sgemm_flops / sgemm_us / 1e3, "GFLOP/s");
  report->Layer("tensor.int8_gemm_gops", sgemm_flops / int8_us / 1e3, "GOP/s");
  report->Layer("tensor.flops_per_segment", low.flops, "count");
  std::string per_spec = "{";
  for (const core::Configuration& c : plan0.space.configs()) {
    per_spec += common::Format("%s\"%s\": %.0f", per_spec.size() > 1 ? ", " : "",
                               c.ToString().c_str(), LowerR3d(model, c.spec).flops);
  }
  report->Detail("flops_per_segment_by_config", per_spec + "}");

  // ---- nn ----
  {
    common::Rng wrng(7);
    nn::Conv3d::Options stem;
    stem.kernel = {3, 3, 3};
    stem.stride = {1, 2, 2};
    stem.padding = {1, 1, 1};
    nn::Conv3d conv(1, model->options().base_channels, stem, &wrng);
    for (int batch : {1, 8}) {
      tensor::Tensor x({batch, 1, best.segment_length, best.resolution_px,
                        best.resolution_px});
      for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.NextDouble());
      const double us = MedianMicros("nn.conv3d_forward", 100,
                                     [&] { conv.Forward(x, false); });
      report->Layer(common::Format("nn.conv3d_forward_b%d_us", batch), us, "us");
    }
    apfg::R3dLite fresh(model->options(), &wrng);
    const int batch = 16;
    tensor::Tensor x({batch, 1, best.segment_length, best.resolution_px,
                      best.resolution_px});
    for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.NextDouble());
    tensor::Tensor grad({batch, model->options().num_classes}, 1.0f / batch);
    const double us = MedianMicros("nn.train_step", 20, [&] {
      fresh.Logits(x, true);
      fresh.Backward(grad);
    });
    report->Layer("nn.train_step_ms", us / 1e3, "ms");
  }

  // ---- video / apfg, per spec of the plan's RL space ----
  {
    std::vector<double> decode_us, forward_us, process_us;
    for (const core::Configuration& c : plan0.rl_space.configs()) {
      const int reps = 60;
      std::vector<int> starts;
      const int span = std::max(1, video0.num_frames() - c.CoveredFrames());
      for (int i = 0; i < reps; ++i) starts.push_back((i * 37) % span);
      int i = 0;
      decode_us.push_back(MedianMicros("video.decode", reps, [&] {
        video::SegmentDecoder::Decode(video0, starts[size_t(i++ % reps)], c.spec);
      }));
      tensor::Tensor seg = video::SegmentDecoder::Decode(video0, 0, c.spec);
      std::vector<int> dims = seg.shape();
      dims.insert(dims.begin(), 1);
      const tensor::Tensor batch = seg.Reshape(dims);
      apfg::R3dLite* m = plan0.apfg->ModelFor(c.spec);
      forward_us.push_back(MedianMicros("apfg.forward", reps, [&] {
        m->FeaturesAndLogits(batch);
      }));
      i = 0;
      process_us.push_back(MedianMicros("apfg.process", reps, [&] {
        plan0.apfg->Process(video0, starts[size_t(i++ % reps)], c.spec);
      }));
    }
    report->Layer("video.decode_us", Mean(decode_us), "us");
    report->Layer("apfg.forward_us", Mean(forward_us), "us");
    report->Layer("apfg.process_us", Mean(process_us), "us");
  }

  // ---- modeled vs measured: CostModel cost against Apfg::Process time
  // over the full configuration grid ----
  {
    std::vector<double> modeled, measured;
    for (const core::Configuration& c : plan0.space.configs()) {
      modeled.push_back(c.gpu_seconds_per_invocation);
      const int span = std::max(1, video0.num_frames() - c.CoveredFrames());
      int i = 0;
      measured.push_back(MedianMicros("apfg.process", 15, [&] {
        plan0.apfg->Process(video0, (i++ * 53) % span, c.spec);
      }));
    }
    report->Layer("core.cost_rank_corr", Spearman(modeled, measured), "ratio");
  }

  // ---- rl: greedy policy and env steps over the plan's hot cache ----
  {
    rl::VideoEnv env(videos0, &plan0.rl_space, plan0.cache.get(), plan0.targets,
                     plan0.env_opts);
    std::vector<double> act_us, step_us;
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms the cache
      env.ResetSequential();
      int steps = 0;
      while (!env.done() && steps++ < 4000) {
        auto a0 = Clock::now();
        int action;
        {
          ScopedSpan s("rl.greedy_action");
          action = plan0.agent != nullptr ? plan0.agent->GreedyAction(env.state())
                                          : 0;
        }
        auto a1 = Clock::now();
        {
          ScopedSpan s("rl.env_step");
          env.Step(action);
        }
        auto a2 = Clock::now();
        if (pass == 1) {
          act_us.push_back(Micros(a0, a1));
          step_us.push_back(Micros(a1, a2));
        }
      }
    }
    report->Layer("rl.greedy_action_us", Percentile(act_us, 50), "us");
    report->Layer("rl.env_step_us", Percentile(step_us, 50), "us");
  }

  // ---- core: executors, evaluation, planner phases ----
  {
    std::vector<double> cold_ms, seq_ms, invocations, eval_us;
    std::vector<double> apfg_s, profile_s, rl_s;
    for (const auto& plan : in.trained) {
      apfg_s.push_back(plan->apfg_train_seconds);
      profile_s.push_back(plan->profile_seconds);
      rl_s.push_back(plan->rl_train_seconds);
    }
    for (size_t p = 0; p < in.plans.size(); ++p) {
      const core::QueryPlan& plan = *in.plans[p];
      const auto& videos = in.videos[p];
      core::QueryPlan cold = plan;
      cold.cache = std::make_shared<apfg::FeatureCache>(cold.apfg.get());
      core::RunResult run;
      {
        ScopedSpan s("core.localize_batched_cold");
        const auto a = Clock::now();
        run = core::BatchedExecutor(&cold).Localize(videos);
        cold_ms.push_back(Micros(a, Clock::now()) / 1e3);
      }
      invocations.push_back(static_cast<double>(run.invocations));
      {
        ScopedSpan s("core.localize_seq");
        const auto a = Clock::now();
        core::QueryExecutor(&plan).Localize(videos);
        seq_ms.push_back(Micros(a, Clock::now()) / 1e3);
      }
      eval_us.push_back(MedianMicros("core.evaluate", 50, [&] {
        core::EvaluateVideos(videos, plan.targets, run.masks, core::EvalOptions{});
      }));
    }
    report->Layer("core.localize_cold_ms", Mean(cold_ms), "ms");
    report->Layer("core.localize_seq_ms", Mean(seq_ms), "ms");
    report->Layer("core.invocations_per_query", Mean(invocations), "count");
    report->Layer("core.evaluate_us", Mean(eval_us), "us");
    report->Layer("core.plan_apfg_train_s", Mean(apfg_s), "s");
    report->Layer("core.plan_profile_s", Mean(profile_s), "s");
    report->Layer("rl.train_s", Mean(rl_s), "s");
  }

  // ---- core: plan load from the catalog ----
  double load_ms = 0.0;
  if (!in.catalog.empty()) {
    engine::QueryEngine::Options opts = GroupOptions(in.catalog, false).engine;
    engine::QueryEngine eng(opts);
    report->Check(eng.RegisterDataset(in.catalog_dataset, in.catalog_data).ok(),
                  "plan-load replay: register");
    ScopedSpan s("core.plan_load");
    const auto a = Clock::now();
    const size_t loaded = eng.WarmUpDataset(in.catalog_dataset);
    load_ms = Micros(a, Clock::now()) / 1e3;
    report->Check(loaded > 0, "plan-load replay: no plan loaded");
  }
  report->Layer("core.plan_load_ms", load_ms, "ms");

  // ---- net: result codec ----
  {
    std::string wire;
    engine::QueryResult back;
    const double us = MedianMicros("net.result_codec", 200, [&] {
      wire = cluster::EncodeQueryResult(in.sample);
      cluster::DecodeQueryResult(wire, &back);
    });
    report->Check(engine::SameSegments(in.sample, back) &&
                      in.sample.metrics.tp == back.metrics.tp &&
                      in.sample.metrics.fp == back.metrics.fp &&
                      in.sample.metrics.fn == back.metrics.fn,
                  "result codec round trip");
    report->Layer("net.result_codec_us", us, "us");
    report->Layer("net.result_bytes", static_cast<double>(wire.size()), "bytes");
  }
}

void ReportNoPlanScaling(Report* report) {
  report->Layer("core.plan_serial_s", 0.0, "s");
  report->Layer("core.plan_pooled_s", 0.0, "s");
  report->Layer("core.plan_thread_speedup", 0.0, "ratio");
}

void ReportTrace(double untraced, double traced, Report* report) {
  const Tracer& t = Tracer::Get();
  const std::map<std::string, double> self = t.SelfMillisByModule();
  for (const char* m : {"tensor", "nn", "apfg", "video", "rl", "core", "engine",
                        "net", "cluster"}) {
    auto it = self.find(m);
    report->Layer(std::string("self.") + m + "_ms",
                  it == self.end() ? 0.0 : it->second, "ms");
  }
  report->Layer("trace.spans", static_cast<double>(t.size()), "count");
  report->Layer("trace.overhead_pct",
                untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0,
                "%");
  std::string totals = "{";
  for (const auto& [name, v] : t.TotalsByName()) {
    totals += common::Format("%s\"%s\": {\"ms\": %.3f, \"count\": %ld}",
                             totals.size() > 1 ? ", " : "", name.c_str(),
                             v.first, v.second);
  }
  report->Detail("span_totals", totals + "}");
  const Args& a = report->args();
  if (!a.out_dir.empty()) {
    const std::string path = common::Format(
        "%s/%s-seed%llu.spans.jsonl", a.out_dir.c_str(), a.workload.c_str(),
        static_cast<unsigned long long>(a.seed));
    report->Check(t.WriteJsonLines(path), "write span file " + path);
    report->Detail("span_file", "\"" + path + "\"");
  }
}

}  // namespace zeus::perfbench
