// `adapt`: adapts a pretrained base model to the shifted target domain.
// Each round runs core::run_pipeline (LUC compression: sensitivity ->
// search -> apply, then Edge-LLM tuning iterations, voting and evaluation)
// on a fresh copy of the base checkpoint, then a few vanilla full-depth
// iterations on an uncompressed copy. Rounds repeat until the run's time is
// up; only whole rounds are counted.
#include <algorithm>
#include <cmath>
#include <functional>
#include <filesystem>
#include <random>

#include "core/pipeline.hpp"
#include "core/voting.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace pb {

using namespace edgellm;

namespace {

constexpr int64_t kBatch = 8;
constexpr int64_t kSeq = 16;
constexpr int64_t kTuneIters = 24;
constexpr int64_t kVanillaIters = 6;
constexpr int64_t kWindow = 2;
constexpr double kBudgetBits = 3.0;
constexpr float kLr = 1e-2f;
/// Cold set-ups timed per round (a round takes about 2 s; a set-up ~10 ms).
constexpr int kSetupsPerRound = 4;

core::PipelineConfig pipeline_config(uint64_t seed, obs::Registry& reg) {
  core::PipelineConfig p;
  p.adaptation_iters = kTuneIters;
  p.batch = kBatch;
  p.seq = kSeq;
  p.calib_batches = 1;
  p.eval_batches = 1;
  p.seed = seed;
  p.compute_threads = 1;
  p.luc.target_effective_bits = kBudgetBits;
  p.luc.search = core::LucConfig::Search::kExactDp;
  p.tuner.backprop_window = kWindow;
  // Round-robin exits: every round trains each exit equally often, so the
  // per-exit iteration times below do not depend on the seed's draws.
  p.tuner.sampling = core::DepthSampling::kCyclic;
  p.tuner.optim.lr = kLr;
  p.metrics = &reg;
  return p;
}

int64_t peak_bytes(const core::StepStats& s) {
  return s.activation_bytes + s.grad_bytes + s.optimizer_state_bytes;
}

/// Mean next-token NLL of the exits combined the way the engine's voted
/// policy combines them (uniform weights) — computed by the benchmark, not
/// by the pipeline, so the quality check is independent of it.
double voted_nll(nn::CausalLm& model, const std::vector<data::LmBatch>& batches) {
  const size_t n_exits = model.exit_layers().size();
  const std::vector<float> w(n_exits, 1.0f / static_cast<float>(n_exits));
  const std::vector<float> l(n_exits, 0.0f);
  const int64_t vocab = model.config().vocab;
  double nll = 0.0;
  int64_t n = 0;
  for (const data::LmBatch& b : batches) {
    const Tensor lp = core::combine_exit_logits(model.forward_all_exits(b.inputs, b.batch, b.seq),
                                                w, l, core::VoterConfig{});
    for (size_t i = 0; i < b.targets.size(); ++i) {
      nll -= lp[static_cast<int64_t>(i) * vocab + b.targets[i]];
      ++n;
    }
  }
  return nll / static_cast<double>(n);
}

/// d(mean cross-entropy)/d(logits) for a [rows, vocab] logits tensor.
Tensor ce_grad(const Tensor& logits, const std::vector<int64_t>& targets) {
  const int64_t vocab = logits.dim(-1);
  const int64_t rows = logits.numel() / vocab;
  Tensor g(Shape{rows, vocab});
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = logits.raw() + r * vocab;
    float mx = x[0];
    for (int64_t v = 1; v < vocab; ++v) mx = std::max(mx, x[v]);
    double z = 0.0;
    for (int64_t v = 0; v < vocab; ++v) z += std::exp(static_cast<double>(x[v] - mx));
    for (int64_t v = 0; v < vocab; ++v) {
      const double p = std::exp(static_cast<double>(x[v] - mx)) / z;
      g[r * vocab + v] = static_cast<float>((p - (v == targets[static_cast<size_t>(r)] ? 1.0 : 0.0)) /
                                            static_cast<double>(rows));
    }
  }
  return g;
}

Tensor random_tensor(Shape shape, std::mt19937& gen) {
  std::normal_distribution<float> d(0.0f, 0.5f);
  Tensor t(std::move(shape));
  for (float& v : t.data()) v = d(gen);
  return t;
}

/// GFLOP/s of one op at a fixed shape, median over >= 20 ms of calls.
double gflops(const std::function<Tensor()>& op, double flops) {
  Tensor sink;
  const double ms = time_per_call_ms([&] { sink = op(); }, 20.0, 5);
  return flops / (ms * 1e6);
}

/// Checks that a histogram of integer observations only saw allowed values
/// and saw `expected` of them.
bool integer_histogram_ok(const obs::Histogram& h, int64_t expected,
                          const std::function<bool(int64_t)>& allowed) {
  if (h.count() != expected) return false;
  for (size_t i = 0; i < h.n_buckets(); ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (i >= h.bounds().size() || !allowed(static_cast<int64_t>(h.bounds()[i]))) return false;
  }
  return true;
}

/// Per-layer timings of the traced run, measured on the models the round
/// loop produced (all outside the timed rounds).
void layer_probes(nn::CausalLm& edge, nn::CausalLm& vanilla, const data::MarkovChain& domain,
                  const std::vector<core::StepStats>& edge_steps, uint64_t seed,
                  LayerValues& layers) {
  Rng rng(mix_seed(seed, 40));
  std::vector<double> fwd_e, bwd_e, fwd_v, bwd_v;
  for (const core::StepStats& s : edge_steps) {
    const data::LmBatch b = data::sample_lm_batch(domain, kBatch, kSeq, rng);
    const nn::ForwardPlan plan{s.exit_layer, s.backprop_depth, false, false};
    Tensor logits;
    {
      const Clock::time_point t0 = Clock::now();
      {
        const Span span("nn.train_forward.edge");
        logits = edge.forward(b.inputs, b.batch, b.seq, plan);
      }
      const Clock::time_point t1 = Clock::now();
      const Tensor g = ce_grad(logits, b.targets);
      const Clock::time_point t2 = Clock::now();
      {
        const Span span("nn.train_backward.edge");
        edge.backward(g);
      }
      fwd_e.push_back(ms_between(t0, t1));
      bwd_e.push_back(ms_between(t2, Clock::now()));
    }
  }
  const int64_t n = vanilla.config().n_layers;
  for (int64_t i = 0; i < kVanillaIters * 2; ++i) {
    const data::LmBatch b = data::sample_lm_batch(domain, kBatch, kSeq, rng);
    const Clock::time_point t0 = Clock::now();
    Tensor logits;
    {
      const Span span("nn.train_forward.vanilla");
      logits = vanilla.forward(b.inputs, b.batch, b.seq, nn::ForwardPlan::full(n));
    }
    const Clock::time_point t1 = Clock::now();
    const Tensor g = ce_grad(logits, b.targets);
    const Clock::time_point t2 = Clock::now();
    {
      const Span span("nn.train_backward.vanilla");
      vanilla.backward(g);
    }
    fwd_v.push_back(ms_between(t0, t1));
    bwd_v.push_back(ms_between(t2, Clock::now()));
  }
  const double step_e = mean(spans().durations("core.tuner_step"));
  const double step_v = mean(spans().durations("core.vanilla_step"));
  layers["core.tuner_step_ms"] = step_e;
  layers["core.vanilla_step_ms"] = step_v;
  layers["nn.train_forward_ms.edge"] = mean(fwd_e);
  layers["nn.train_backward_ms.edge"] = mean(bwd_e);
  layers["nn.train_forward_ms.vanilla"] = mean(fwd_v);
  layers["nn.train_backward_ms.vanilla"] = mean(bwd_v);
  // The tuner step's remainder: loss, clipping and the optimizer update.
  layers["nn.optim_step_ms.edge"] = std::max(0.0, step_e - mean(fwd_e) - mean(bwd_e));
  layers["nn.optim_step_ms.vanilla"] = std::max(0.0, step_v - mean(fwd_v) - mean(bwd_v));

  // Per-block forward/backward at the training shape, uncompressed weights.
  std::mt19937 gen(static_cast<uint32_t>(seed));
  const int64_t d = vanilla.config().d_model;
  const std::vector<nn::TransformerBlock*> blocks = vanilla.blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    nn::TransformerBlock& blk = *blocks[i];
    blk.set_grad_enabled(true);
    const Tensor x = random_tensor({kBatch, kSeq, d}, gen);
    const Tensor gy = random_tensor({kBatch, kSeq, d}, gen);
    std::vector<double> f, bw;
    for (int rep = 0; rep < 30; ++rep) {
      const Clock::time_point t0 = Clock::now();
      Tensor y;
      {
        const Span span("nn.block_forward");
        y = blk.forward(x);
      }
      const Clock::time_point t1 = Clock::now();
      {
        const Span span("nn.block_backward");
        blk.backward(gy);
      }
      f.push_back(ms_between(t0, t1) * 1000.0);
      bw.push_back(ms_between(t1, Clock::now()) * 1000.0);
    }
    blk.clear_cache();
    layers["nn.block_fwd_us." + std::to_string(i)] = median(f);
    layers["nn.block_bwd_us." + std::to_string(i)] = median(bw);
  }

  // GEMMs at the training shapes: rows = batch * seq tokens, d_model d,
  // feed-forward width ff, heads h of width hd over kSeq positions.
  const int64_t rows = kBatch * kSeq, ff = vanilla.config().ff_dim();
  const int64_t h = vanilla.config().n_heads, hd = d / h;
  const Tensor xa = random_tensor({rows, d}, gen), w1 = random_tensor({ff, d}, gen);
  const Tensor gh = random_tensor({rows, ff}, gen);
  const Tensor q = random_tensor({kBatch * h, kSeq, hd}, gen);
  const Tensor kt = random_tensor({kBatch * h, hd, kSeq}, gen);
  const Tensor att = random_tensor({kBatch * h, kSeq, kSeq}, gen);
  {
    const Span span("tensor.gemm_probes");
    layers["tensor.matmul_nt_gflops"] =
        gflops([&] { return ops::matmul_nt(xa, w1); }, 2.0 * rows * ff * d);
    layers["tensor.matmul_tn_gflops"] =
        gflops([&] { return ops::matmul_tn(gh, xa); }, 2.0 * ff * d * rows);
    layers["tensor.bmm_gflops"] =
        gflops([&] { return ops::bmm(q, kt); }, 2.0 * kBatch * h * kSeq * kSeq * hd);
    layers["tensor.bmm_tn_gflops"] =
        gflops([&] { return ops::bmm_tn(att, q); }, 2.0 * kBatch * h * kSeq * kSeq * hd);
  }

  // Materialising the compressed (quantized + pruned) weights.
  std::vector<double> ew;
  for (nn::TransformerBlock* blk : edge.blocks()) {
    for (nn::Linear* lin : blk->linears()) {
      Tensor w;
      ew.push_back(time_per_call_ms([&] { w = lin->effective_weight(); }, 2.0) * 1000.0);
    }
  }
  layers["quant.effective_weight_us"] = mean(ew);
}

/// What a user waits for before the first unit of work: the base
/// checkpoint loaded for Edge-LLM and for the vanilla baseline, and the
/// vanilla tuner built.
struct AdaptSetup {
  std::unique_ptr<nn::CausalLm> model, vanilla_model;
  std::unique_ptr<core::AdaptiveLayerTuner> vanilla;
};

AdaptSetup adapt_setup(const std::string& base_path, uint64_t seed) {
  AdaptSetup s;
  s.model = nn::load_model_with_config(base_path);
  s.vanilla_model = nn::load_model_with_config(base_path);
  core::TunerConfig vcfg = core::TunerConfig::vanilla();
  vcfg.optim.lr = kLr;
  s.vanilla = std::make_unique<core::AdaptiveLayerTuner>(*s.vanilla_model, vcfg, Rng(mix_seed(seed, 1)));
  return s;
}

}  // namespace

void setup_adapt(const Options& opt) { adapt_setup(ensure_adapt_base(opt), opt.seed); }

Result run_adapt(const Options& opt, LayerValues& layers) {
  Result r;
  Probe probe;
  const std::string base_path = ensure_adapt_base(opt);
  AdaptSetup set = adapt_setup(base_path, opt.seed);
  std::unique_ptr<nn::CausalLm> model = std::move(set.model);
  nn::CausalLm& vanilla_model = *set.vanilla_model;
  core::AdaptiveLayerTuner& vanilla = *set.vanilla;
  const data::MarkovChain domain = make_domain(kTargetShift);
  const std::vector<int64_t> exits = model->exit_layers();
  std::vector<double> setup_ms;

  Rng data_rng(mix_seed(opt.seed, 2));
  std::vector<double> compress_ms, vanilla_ms, latency_ms, pipeline_ms, round_tok_s_ms;
  // Iteration times grouped by exit: under cyclic sampling iteration i
  // runs to exits[i % exits.size()].
  std::vector<std::vector<double>> step_ms_by_exit(model->exit_layers().size());
  int64_t edge_peak = 0, vanilla_peak = 0;
  std::vector<core::StepStats> replay_steps;
  std::unique_ptr<nn::CausalLm> replayed;
  double pre_loss = 0.0, post_loss = 0.0;

  const Clock::time_point run_t0 = Clock::now();
  for (int64_t round = 0;; ++round) {
    if (round > 0 && ms_between(run_t0, Clock::now()) >= opt.seconds * 1000.0) break;
    if (round > 0) model = nn::load_model_with_config(base_path);
    // Every round repeats the same inputs (one pipeline seed per run), so
    // rounds differ only in how fast the host ran them.
    for (int i = 0; i < kSetupsPerRound; ++i) setup_ms.push_back(cold_setup_ms(opt));
    obs::Registry reg;
    core::PipelineConfig pcfg = pipeline_config(mix_seed(opt.seed, 100), reg);
    std::vector<Clock::time_point> marks;
    marks.reserve(kTuneIters);
    pcfg.before_step = [&marks](int64_t) { marks.push_back(Clock::now()); };

    probe.run(kProbeReps);
    const Clock::time_point t0 = Clock::now();
    core::PipelineResult res;
    {
      const Span span("core.run_pipeline");
      res = core::run_pipeline(*model, domain, pcfg);
    }
    const Clock::time_point t1 = Clock::now();
    probe.run(kProbeReps);
    r.attempted += 1;  // the compression stage
    r.attempted += kTuneIters;

    r.check(static_cast<int64_t>(marks.size()) == kTuneIters, "adapt: before_step not called once per iteration");
    if (static_cast<int64_t>(marks.size()) == kTuneIters) {
      compress_ms.push_back(ms_between(t0, marks[0]));
      for (size_t i = 1; i < marks.size(); ++i) {
        step_ms_by_exit[(i - 1) % step_ms_by_exit.size()].push_back(ms_between(marks[i - 1], marks[i]));
      }
      round_tok_s_ms.push_back(ms_between(marks.front(), marks.back()) /
                               static_cast<double>((kTuneIters - 1) * kBatch * kSeq));
    }
    // Time to an adapted model: compression plus every tuning iteration
    // but the last, whose end run_pipeline does not expose. The evaluation
    // stage after it is reported raw only (see README.md).
    if (!marks.empty()) latency_ms.push_back(ms_between(t0, marks.back()));
    pipeline_ms.push_back(ms_between(t0, t1));

    // Policy, steps and numeric health of this round.
    r.check(res.policy.avg_effective_bits() <= kBudgetBits + 1e-9,
            "adapt: LUC policy exceeds the effective-bits budget");
    r.check(integer_histogram_ok(reg.histogram("tuner/exit_depth"), kTuneIters,
                                 [&](int64_t e) {
                                   return std::find(exits.begin(), exits.end(), e) != exits.end();
                                 }),
            "adapt: a step ran to an exit depth that is not a registered exit");
    r.check(integer_histogram_ok(reg.histogram("tuner/backprop_depth"), kTuneIters,
                                 [](int64_t w) { return w >= 1 && w <= kWindow; }),
            "adapt: a step backpropagated deeper than the window");
    r.check(res.skipped_steps == 0 && res.rollbacks == 0, "adapt: numeric guard fired");
    for (float l : res.loss_curve) r.check(std::isfinite(l), "adapt: non-finite training loss");
    edge_peak = std::max(edge_peak, res.peak_activation_bytes + res.peak_grad_bytes +
                                        res.peak_optimizer_bytes);

    if (round == 0) {
      // Quality, on held-out batches the benchmark draws itself: the adapted
      // model's voted loss must beat the compressed model before tuning.
      Rng eval_rng(mix_seed(opt.seed, 3));
      std::vector<data::LmBatch> held_out;
      for (int i = 0; i < 4; ++i) held_out.push_back(data::sample_lm_batch(domain, kBatch, kSeq, eval_rng));
      auto untuned = nn::load_model_with_config(base_path);
      core::apply_policy(*untuned, res.policy);
      pre_loss = voted_nll(*untuned, held_out);
      post_loss = voted_nll(*model, held_out);
      r.check(post_loss < pre_loss, "adapt: adaptation did not lower the held-out voted loss");
      r.check(res.voted_perplexity > 0.0f && res.voted_perplexity < 32.0f,
              "adapt: voted perplexity not below the vocabulary size");
      r.check(res.mcq_accuracy > 0.25f, "adapt: MCQ accuracy not above chance (1/4)");

      if (opt.trace) {
        // Replay the pipeline's stages with the benchmark's own calls, each
        // in a span; the adapted checkpoint must come out byte-identical.
        obs::Registry reg2;
        const core::PipelineConfig rcfg = pipeline_config(pcfg.seed, reg2);
        replayed = nn::load_model_with_config(base_path);
        Rng rng(rcfg.seed);
        std::vector<data::LmBatch> calib, eval_set;
        for (int64_t i = 0; i < rcfg.calib_batches; ++i)
          calib.push_back(data::sample_lm_batch(domain, rcfg.batch, rcfg.seq, rng));
        for (int64_t i = 0; i < rcfg.eval_batches; ++i)
          eval_set.push_back(data::sample_lm_batch(domain, rcfg.batch, rcfg.seq, rng));
        core::SensitivityProfile profile;
        core::LucPolicy policy;
        {
          const Span span("core.sensitivity");
          profile = core::analyze_sensitivity(*replayed, calib, rcfg.sensitivity);
        }
        {
          const Span span("core.luc_search");
          policy = core::search_luc_policy(profile, rcfg.sensitivity, rcfg.luc);
        }
        {
          const Span span("core.apply_policy");
          core::apply_policy(*replayed, policy, rcfg.sensitivity.prune_pattern,
                             rcfg.sensitivity.quant_granularity);
        }
        core::AdaptiveLayerTuner tuner(*replayed, rcfg.tuner, rng.fork());
        for (int64_t i = 0; i < rcfg.adaptation_iters; ++i) {
          const data::LmBatch b = data::sample_lm_batch(domain, rcfg.batch, rcfg.seq, rng);
          const Span span("core.tuner_step");
          replay_steps.push_back(tuner.step(b));
        }
        for (const core::StepStats& s : replay_steps) {
          r.check(std::find(exits.begin(), exits.end(), s.exit_layer) != exits.end(),
                  "adapt: traced step exit depth is not a registered exit");
          r.check(s.backprop_depth >= 1 && s.backprop_depth <= kWindow,
                  "adapt: traced step backprop depth exceeds the window");
        }
        const std::string dir = opt.work_dir + "/scratch";
        std::filesystem::create_directories(dir);
        nn::save_model_with_config(*model, dir + "/adapt_pipeline.ellm");
        nn::save_model_with_config(*replayed, dir + "/adapt_replay.ellm");
        r.check(read_file(dir + "/adapt_pipeline.ellm") == read_file(dir + "/adapt_replay.ellm"),
                "adapt: replayed stages do not reproduce run_pipeline's checkpoint");
      }
    }

    // The vanilla full-depth baseline on the same batch shape, uncompressed.
    for (int64_t i = 0; i < kVanillaIters; ++i) {
      const data::LmBatch b = data::sample_lm_batch(domain, kBatch, kSeq, data_rng);
      const Clock::time_point v0 = Clock::now();
      core::StepStats s;
      {
        const Span span("core.vanilla_step");
        s = vanilla.step(b);
      }
      vanilla_ms.push_back(ms_between(v0, Clock::now()));
      vanilla_peak = std::max(vanilla_peak, peak_bytes(s));
      r.check(std::isfinite(s.loss) && !s.skipped, "adapt: vanilla step not finite");
    }
    r.attempted += kVanillaIters;
    probe.run(kProbeReps);
  }
  r.check(edge_peak > 0 && edge_peak < vanilla_peak,
          "adapt: Edge-LLM peak training bytes not below vanilla's");

  const double compress_low = quantile(compress_ms, kLowQuantile);
  // Mean over exits of each exit's low-quantile iteration time: the
  // expected iteration under uniform exit sampling.
  double step_low = 0.0, step_median = 0.0;
  for (const std::vector<double>& v : step_ms_by_exit) {
    step_low += quantile(v, kLowQuantile) / static_cast<double>(step_ms_by_exit.size());
    step_median += median(v) / static_cast<double>(step_ms_by_exit.size());
  }
  const double latency_low = quantile(latency_ms, kLowQuantile);
  const double per_token_low = quantile(round_tok_s_ms, kLowQuantile);
  const double vanilla_low = quantile(vanilla_ms, kLowQuantile);
  r.end_to_end(probe, quantile(setup_ms, kLowQuantile), compress_low, step_low, latency_low, per_token_low);

  r.detail("raw.setup_ms.p10", quantile(setup_ms, kLowQuantile));
  r.detail("raw.setup_ms.median", median(setup_ms));
  r.detail("raw.setups", static_cast<double>(setup_ms.size()));
  r.detail("raw.compress_ms.p10", compress_low);
  r.detail("raw.compress_ms.median", median(compress_ms));
  r.detail("raw.tune_iter_ms.p10", step_low);
  r.detail("raw.tune_iter_ms.median", step_median);
  r.detail("raw.vanilla_iter_ms.p10", vanilla_low);
  r.detail("raw.vanilla_iter_ms.median", median(vanilla_ms));
  r.detail("raw.adapted_ms.p10", latency_low);
  r.detail("raw.pipeline_ms.p10", quantile(pipeline_ms, kLowQuantile));
  r.detail("raw.pipeline_ms.median", median(pipeline_ms));
  r.detail("raw.rounds", static_cast<double>(pipeline_ms.size()));
  r.detail("vanilla_iter_ms", probe.normalise(vanilla_low));
  r.detail("vanilla_over_tune_iter", vanilla_low / step_low);
  r.detail("peak_train_bytes.edge", static_cast<double>(edge_peak));
  r.detail("peak_train_bytes.vanilla", static_cast<double>(vanilla_peak));
  r.detail("held_out_voted_nll.before", pre_loss);
  r.detail("held_out_voted_nll.after", post_loss);
  r.detail("probe_ms.p10", probe.low_ms());
  r.detail("probe_ms.median", median(probe.samples()));

  if (opt.trace) {
    layers["core.sensitivity_ms"] = mean(spans().durations("core.sensitivity"));
    layers["core.luc_search_ms"] = mean(spans().durations("core.luc_search"));
    layers["core.apply_policy_ms"] = mean(spans().durations("core.apply_policy"));
    double exit_sum = 0.0, depth_sum = 0.0;
    for (const core::StepStats& s : replay_steps) {
      exit_sum += static_cast<double>(s.exit_layer);
      depth_sum += static_cast<double>(s.backprop_depth);
    }
    const double n = std::max<double>(1.0, static_cast<double>(replay_steps.size()));
    layers["core.exit_depth_mean"] = exit_sum / n;
    layers["core.backprop_depth_mean"] = depth_sum / n;
    layers["core.peak_train_bytes.edge"] = static_cast<double>(edge_peak);
    layers["core.peak_train_bytes.vanilla"] = static_cast<double>(vanilla_peak);
    if (replayed) layer_probes(*replayed, vanilla_model, domain, replay_steps, opt.seed, layers);
  }
  return r;
}

}  // namespace pb
