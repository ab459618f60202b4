// `serve_unique`: drives an in-process serve::ServeEngine in a closed loop
// that keeps up to the batch width of requests outstanding. Each round
// submits the same pool of short unique prompts with long greedy outputs,
// mixing the final, fixed-early, voted and speculative exit policies. The
// prefix cache and HTTP are not involved.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <set>

#include "core/voting.hpp"
#include "nn/decoder.hpp"
#include "nn/kv_cache.hpp"
#include "nn/serialize.hpp"
#include "serve/engine.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace pb {

using namespace edgellm;

namespace {

constexpr int64_t kPool = 64;        ///< requests per round
constexpr int64_t kPromptLen = 8;
constexpr int64_t kNewTokens = 24;
constexpr int64_t kMaxBatch = 8;

Policy policy_of(int64_t i) { return static_cast<Policy>(i % 4); }

serve::Request make_request(int64_t id, const std::vector<int64_t>& prompt, Policy p) {
  serve::Request req;
  req.id = id;
  req.prompt = prompt;
  req.max_new_tokens = kNewTokens;
  switch (p) {
    case Policy::kFinal: req.exit_policy = serve::ExitPolicy::kFinal; break;
    case Policy::kFixedEarly:
      req.exit_policy = serve::ExitPolicy::kFixedEarly;
      req.exit_layer = kEarlyExit;
      break;
    case Policy::kVoted: req.exit_policy = serve::ExitPolicy::kVoted; break;
    case Policy::kSpeculative:
      req.exit_policy = serve::ExitPolicy::kSpeculative;
      req.draft_depth = kDraftDepth;
      req.draft_k = kDraftK;
      break;
  }
  return req;
}

/// One in-flight request as the generator sees it. Token times are written
/// by the engine's sink before on_done, read by the generator after it.
struct Flight {
  Clock::time_point submit_t;
  std::vector<Clock::time_point> token_t;
  std::future<serve::Completion> fut;
};

/// What a user waits for before the first request: the checkpoint loaded
/// and the engine constructed.
struct ServeSetup {
  std::unique_ptr<nn::CausalLm> model;
  std::unique_ptr<serve::ServeEngine> engine;
};

ServeSetup serve_setup(const std::string& path) {
  ServeSetup s;
  s.model = nn::load_model_with_config(path);
  serve::EngineConfig ecfg;
  ecfg.max_batch = kMaxBatch;
  ecfg.queue_capacity = 64;
  ecfg.threads = 1;
  ecfg.compute_threads = 1;
  s.engine = std::make_unique<serve::ServeEngine>(*s.model, ecfg);
  return s;
}

}  // namespace

void setup_serve_unique(const Options& opt) { serve_setup(ensure_serve_model(opt)); }

Result run_serve_unique(const Options& opt, LayerValues& layers) {
  Result r;
  Probe probe;
  const std::string path = ensure_serve_model(opt);
  ServeSetup set = serve_setup(path);
  nn::CausalLm* model = set.model.get();
  serve::ServeEngine* engine = set.engine.get();
  std::vector<double> setup_ms;

  // The request pool: unique short prompts from the shifted domain.
  const data::MarkovChain domain = make_domain(kTargetShift);
  Rng rng(mix_seed(opt.seed, 5));
  std::vector<std::vector<int64_t>> prompts;
  std::set<std::vector<int64_t>> seen;
  while (static_cast<int64_t>(prompts.size()) < kPool) {
    std::vector<int64_t> p = domain.sample(kPromptLen, rng);
    if (seen.insert(p).second) prompts.push_back(std::move(p));
  }

  // Reference outputs, on a separate copy of the checkpoint, untimed.
  std::vector<std::vector<int64_t>> expected(kPool);
  {
    const Span span("reference.decode");
    auto ref_model = nn::load_model_with_config(path);
    for (int pol = 0; pol < 4; ++pol) {
      std::vector<std::vector<int64_t>> group;
      for (int64_t i = pol; i < kPool; i += 4) group.push_back(prompts[static_cast<size_t>(i)]);
      const auto out = reference_greedy(*ref_model, group, kNewTokens, static_cast<Policy>(pol));
      for (size_t g = 0; g < out.size(); ++g) expected[static_cast<size_t>(pol) + 4 * g] = out[g];
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int64_t> done;
  std::vector<Flight> flights(kPool);
  for (Flight& f : flights) f.token_t.reserve(kNewTokens);

  std::vector<double> ttft, itl, latency, per_token;  // per-round medians / means
  std::vector<double> queue_wait_all, ttft_all, latency_all;
  int64_t client_tokens = 0, drafted = 0, accepted = 0, mismatches = 0, bad_status = 0;
  int64_t stream_mismatch = 0;

  const Clock::time_point run_t0 = Clock::now();
  for (int64_t round = 0;; ++round) {
    if (round > 0 && ms_between(run_t0, Clock::now()) >= opt.seconds * 1000.0) break;
    setup_ms.push_back(cold_setup_ms(opt));
    probe.run(kProbeReps);
    int64_t next = 0, outstanding = 0, completed = 0;
    const Clock::time_point round_t0 = Clock::now();
    while (completed < kPool) {
      while (outstanding < kMaxBatch && next < kPool) {
        const int64_t i = next++;
        Flight& f = flights[static_cast<size_t>(i)];
        f.token_t.clear();
        serve::StreamSink sink;
        sink.on_token = [&f](int64_t, int64_t) { f.token_t.push_back(Clock::now()); };
        sink.on_done = [&, i](const serve::Completion&) {
          {
            const std::lock_guard<std::mutex> lk(mu);
            done.push_back(i);
          }
          cv.notify_one();
        };
        f.submit_t = Clock::now();
        const Span span("serve.submit");
        f.fut = engine->submit(make_request(round * kPool + i + 1, prompts[static_cast<size_t>(i)],
                                            policy_of(i)),
                               std::move(sink));
        ++outstanding;
      }
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return !done.empty(); });
      while (!done.empty()) {
        done.pop_front();
        --outstanding;
        ++completed;
      }
    }
    const Clock::time_point round_t1 = Clock::now();
    probe.run(kProbeReps);

    // Outputs and per-request timings of this round.
    std::vector<double> r_ttft, r_itl, r_lat;
    int64_t round_tokens = 0;
    for (int64_t i = 0; i < kPool; ++i) {
      Flight& f = flights[static_cast<size_t>(i)];
      const serve::Completion c = f.fut.get();
      r.attempted += 1;
      if (c.status != serve::RequestStatus::kOk) {
        ++bad_status;
        continue;
      }
      if (c.tokens != expected[static_cast<size_t>(i)]) ++mismatches;
      if (f.token_t.size() != c.tokens.size()) ++stream_mismatch;
      client_tokens += static_cast<int64_t>(f.token_t.size());
      round_tokens += static_cast<int64_t>(f.token_t.size());
      drafted += c.metrics.spec_drafted;
      accepted += c.metrics.spec_accepted;
      queue_wait_all.push_back(c.metrics.queue_wait_ms);
      if (f.token_t.empty()) continue;
      r_ttft.push_back(ms_between(f.submit_t, f.token_t.front()));
      r_lat.push_back(ms_between(f.submit_t, f.token_t.back()));
      std::vector<double> gaps;
      for (size_t k = 1; k < f.token_t.size(); ++k) gaps.push_back(ms_between(f.token_t[k - 1], f.token_t[k]));
      r_itl.push_back(median(gaps));
    }
    ttft_all.insert(ttft_all.end(), r_ttft.begin(), r_ttft.end());
    latency_all.insert(latency_all.end(), r_lat.begin(), r_lat.end());
    ttft.push_back(median(r_ttft));
    itl.push_back(median(r_itl));
    latency.push_back(median(r_lat));
    per_token.push_back(ms_between(round_t0, round_t1) / static_cast<double>(std::max<int64_t>(1, round_tokens)));
  }

  const serve::EngineMetrics em = engine->metrics();
  engine->shutdown();
  const int64_t kv_after = engine->registry().gauge("kv/bytes_in_use").value();

  r.check(bad_status == 0, "serve_unique: " + std::to_string(bad_status) + " request(s) not ok");
  r.check(mismatches == 0,
          "serve_unique: " + std::to_string(mismatches) + " completion(s) differ from the reference decoder");
  r.check(stream_mismatch == 0, "serve_unique: streamed token count differs from the completion");
  r.check(client_tokens == em.tokens_generated,
          "serve_unique: client token count differs from the engine's tokens_generated");
  r.check(kv_after == 0, "serve_unique: KV bytes in use not back to 0 after drain");
  r.failed = bad_status;

  const double per_token_low = quantile(per_token, kLowQuantile);
  r.end_to_end(probe, quantile(setup_ms, kLowQuantile), quantile(ttft, kLowQuantile), quantile(itl, kLowQuantile),
               quantile(latency, kLowQuantile), per_token_low);

  r.detail("raw.setup_ms.p10", quantile(setup_ms, kLowQuantile));
  r.detail("raw.setup_ms.median", median(setup_ms));
  r.detail("raw.setups", static_cast<double>(setup_ms.size()));
  r.detail("raw.tokens_per_s.median", 1000.0 / median(per_token));
  r.detail("raw.ttft_ms.median", median(ttft_all));
  r.detail("raw.ttft_ms.p90", quantile(ttft_all, 0.9));
  r.detail("raw.latency_ms.median", median(latency_all));
  r.detail("raw.latency_ms.p90", quantile(latency_all, 0.9));
  r.detail("raw.latency_ms.p99", quantile(latency_all, 0.99));
  r.detail("raw.requests", static_cast<double>(latency_all.size()));
  r.detail("raw.itl_ms.median", median(itl));
  r.detail("raw.rounds", static_cast<double>(per_token.size()));
  r.detail("probe_ms.p10", probe.low_ms());
  r.detail("probe_ms.median", median(probe.samples()));

  if (opt.trace) {
    layers["serve.queue_wait_ms"] = median(queue_wait_all);
    layers["serve.batch_occupancy"] = em.mean_batch_occupancy();
    layers["serve.tokens_per_tick"] =
        em.ticks > 0 ? static_cast<double>(em.tokens_generated) / static_cast<double>(em.ticks) : 0.0;
    layers["serve.spec_acceptance"] = drafted > 0 ? static_cast<double>(accepted) / static_cast<double>(drafted) : 0.0;
    layers["serve.kv_high_water_bytes"] = static_cast<double>(em.kv_high_water_bytes);

    // Single-sequence decode steps on the (now idle, eval-mode) model.
    const nn::ModelConfig& mc = model->config();
    std::vector<double> step_us;
    for (int rep = 0; rep < 8; ++rep) {
      nn::KvCache cache(mc.n_layers, mc.kv_dim(), false);
      for (int64_t pos = 0; pos < kPromptLen + kNewTokens; ++pos) {
        const int64_t tok = prompts[static_cast<size_t>(rep)][static_cast<size_t>(pos % kPromptLen)];
        const Clock::time_point t0 = Clock::now();
        const Span span("nn.decode_step");
        const Tensor logits = nn::decode_step(*model, cache, pos, tok, 0);
        step_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
      }
    }
    layers["nn.decode_step_us"] = median(step_us);

    std::mt19937 gen(static_cast<uint32_t>(opt.seed));
    std::normal_distribution<float> nd(0.0f, 1.0f);
    auto rnd = [&](Shape s) {
      Tensor t(std::move(s));
      for (float& v : t.data()) v = nd(gen);
      return t;
    };
    const size_t n_exits = model->exit_layers().size();
    std::vector<Tensor> exit_rows;
    for (size_t e = 0; e < n_exits; ++e) exit_rows.push_back(rnd({1, mc.vocab}));
    const std::vector<float> w(n_exits, 1.0f / static_cast<float>(n_exits)), l(n_exits, 0.0f);
    Tensor sink;
    layers["core.combine_exit_logits_us"] =
        1000.0 * time_per_call_ms([&] { sink = core::combine_exit_logits(exit_rows, w, l, core::VoterConfig{}); }, 10.0);
    const Tensor xa = rnd({kMaxBatch, mc.d_model}), wt = rnd({mc.ff_dim(), mc.d_model});
    const double ms = time_per_call_ms([&] { sink = ops::matmul_nt(xa, wt); }, 20.0, 5);
    layers["tensor.decode_matmul_nt_gflops"] = 2.0 * kMaxBatch * mc.ff_dim() * mc.d_model / (ms * 1e6);
  }
  return r;
}

}  // namespace pb
