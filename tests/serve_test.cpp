// The serving runtime: pooled KV caches under a byte budget, the batched
// decode tick, the continuous-batching scheduler, and the multi-threaded
// engine end to end. The load-bearing invariant throughout: served output
// must match what a single IncrementalDecoder would have produced.
#include <gtest/gtest.h>

#include <chrono>
#include <future>

#include "serve/engine.hpp"
#include "test_util.hpp"

namespace edgellm::serve {
namespace {

using edgellm::testing::engine_cfg;
using edgellm::testing::greedy_request;
using edgellm::testing::paged_cfg;
using edgellm::testing::reference_greedy;
using edgellm::testing::reference_voted;
using edgellm::testing::seq_tokens;
using edgellm::testing::tiny_config;

// --- KvCache ----------------------------------------------------------------

TEST(KvCache, BytesMatchPerPositionFormula) {
  nn::KvCache fp(3, 16, /*quantize=*/false);
  nn::KvCache q(3, 16, /*quantize=*/true);
  std::vector<float> row(16, 0.5f);
  for (int64_t p = 0; p < 4; ++p) {
    for (int64_t li = 0; li < 3; ++li) {
      fp.append(li, row.data(), row.data());
      q.append(li, row.data(), row.data());
    }
  }
  EXPECT_EQ(fp.bytes(), 4 * nn::KvCache::bytes_per_position(3, 16, false));
  EXPECT_EQ(q.bytes(), 4 * nn::KvCache::bytes_per_position(3, 16, true));
  // int8 payload + one fp32 scale per row vs fp32 payload: 16+4 vs 64.
  EXPECT_EQ(nn::KvCache::bytes_per_position(3, 16, true) * 16,
            nn::KvCache::bytes_per_position(3, 16, false) * 5);
  EXPECT_EQ(fp.positions(0), 4);
  EXPECT_EQ(q.positions(2), 4);
}

TEST(KvCache, QuantizedRoundTripIsClose) {
  nn::KvCache q(1, 8, /*quantize=*/true);
  const std::vector<float> k = {1.0f, -2.0f, 0.25f, 0.0f, 3.0f, -0.5f, 2.0f, -1.5f};
  const std::vector<float> v = {0.1f, 0.2f, -0.3f, 0.4f, -0.5f, 0.6f, -0.7f, 0.8f};
  q.append(0, k.data(), v.data());
  std::vector<float> out(8);
  q.load_k(0, 0, out.data());
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(out[i], k[i], 3.0f / 127.0f) << i;
  q.load_v(0, 0, out.data());
  for (size_t i = 0; i < 8; ++i) EXPECT_NEAR(out[i], v[i], 0.8f / 127.0f) << i;
}

// --- batched decode ---------------------------------------------------------

// A batched tick must be bitwise identical to single-sequence decode: both
// go through the same per-row kernels in the same order.
TEST(BatchedDecode, IdenticalToSingleSequenceDecode) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(31);
  nn::CausalLm model(cfg, rng);
  model.set_eval();

  const std::vector<std::vector<int64_t>> prompts = {
      seq_tokens(6, cfg.vocab, 0), seq_tokens(6, cfg.vocab, 7), seq_tokens(6, cfg.vocab, 13)};

  // Reference: each sequence decoded alone.
  std::vector<std::vector<Tensor>> ref;
  for (const auto& p : prompts) {
    nn::KvCache cache(cfg.n_layers, cfg.kv_dim(), false);
    std::vector<Tensor> logits;
    for (size_t t = 0; t < p.size(); ++t) {
      logits.push_back(
          nn::decode_step(model, cache, static_cast<int64_t>(t), p[t], /*exit_layer=*/0));
    }
    ref.push_back(std::move(logits));
  }

  // Batched: all three advance together.
  std::vector<nn::KvCache> caches(3);
  for (auto& c : caches) c.configure(cfg.n_layers, cfg.kv_dim(), false);
  for (size_t t = 0; t < 6; ++t) {
    std::vector<nn::BatchedSeq> seqs(3);
    for (size_t s = 0; s < 3; ++s) {
      seqs[s].cache = &caches[s];
      seqs[s].position = static_cast<int64_t>(t);
      seqs[s].token = prompts[s][t];
    }
    nn::batched_decode_step(model, seqs);
    for (size_t s = 0; s < 3; ++s) {
      ASSERT_EQ(seqs[s].logits.size(), 1u);
      const Tensor& got = seqs[s].logits[0];
      const Tensor& want = ref[s][t];
      ASSERT_EQ(got.numel(), want.numel());
      for (int64_t v = 0; v < got.numel(); ++v) {
        ASSERT_EQ(got[v], want[v]) << "seq " << s << " pos " << t << " vocab " << v;
      }
    }
  }
}

// A weight cache built against a frozen model must not change a single bit
// of the decode — including when compression makes the effective weight
// non-trivial, and when a LoRA layer forces the per-layer fallback.
TEST(BatchedDecode, WeightCacheIsBitwiseIdentical) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(47);
  nn::CausalLm model(cfg, rng);
  quant::QuantSpec q;
  q.bits = 8;
  model.blocks()[0]->set_compression(q, std::nullopt);
  Rng lrng(3);
  model.blocks()[1]->attention().q_proj().enable_lora(2, 4.0f, lrng);
  model.set_eval();

  nn::DecodeWeightCache wc(model);
  EXPECT_TRUE(wc.built());
  EXPECT_GT(wc.bytes(), 0);
  // LoRA layers stay uncached so their adapter path still runs.
  EXPECT_EQ(wc.find(&model.blocks()[1]->attention().q_proj()), nullptr);
  EXPECT_NE(wc.find(&model.blocks()[0]->attention().q_proj()), nullptr);

  const std::vector<int64_t> prompt = seq_tokens(5, cfg.vocab, 3);
  nn::KvCache plain(cfg.n_layers, cfg.kv_dim(), false);
  nn::KvCache cached(cfg.n_layers, cfg.kv_dim(), false);
  for (size_t t = 0; t < prompt.size(); ++t) {
    nn::BatchedSeq a;
    a.cache = &plain;
    a.position = static_cast<int64_t>(t);
    a.token = prompt[t];
    a.all_exits = true;
    nn::BatchedSeq b = a;
    b.cache = &cached;
    nn::batched_decode_step(model, std::span<nn::BatchedSeq>(&a, 1));
    nn::batched_decode_step(model, std::span<nn::BatchedSeq>(&b, 1), &wc);
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (size_t e = 0; e < a.logits.size(); ++e) {
      for (int64_t v = 0; v < a.logits[e].numel(); ++v) {
        ASSERT_EQ(a.logits[e][v], b.logits[e][v]) << "pos " << t << " exit " << e << " v " << v;
      }
    }
  }
}

// Mixed exits in one batch: an early-exit sequence rides along with full
// depth ones and each matches the no-cache eval path.
TEST(BatchedDecode, MixedExitDepthsMatchForwardEval) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(32);
  nn::CausalLm model(cfg, rng);
  model.set_eval();
  const auto toks = seq_tokens(5, cfg.vocab);

  std::vector<nn::KvCache> caches(3);
  caches[0].configure(cfg.n_layers, cfg.kv_dim(), false);  // final exit
  caches[1].configure(2, cfg.kv_dim(), false);             // early exit at depth 2
  caches[2].configure(cfg.n_layers, cfg.kv_dim(), false);  // all exits (voted)

  std::vector<std::vector<Tensor>> got(3);
  for (size_t t = 0; t < toks.size(); ++t) {
    std::vector<nn::BatchedSeq> seqs(3);
    for (size_t s = 0; s < 3; ++s) {
      seqs[s].cache = &caches[s];
      seqs[s].position = static_cast<int64_t>(t);
      seqs[s].token = toks[t];
    }
    seqs[1].exit_layer = 2;
    seqs[2].all_exits = true;
    nn::batched_decode_step(model, seqs);
    for (size_t s = 0; s < 3; ++s) got[s].push_back(std::move(seqs[s].logits.back()));
  }

  const int64_t T = static_cast<int64_t>(toks.size());
  const Tensor ref_final = model.forward_eval(toks, 1, T, cfg.n_layers);
  const Tensor ref_early = model.forward_eval(toks, 1, T, 2);
  for (int64_t t = 0; t < T; ++t) {
    for (int64_t v = 0; v < cfg.vocab; ++v) {
      EXPECT_NEAR(got[0][static_cast<size_t>(t)][v], ref_final[t * cfg.vocab + v], 1e-4f);
      EXPECT_NEAR(got[1][static_cast<size_t>(t)][v], ref_early[t * cfg.vocab + v], 1e-4f);
      // all_exits returns exits ascending; .back() is the final exit.
      EXPECT_NEAR(got[2][static_cast<size_t>(t)][v], ref_final[t * cfg.vocab + v], 1e-4f);
    }
  }
}

TEST(BatchedDecode, AllExitsMatchForwardAllExits) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(33);
  nn::CausalLm model(cfg, rng);
  model.set_eval();
  const auto toks = seq_tokens(4, cfg.vocab);
  const int64_t T = static_cast<int64_t>(toks.size());

  nn::KvCache cache(cfg.n_layers, cfg.kv_dim(), false);
  std::vector<Tensor> last;
  for (int64_t t = 0; t < T; ++t) {
    last = nn::decode_step_all_exits(model, cache, t, toks[static_cast<size_t>(t)]);
  }
  const std::vector<Tensor> ref = model.forward_all_exits(toks, 1, T);
  ASSERT_EQ(last.size(), ref.size());
  for (size_t e = 0; e < ref.size(); ++e) {
    for (int64_t v = 0; v < cfg.vocab; ++v) {
      EXPECT_NEAR(last[e][v], ref[e][(T - 1) * cfg.vocab + v], 1e-4f) << "exit " << e;
    }
  }
}

TEST(BatchedDecode, RequiresEvalModeAndValidState) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(34);
  nn::CausalLm model(cfg, rng);
  model.set_eval();
  nn::KvCache cache(cfg.n_layers, cfg.kv_dim(), false);

  std::vector<nn::BatchedSeq> seqs(1);
  seqs[0].token = 1;
  EXPECT_THROW(nn::batched_decode_step(model, seqs), std::invalid_argument);  // null cache

  seqs[0].cache = &cache;
  seqs[0].position = 3;  // cache holds 0 positions
  EXPECT_THROW(nn::batched_decode_step(model, seqs), std::invalid_argument);

  seqs[0].position = 0;
  seqs[0].token = cfg.vocab;  // out of range
  EXPECT_THROW(nn::batched_decode_step(model, seqs), std::invalid_argument);

  nn::KvCache shallow(1, cfg.kv_dim(), false);  // too shallow for the final exit
  seqs[0].token = 1;
  seqs[0].cache = &shallow;
  EXPECT_THROW(nn::batched_decode_step(model, seqs), std::invalid_argument);
}

// --- engine end to end ------------------------------------------------------

TEST(ServeEngine, BatchedGreedyMatchesSequentialReference) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);

  std::vector<std::vector<int64_t>> prompts;
  for (int64_t i = 0; i < 5; ++i) prompts.push_back(seq_tokens(4, cfg.vocab, i * 3));
  std::vector<std::vector<int64_t>> want;
  for (const auto& p : prompts) want.push_back(reference_greedy(model, p, 6));

  ServeEngine engine(model, engine_cfg(/*threads=*/1));
  // Stage every request while the scheduler is parked: all five are
  // admitted into one batch on resume, so the occupancy assertion below is
  // deterministic instead of racing the loop's first ticks.
  engine.pause();
  std::vector<std::future<Completion>> futs;
  for (size_t i = 0; i < prompts.size(); ++i) {
    futs.push_back(engine.submit(greedy_request(static_cast<int64_t>(i), prompts[i], 6)));
  }
  engine.resume();
  for (size_t i = 0; i < futs.size(); ++i) {
    const Completion c = futs[i].get();
    EXPECT_EQ(c.status, RequestStatus::kOk);
    EXPECT_EQ(c.id, static_cast<int64_t>(i));
    EXPECT_EQ(c.tokens, want[i]) << "request " << i;
    EXPECT_EQ(c.metrics.output_tokens, 6);
    EXPECT_GT(c.metrics.kv_bytes, 0);
  }
  engine.shutdown();
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.completed, 5);
  EXPECT_EQ(m.tokens_generated, 5 * 6);
  // Identical-length requests staged together retire together: every tick
  // ran the full batch of five.
  EXPECT_DOUBLE_EQ(m.mean_batch_occupancy(), 5.0);
}

TEST(ServeEngine, MultiThreadedMatchesSingleThreaded) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(41);
  nn::CausalLm model(cfg, rng);

  std::vector<std::vector<int64_t>> prompts;
  for (int64_t i = 0; i < 6; ++i) prompts.push_back(seq_tokens(3 + i % 3, cfg.vocab, i));
  std::vector<std::vector<int64_t>> want;
  for (const auto& p : prompts) want.push_back(reference_greedy(model, p, 5));

  ServeEngine engine(model, engine_cfg(/*threads=*/4));
  std::vector<std::future<Completion>> futs;
  for (size_t i = 0; i < prompts.size(); ++i) {
    futs.push_back(engine.submit(greedy_request(static_cast<int64_t>(i), prompts[i], 5)));
  }
  for (size_t i = 0; i < futs.size(); ++i) {
    const Completion c = futs[i].get();
    EXPECT_EQ(c.status, RequestStatus::kOk);
    EXPECT_EQ(c.tokens, want[i]) << "request " << i;
  }
}

TEST(ServeEngine, MixedExitPoliciesInOneBatch) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(42);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab);

  const auto want_final = reference_greedy(model, prompt, 5);
  const auto want_early = reference_greedy(model, prompt, 5, /*exit_layer=*/2);

  ServeEngine engine(model, engine_cfg(1));
  auto f_final = engine.submit(greedy_request(1, prompt, 5));
  auto f_early = engine.submit(greedy_request(2, prompt, 5, ExitPolicy::kFixedEarly, 2));
  auto f_voted = engine.submit(greedy_request(3, prompt, 5, ExitPolicy::kVoted));

  EXPECT_EQ(f_final.get().tokens, want_final);
  EXPECT_EQ(f_early.get().tokens, want_early);
  EXPECT_EQ(f_voted.get().tokens, reference_voted(model, prompt, 5));
}

TEST(ServeEngine, KvBudgetSerialisesAdmissionWithoutStarvation) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(43);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab);
  const auto want = reference_greedy(model, prompt, 4);

  // Budget fits exactly one sequence's projection (8 positions round up to
  // one 16-position block per layer): requests must decode one at a time,
  // all still completing.
  EngineConfig ecfg = engine_cfg(1);
  const int64_t projected =
      ecfg.kv_block_tokens * nn::KvCache::bytes_per_position(cfg.n_layers, cfg.kv_dim(), false);
  ecfg.kv_byte_budget = projected;
  ServeEngine engine(model, ecfg);

  std::vector<std::future<Completion>> futs;
  for (int64_t i = 0; i < 3; ++i) futs.push_back(engine.submit(greedy_request(i, prompt, 4)));
  for (auto& f : futs) {
    const Completion c = f.get();
    EXPECT_EQ(c.status, RequestStatus::kOk);
    EXPECT_EQ(c.tokens, want);
  }
  engine.shutdown();
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.completed, 3);
  EXPECT_LE(m.kv_high_water_bytes, projected);  // never over budget
  EXPECT_GT(m.kv_high_water_bytes, 0);
}

TEST(ServeEngine, OversizedRequestRejectedImmediately) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(44);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg = engine_cfg(1);
  ecfg.kv_byte_budget = 64;  // smaller than any sequence's projection
  ServeEngine engine(model, ecfg);
  auto fut = engine.submit(greedy_request(1, seq_tokens(4, cfg.vocab), 4));
  const Completion c = fut.get();
  EXPECT_EQ(c.status, RequestStatus::kRejected);
  EXPECT_TRUE(c.tokens.empty());
  EXPECT_EQ(engine.metrics().rejected, 1);
}

TEST(ServeEngine, SubmitAfterShutdownIsRejected) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(45);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  engine.shutdown();
  auto fut = engine.submit(greedy_request(1, seq_tokens(3, cfg.vocab), 2));
  EXPECT_EQ(fut.get().status, RequestStatus::kRejected);
}

TEST(ServeEngine, SubmitValidatesRequests) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(46);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));

  EXPECT_THROW(engine.submit(greedy_request(1, {}, 4)), std::invalid_argument);
  EXPECT_THROW(engine.submit(greedy_request(1, {cfg.vocab}, 4)), std::invalid_argument);
  EXPECT_THROW(engine.submit(greedy_request(1, {1}, 0)), std::invalid_argument);
  EXPECT_THROW(engine.submit(greedy_request(1, seq_tokens(cfg.max_seq + 1, cfg.vocab), 1)),
               std::invalid_argument);
  Request bad_k = greedy_request(1, {1}, 4);
  bad_k.top_k = cfg.vocab + 1;
  EXPECT_THROW(engine.submit(bad_k), std::invalid_argument);
  // Depth 5 isn't a registered exit of the tiny model ({1, 2, 3}).
  EXPECT_THROW(engine.submit(greedy_request(1, {1}, 4, ExitPolicy::kFixedEarly, 5)),
               std::invalid_argument);
}

TEST(ServeEngine, CancelQueuedRequest) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(47);
  nn::CausalLm model(cfg, rng);
  // One batch slot: the second request is guaranteed to queue behind the
  // first at submit time. Pausing the scheduler makes the cancel
  // deterministic — request 2 is still queued when it lands, so it must
  // resolve kCancelled (before pause() existed this raced the decode loop
  // and had to accept either outcome).
  ServeEngine engine(model, engine_cfg(1, /*max_batch=*/1));
  engine.pause();
  auto f1 = engine.submit(greedy_request(1, seq_tokens(4, cfg.vocab), 8));
  auto f2 = engine.submit(greedy_request(2, seq_tokens(4, cfg.vocab), 8));
  EXPECT_TRUE(engine.cancel(2));
  EXPECT_FALSE(engine.cancel(99));  // unknown id
  engine.resume();
  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
  EXPECT_EQ(f2.get().status, RequestStatus::kCancelled);
  EXPECT_EQ(engine.metrics().cancelled, 1);
}

TEST(ServeEngine, PauseParksAndResumeDrains) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(52);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1, /*max_batch=*/4));

  engine.pause();
  engine.pause();  // idempotent
  auto fut = engine.submit(greedy_request(1, seq_tokens(4, cfg.vocab), 3));
  // Parked scheduler: nothing is admitted or decoded while paused.
  EXPECT_EQ(engine.metrics().ticks, 0);
  EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(0)), std::future_status::timeout);
  engine.resume();
  EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  // Shutting down while paused must not deadlock.
  engine.pause();
  engine.shutdown();
  EXPECT_EQ(engine.metrics().completed, 1);
}

TEST(ServeEngine, DeadlineExpiryReturnsPartialTokens) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(48);
  nn::CausalLm model(cfg, rng);
  // A guaranteed worker stall makes every tick take ~60ms, so a 50ms
  // deadline deterministically survives admission (the loop wakes in
  // microseconds) but expires mid-decode — the kTimeout path, as opposed
  // to kExpired (deadline passing while still queued).
  runtime::ServeFaultPlan fp;
  fp.worker_stall_prob = 1.0;
  fp.worker_stall_ms = 60.0;
  runtime::ServeFaultInjector fault(fp);
  EngineConfig ecfg = engine_cfg(1);
  ecfg.fault = &fault;
  ServeEngine engine(model, ecfg);
  Request r = greedy_request(1, seq_tokens(1, cfg.vocab), 8);
  r.deadline_ms = 50.0;
  const Completion c = engine.submit(r).get();
  EXPECT_EQ(c.status, RequestStatus::kTimeout);
  // The single prompt token is fed and sampled on the stalled first tick,
  // so exactly one partial token comes back.
  EXPECT_EQ(c.tokens.size(), 1u);
  EXPECT_EQ(c.error, "deadline exceeded mid-decode");
  EXPECT_EQ(engine.metrics().timed_out, 1);
}

TEST(ServeEngine, DeadlineExpiredWhileQueuedIsExpiredNotAdmitted) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(48);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  // Park the scheduler so the request provably sits in the queue past its
  // deadline; the admission scan must then retire it without ever giving
  // it a batch slot or any KV.
  engine.pause();
  Request r = greedy_request(9, seq_tokens(4, cfg.vocab), 8);
  r.deadline_ms = 5.0;
  auto fut = engine.submit(r);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.resume();
  const Completion c = fut.get();
  EXPECT_EQ(c.status, RequestStatus::kExpired);
  EXPECT_TRUE(c.tokens.empty());
  EXPECT_EQ(c.error, "deadline expired while queued");
  EXPECT_EQ(c.metrics.queue_wait_ms, 0.0);  // never admitted
  EXPECT_EQ(engine.metrics().expired, 1);
  EXPECT_EQ(engine.metrics().timed_out, 0);
  // Never held KV: no acquire was ever recorded.
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(), 0);
}

TEST(ServeEngine, PerRequestMetricsArePopulated) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(49);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  const Completion c = engine.submit(greedy_request(7, seq_tokens(4, cfg.vocab), 6)).get();
  EXPECT_EQ(c.metrics.prompt_tokens, 4);
  EXPECT_EQ(c.metrics.output_tokens, 6);
  EXPECT_GT(c.metrics.ttft_ms, 0.0);
  EXPECT_GE(c.metrics.total_ms, c.metrics.ttft_ms);
  EXPECT_GT(c.metrics.tokens_per_s, 0.0);
  // 4 prompt + 5 generated positions cached at completion (the 6th sampled
  // token is returned but never fed back), held in one 16-position block
  // per layer.
  EXPECT_EQ(c.metrics.kv_bytes,
            16 * nn::KvCache::bytes_per_position(cfg.n_layers, cfg.kv_dim(), false));
}

TEST(ServeEngine, SetExitWeightsValidatesSizes) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(50);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1));
  EXPECT_THROW(engine.set_exit_weights({1.0f}, {0.0f}), std::invalid_argument);
  engine.set_exit_weights({0.2f, 0.3f, 0.5f}, {1.0f, 0.8f, 0.6f});
}

// --- scheduler (policy unit tests) ------------------------------------------

TEST(ServeEngine, KvShedSurfacesByteBudgetReasonInCompletionError) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(61);
  nn::CausalLm model(cfg, rng);
  const int64_t per_pos = nn::KvCache::bytes_per_position(cfg.n_layers, cfg.kv_dim(), false);
  EngineConfig ecfg = engine_cfg(1, /*max_batch=*/4);
  ecfg.kv_byte_budget = 16 * per_pos;     // exactly one sequence: one 16-position block
  ecfg.max_admission_retries = 1;         // shed on the first failed acquire
  ServeEngine engine(model, ecfg);

  engine.pause();
  auto f1 = engine.submit(greedy_request(1, seq_tokens(4, cfg.vocab), 4));      // fills budget
  auto f2 = engine.submit(greedy_request(2, seq_tokens(4, cfg.vocab, 1), 4));   // cannot fit
  engine.resume();
  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
  const Completion shed = f2.get();
  EXPECT_EQ(shed.status, RequestStatus::kShed);
  // The structured reason names the byte budget.
  EXPECT_NE(shed.error.find("kv: byte budget exceeded"), std::string::npos) << shed.error;
  EXPECT_NE(shed.error.find("after 1 attempts"), std::string::npos) << shed.error;
  EXPECT_EQ(engine.metrics().shed, 1);
}

TEST(ServeEngine, SaturatedQueueRejectsWithErrorAndRecovers) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(62);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg = engine_cfg(1, /*max_batch=*/1);
  ecfg.queue_capacity = 2;
  ServeEngine engine(model, ecfg);

  engine.pause();  // everything queues: saturation is deterministic
  auto f1 = engine.submit(greedy_request(1, seq_tokens(2, cfg.vocab), 2));
  auto f2 = engine.submit(greedy_request(2, seq_tokens(2, cfg.vocab, 1), 2));
  const Completion over = engine.submit(greedy_request(3, seq_tokens(2, cfg.vocab, 2), 2)).get();
  EXPECT_EQ(over.status, RequestStatus::kRejected);
  EXPECT_EQ(over.error, "admission queue full");
  engine.resume();
  // Saturation is transient: queued work drains and new work is accepted.
  EXPECT_EQ(f1.get().status, RequestStatus::kOk);
  EXPECT_EQ(f2.get().status, RequestStatus::kOk);
  EXPECT_EQ(engine.submit(greedy_request(4, seq_tokens(2, cfg.vocab, 3), 2)).get().status,
            RequestStatus::kOk);
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.rejected, 1);
  EXPECT_EQ(m.completed, 3);
  EXPECT_EQ(m.submitted, 4);
}

// Saturation + cancellation under real thread contention, repeated 20x so
// TSan gets many interleavings (CI runs this suite under ASan and TSan).
TEST(ServeEngine, ConcurrentSubmitAndCancelWhileQueuedUnderContention) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(63);
  nn::CausalLm model(cfg, rng);
  for (int iter = 0; iter < 20; ++iter) {
    EngineConfig ecfg = engine_cfg(2, /*max_batch=*/2);
    ecfg.queue_capacity = 8;
    ServeEngine engine(model, ecfg);

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 8;
    std::vector<std::future<Completion>> futs(kSubmitters * kPerThread);
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters + 1);
    for (int t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const int64_t id = t * kPerThread + i;
          futs[static_cast<size_t>(id)] =
              engine.submit(greedy_request(id, seq_tokens(2, cfg.vocab, id), 2));
        }
      });
    }
    // The canceller races the submitters and the scheduler: every id is
    // targeted, whether still unsubmitted, queued, active, or finished.
    threads.emplace_back([&] {
      for (int64_t id = 0; id < kSubmitters * kPerThread; ++id) engine.cancel(id);
    });
    for (auto& th : threads) th.join();
    engine.shutdown();

    int64_t resolved = 0;
    for (auto& f : futs) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      const Completion c = f.get();
      EXPECT_TRUE(c.status == RequestStatus::kOk || c.status == RequestStatus::kCancelled ||
                  c.status == RequestStatus::kRejected)
          << to_string(c.status);
      ++resolved;
    }
    const EngineMetrics m = engine.metrics();
    EXPECT_EQ(resolved, m.submitted);
    EXPECT_EQ(m.submitted, m.completed + m.rejected + m.cancelled + m.timed_out + m.shed +
                               m.expired + m.failed);
    EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
              engine.registry().counter("kv/released").value());
  }
}

TEST(Scheduler, QueueCapacityBoundsEnqueue) {
  SchedulerConfig cfg{/*max_batch=*/1, /*queue_capacity=*/2, /*max_seq=*/16, /*n_layers=*/3};
  Scheduler sched(cfg, paged_cfg(4, 3, 16, 0));
  for (int i = 0; i < 2; ++i) {
    auto s = std::make_unique<SeqState>();
    s->req.prompt = {1};
    EXPECT_TRUE(sched.enqueue(s));
  }
  auto extra = std::make_unique<SeqState>();
  extra->req.prompt = {1};
  EXPECT_FALSE(sched.enqueue(extra));
  EXPECT_NE(extra, nullptr);  // rejected request stays with the caller
  EXPECT_EQ(sched.queued(), 2u);
}

TEST(Scheduler, AdmitPreservesFifoHeadOfLine) {
  const int64_t per_pos = nn::KvCache::bytes_per_position(3, 16, false);
  SchedulerConfig cfg{/*max_batch=*/4, /*queue_capacity=*/8, /*max_seq=*/16, /*n_layers=*/3};
  // Budget fits a small sequence but not the large head request (one-token
  // blocks: admission is charged per position).
  Scheduler sched(cfg, paged_cfg(/*block_tokens=*/1, 3, 16, 4 * per_pos));

  auto big = std::make_unique<SeqState>();
  big->req.prompt = {1, 2, 3, 4};
  big->req.max_new_tokens = 8;  // projects 12 positions > budget
  big->exit_layer_used = 3;
  auto small = std::make_unique<SeqState>();
  small->req.prompt = {1};
  small->req.max_new_tokens = 1;  // projects 2 positions, would fit
  small->exit_layer_used = 3;
  ASSERT_TRUE(sched.enqueue(big));
  ASSERT_TRUE(sched.enqueue(small));

  sched.admit(/*degrade_level=*/0, DegradeLadder{}, std::chrono::steady_clock::now());
  // The small request must NOT jump the blocked head (no starvation).
  EXPECT_TRUE(sched.active().empty());
  EXPECT_EQ(sched.queued(), 2u);
}

// --- wire format ------------------------------------------------------------

TEST(RequestJson, ParsesFullRequest) {
  const Request r = parse_request_json(
      R"({"id": 3, "prompt": [1, 2, 3], "max_new_tokens": 16, "temperature": 0.5,)"
      R"( "top_k": 8, "exit": "voted", "seed": 9, "deadline_ms": 250})");
  EXPECT_EQ(r.id, 3);
  EXPECT_EQ(r.prompt, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(r.max_new_tokens, 16);
  EXPECT_FLOAT_EQ(r.temperature, 0.5f);
  EXPECT_EQ(r.top_k, 8);
  EXPECT_EQ(r.exit_policy, ExitPolicy::kVoted);
  EXPECT_EQ(r.seed, 9u);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 250.0);
}

TEST(RequestJson, DefaultsAndExitVariants) {
  const Request r = parse_request_json(R"({"prompt": [5]})");
  EXPECT_EQ(r.exit_policy, ExitPolicy::kFinal);
  EXPECT_EQ(r.max_new_tokens, 32);
  EXPECT_FLOAT_EQ(r.temperature, 0.0f);

  EXPECT_EQ(parse_request_json(R"({"prompt": [5], "exit": "final"})").exit_policy,
            ExitPolicy::kFinal);
  const Request early = parse_request_json(R"({"prompt": [5], "exit": 2})");
  EXPECT_EQ(early.exit_policy, ExitPolicy::kFixedEarly);
  EXPECT_EQ(early.exit_layer, 2);
}

TEST(RequestJson, RejectsMalformedLines) {
  EXPECT_THROW(parse_request_json(R"({"prompt": []})"), std::invalid_argument);
  EXPECT_THROW(parse_request_json(R"({"id": 1})"), std::invalid_argument);  // no prompt
  EXPECT_THROW(parse_request_json(R"({"prompt": [1], "bogus": 2})"), std::invalid_argument);
  EXPECT_THROW(parse_request_json(R"({"prompt": [1], "exit": "sideways"})"),
               std::invalid_argument);
  EXPECT_THROW(parse_request_json(R"({"prompt": [1]} trailing)"), std::invalid_argument);
  EXPECT_THROW(parse_request_json("not json"), std::invalid_argument);
}

TEST(RequestJson, CompletionRoundTripsKeyFields) {
  Completion c;
  c.id = 12;
  c.status = RequestStatus::kOk;
  c.tokens = {4, 5, 6};
  c.metrics.kv_bytes = 1024;
  const std::string j = completion_to_json(c);
  EXPECT_NE(j.find("\"id\": 12"), std::string::npos);
  EXPECT_NE(j.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(j.find("[4, 5, 6]"), std::string::npos);
  EXPECT_NE(j.find("\"kv_bytes\": 1024"), std::string::npos);
}

// Error reasons carry arbitrary text — quota sheds embed the tenant name in
// quotes (`quota: tenant "alpha" ...`), worker failures embed exception
// messages — so the serializer must escape them or the wire line stops
// being valid JSON.
TEST(RequestJson, CompletionEscapesErrorText) {
  Completion c;
  c.id = 3;
  c.status = RequestStatus::kShed;
  c.error = "quota: tenant \"al\\pha\"\nbucket empty";
  const std::string j = completion_to_json(c);
  EXPECT_NE(j.find(R"("error": "quota: tenant \"al\\pha\"\nbucket empty")"),
            std::string::npos);
  // No raw quote/backslash/newline from the payload may survive unescaped.
  EXPECT_EQ(j.find('\n'), std::string::npos);
  // Degraded completions advertise the exit that actually decoded.
  c.status = RequestStatus::kOk;
  c.error.clear();
  c.degraded = true;
  c.exit_layer_used = 1;
  const std::string d = completion_to_json(c);
  EXPECT_NE(d.find("\"degraded\": true, \"exit_layer\": 1"), std::string::npos);
}

}  // namespace
}  // namespace edgellm::serve
