// The serving KV pool (PagedKvPool): block-table row addressing must be
// bitwise identical to contiguous KvCache storage, prefix reuse must never
// leak another sequence's divergent rows (copy-on-write), eviction must
// conserve the block population under budget pressure and bound the cache
// without one, and the serving engine must produce greedy output
// byte-identical to the single-sequence IncrementalDecoder reference at
// any thread count, KV precision and exit policy. Plus the KV-accounting
// regressions: post-degrade admission projections, live-only
// bytes_in_use, and admissions that a pinned prefix must not wedge.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <future>

#include "serve/engine.hpp"
#include "test_util.hpp"

namespace edgellm::serve {
namespace {

using edgellm::testing::engine_cfg;
using edgellm::testing::feed_positions;
using edgellm::testing::fill_row;
using edgellm::testing::greedy_request;
using edgellm::testing::iota_tokens;
using edgellm::testing::paged_cfg;
using edgellm::testing::reference_greedy;
using edgellm::testing::reference_voted;
using edgellm::testing::seq_tokens;
using edgellm::testing::tiny_config;

// --- pool mechanics ---------------------------------------------------------

TEST(PagedKvPool, BlockArithmeticAndColdAdmission) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 3, 16, /*budget=*/0, &reg));
  EXPECT_EQ(pool.block_bytes(), 4 * nn::KvCache::bytes_per_position(1, 16, false));
  // 10 positions -> 3 blocks per layer, 3 layers.
  EXPECT_EQ(pool.projected_bytes(10, 3), 9 * pool.block_bytes());

  auto r = pool.acquire(iota_tokens(6), /*projected=*/10, /*n_layers=*/3);
  ASSERT_NE(r.seq, nullptr);
  EXPECT_EQ(r.prefix_tokens, 0);  // empty cache: cold miss
  EXPECT_EQ(reg.counter("kv/prefix_miss").value(), 1);
  EXPECT_EQ(pool.committed_bytes(), 9 * pool.block_bytes());
  EXPECT_EQ(pool.bytes_in_use(), 0);  // blocks allocate lazily on append

  feed_positions(*r.seq, 6, 3);
  EXPECT_EQ(r.seq->positions(0), 6);
  EXPECT_EQ(r.seq->positions(2), 6);
  // 6 positions span 2 blocks per layer; all owned (cold admission).
  EXPECT_EQ(pool.allocated_blocks(), 6);
  EXPECT_EQ(r.seq->bytes(), 6 * pool.block_bytes());

  // Clean release donates the full blocks (4 tokens -> 1 per layer); the
  // 2-position tail is recycled.
  pool.release(r.seq, iota_tokens(6), /*reuse=*/true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.seqs_in_use(), 0);
  EXPECT_EQ(pool.cached_blocks(), 3);
  EXPECT_EQ(pool.allocated_blocks(), 3);
  EXPECT_EQ(pool.free_blocks(), 3);
  EXPECT_EQ(pool.total_blocks(), 6);  // conservation: allocated + free
  EXPECT_EQ(pool.high_water_bytes(), 6 * pool.block_bytes());
}

TEST(PagedKvPool, FailedReleaseDonatesNothing) {
  PagedKvPool pool(paged_cfg(4, 2, 8, 0));
  auto r = pool.acquire(iota_tokens(8), 8, 2);
  ASSERT_NE(r.seq, nullptr);
  feed_positions(*r.seq, 8, 2);
  pool.release(r.seq, {}, /*reuse=*/false);  // torn rows: never cached
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_EQ(pool.allocated_blocks(), 0);
  EXPECT_EQ(pool.free_blocks(), 4);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

TEST(PagedKvPool, RowsMatchContiguousCacheBitwise) {
  for (const bool quantize : {false, true}) {
    PagedKvPool pool(paged_cfg(4, 2, 8, 0, nullptr, quantize));
    nn::KvCache ref(2, 8, quantize);
    auto r = pool.acquire(iota_tokens(3), 11, 2);
    ASSERT_NE(r.seq, nullptr);
    std::vector<float> k, v;
    for (int64_t pos = 0; pos < 11; ++pos) {
      fill_row(pos, 8, 17, k, v);
      for (int64_t l = 0; l < 2; ++l) {
        r.seq->append(l, k.data(), v.data());
        ref.append(l, k.data(), v.data());
      }
    }
    std::vector<float> a(8), b(8);
    for (int64_t l = 0; l < 2; ++l) {
      for (int64_t pos = 0; pos < 11; ++pos) {
        r.seq->load_k(l, pos, a.data());
        ref.load_k(l, pos, b.data());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), 8 * sizeof(float)), 0)
            << "k layer " << l << " pos " << pos << " quantize " << quantize;
        r.seq->load_v(l, pos, a.data());
        ref.load_v(l, pos, b.data());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), 8 * sizeof(float)), 0)
            << "v layer " << l << " pos " << pos << " quantize " << quantize;
        if (!quantize) {
          ASSERT_NE(r.seq->k_row(l, pos), nullptr);
          EXPECT_EQ(std::memcmp(r.seq->k_row(l, pos), ref.k_row(l, pos), 8 * sizeof(float)), 0);
          EXPECT_EQ(std::memcmp(r.seq->v_row(l, pos), ref.v_row(l, pos), 8 * sizeof(float)), 0);
        } else {
          EXPECT_EQ(r.seq->k_row(l, pos), nullptr);
        }
      }
    }
    pool.release(r.seq, iota_tokens(11), true);
  }
}

TEST(PagedKvPool, PrefixReuseServesCachedBlocksUpToLastPromptToken) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 3, 16, 0, &reg));
  // First request: 10-token prompt, decoded 2 extra positions -> 12 cached
  // positions -> 3 full blocks per layer donated on release.
  auto a = pool.acquire(iota_tokens(10), 14, 3);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 12, 3);
  pool.release(a.seq, iota_tokens(12), true);
  ASSERT_EQ(pool.cached_blocks(), 9);

  // Identical prompt: reuse is capped at prompt-1 = 9 positions (2 full
  // blocks + 1 token into the third), never the last prompt token.
  auto b = pool.acquire(iota_tokens(10), 14, 3);
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 9);
  EXPECT_EQ(b.seq->shared_len(), 9);
  EXPECT_EQ(b.seq->positions(0), 9);
  EXPECT_EQ(reg.counter("kv/prefix_hit").value(), 1);
  EXPECT_EQ(reg.counter("kv/prefix_hit_tokens").value(), 9);
  // The shared rows read back exactly what the first sequence wrote.
  std::vector<float> got(16), want_k, want_v;
  for (int64_t pos = 0; pos < 9; ++pos) {
    fill_row(pos, 16, 0, want_k, want_v);
    b.seq->load_k(1, pos, got.data());
    EXPECT_EQ(std::memcmp(got.data(), want_k.data(), 16 * sizeof(float)), 0) << pos;
  }
  // Owned bytes exclude the shared prefix: the request's marginal cost
  // shrinks, which is the whole point of reuse.
  feed_positions(*b.seq, 1, 3, /*salt=*/0);
  EXPECT_LT(b.seq->bytes(), pool.projected_bytes(10, 3));
  pool.release(b.seq, iota_tokens(10), true);

  // A shallower (degraded) sequence may reuse deep cached nodes, but a
  // deeper sequence must not reuse blocks cached at lower depth.
  auto c = pool.acquire(iota_tokens(10), 14, 2);
  ASSERT_NE(c.seq, nullptr);
  EXPECT_EQ(c.prefix_tokens, 9);
  pool.release(c.seq, iota_tokens(9), true);
}

TEST(PagedKvPool, CowForkIsolatesDivergingSequence) {
  obs::Registry reg;
  const int64_t kvd = 8;
  PagedKvPool pool(paged_cfg(4, 1, kvd, 0, &reg));
  // Cache 3 full blocks of rows written by sequence A (salt 0).
  auto a = pool.acquire(iota_tokens(12), 14, 1);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 12, 1, /*salt=*/0);
  pool.release(a.seq, iota_tokens(12), true);

  // B shares 9 positions (2 full blocks + 1 into the third) then appends
  // its own rows (salt 99) from position 9.
  auto b = pool.acquire(iota_tokens(10), 14, 1);
  ASSERT_NE(b.seq, nullptr);
  ASSERT_EQ(b.prefix_tokens, 9);
  feed_positions(*b.seq, 3, 1, /*salt=*/99);
  EXPECT_EQ(b.seq->cow_forks(), 1);
  EXPECT_EQ(reg.counter("kv/cow_forks").value(), 1);

  std::vector<float> got(static_cast<size_t>(kvd)), want_k, want_v;
  // B reads the copied row at position 8 (A's content) and its own at 9+.
  b.seq->load_k(0, 8, got.data());
  fill_row(8, kvd, 0, want_k, want_v);
  EXPECT_EQ(std::memcmp(got.data(), want_k.data(), sizeof(float) * kvd), 0);
  b.seq->load_k(0, 9, got.data());
  fill_row(9, kvd, 99, want_k, want_v);
  EXPECT_EQ(std::memcmp(got.data(), want_k.data(), sizeof(float) * kvd), 0);

  // The cached prefix is untouched: a third request over A's full prompt
  // still reads A's rows at positions 8..11.
  auto c = pool.acquire(iota_tokens(13), 14, 1);
  ASSERT_NE(c.seq, nullptr);
  EXPECT_EQ(c.prefix_tokens, 12);
  for (int64_t pos = 8; pos < 12; ++pos) {
    c.seq->load_k(0, pos, got.data());
    fill_row(pos, kvd, 0, want_k, want_v);
    EXPECT_EQ(std::memcmp(got.data(), want_k.data(), sizeof(float) * kvd), 0) << pos;
  }
  // B decoded two divergent tokens past its prompt: its release donates
  // under a sibling token path and must not disturb A's node.
  std::vector<int64_t> b_tokens = iota_tokens(10);
  b_tokens.push_back(20);
  b_tokens.push_back(21);
  pool.release(b.seq, b_tokens, true);
  pool.release(c.seq, iota_tokens(12), true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.allocated_blocks(), pool.cached_blocks());
}

// Review regression: a decode that died mid-tick can leave layers with
// unequal block counts (layer 0 appended past a boundary layer 1 never
// reached). reuse=false release must recycle every owned block without
// walking out of bounds or throwing on the torn state.
TEST(PagedKvPool, TornSequenceReleaseIsSafe) {
  PagedKvPool pool(paged_cfg(4, 2, 8, 0));
  auto r = pool.acquire(iota_tokens(6), 10, 2);
  ASSERT_NE(r.seq, nullptr);
  std::vector<float> k, v;
  fill_row(0, 8, 0, k, v);
  // Layer 0 fills 6 positions (2 blocks); layer 1 only 2 (1 block).
  for (int64_t i = 0; i < 6; ++i) r.seq->append(0, k.data(), v.data());
  for (int64_t i = 0; i < 2; ++i) r.seq->append(1, k.data(), v.data());
  ASSERT_EQ(pool.allocated_blocks(), 3);
  pool.release(r.seq, {}, /*reuse=*/false);
  EXPECT_EQ(pool.allocated_blocks(), 0);
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_EQ(pool.free_blocks(), pool.total_blocks());
  EXPECT_EQ(pool.committed_bytes(), 0);
}

// The evictable-leaf index must evict in true LRU order: of two cached
// prefixes, the one touched by a later prefix hit survives pressure and
// the stale one goes.
TEST(PagedKvPool, EvictionPrefersLeastRecentlyUsedPrefix) {
  obs::Registry reg;
  const int64_t bb = 4 * nn::KvCache::bytes_per_position(1, 8, false);
  PagedKvPool pool(paged_cfg(4, 1, 8, /*budget=*/2 * bb, &reg));
  const auto prompt_a = iota_tokens(5);
  const auto prompt_b = seq_tokens(5, 24, 7);

  // Cache prefix A then prefix B (one full block each).
  for (const auto& prompt : {prompt_a, prompt_b}) {
    auto r = pool.acquire(prompt, 8, 1);
    ASSERT_NE(r.seq, nullptr);
    feed_positions(*r.seq, 4, 1);
    std::vector<int64_t> cached(prompt.begin(), prompt.begin() + 4);
    pool.release(r.seq, cached, true);
  }
  ASSERT_EQ(pool.cached_blocks(), 2);

  // Touch A via a prefix hit, making B the least recently used.
  auto touch = pool.acquire(prompt_a, 5, 1);
  ASSERT_NE(touch.seq, nullptr);
  ASSERT_EQ(touch.prefix_tokens, 4);
  pool.release(touch.seq, {}, false);

  // A cold sequence needs one block over budget: B must be evicted, A kept.
  auto cold = pool.acquire(seq_tokens(4, 24, 11), 4, 1);
  ASSERT_NE(cold.seq, nullptr);
  feed_positions(*cold.seq, 1, 1);
  EXPECT_EQ(reg.counter("kv/evicted_blocks").value(), 1);
  EXPECT_EQ(pool.cached_blocks(), 1);
  pool.release(cold.seq, {}, false);

  auto check_a = pool.acquire(prompt_a, 5, 1);
  ASSERT_NE(check_a.seq, nullptr);
  EXPECT_EQ(check_a.prefix_tokens, 4);  // A survived
  pool.release(check_a.seq, {}, false);
  auto check_b = pool.acquire(prompt_b, 5, 1);
  ASSERT_NE(check_b.seq, nullptr);
  EXPECT_EQ(check_b.prefix_tokens, 0);  // B was the LRU victim
  pool.release(check_b.seq, {}, false);
}

TEST(PagedKvPool, EvictionUnderPressureConservesBlocks) {
  obs::Registry reg;
  // Budget: exactly one worst-case sequence (8 positions -> 2 blocks/layer
  // x 3 layers).
  PagedKvPool pool(paged_cfg(4, 3, 16, 6 * 4 * nn::KvCache::bytes_per_position(1, 16, false),
                             &reg));
  auto a = pool.acquire(iota_tokens(8), 8, 3);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 7, 3);
  pool.release(a.seq, iota_tokens(7), true);
  ASSERT_EQ(pool.cached_blocks(), 3);  // 1 full block per layer

  // An unrelated sequence needs the whole budget: the cached prefix must
  // be evicted to make room, and the budget is never exceeded.
  auto b = pool.acquire(seq_tokens(8, 24, 7), 8, 3);
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 0);
  feed_positions(*b.seq, 8, 3, /*salt=*/5);
  EXPECT_EQ(reg.counter("kv/evicted_blocks").value(), 3);
  EXPECT_EQ(pool.cached_blocks(), 0);
  EXPECT_LE(pool.bytes_in_use(), pool.byte_budget());
  EXPECT_EQ(pool.allocated_blocks() + pool.free_blocks(), pool.total_blocks());
  pool.release(b.seq, seq_tokens(8, 24, 7), true);
  EXPECT_EQ(pool.committed_bytes(), 0);
  EXPECT_EQ(pool.allocated_blocks(), pool.cached_blocks());
}

TEST(PagedKvPool, PinnedPrefixCountsAgainstAdmission) {
  // One cached+pinned prefix plus a full-size reservation exactly fills
  // the budget: a third acquire must be rejected, not stranded mid-decode.
  const int64_t bb = 4 * nn::KvCache::bytes_per_position(1, 16, false);
  PagedKvPool pool(paged_cfg(4, 1, 16, 5 * bb));
  auto a = pool.acquire(iota_tokens(8), 8, 1);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 8, 1);
  pool.release(a.seq, iota_tokens(8), true);  // 2 cached blocks

  auto b = pool.acquire(iota_tokens(6), 8, 1);  // pins 1 full shared block
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 5);
  // committed = pinned shared (2 blocks: the node holds both) + owned
  // reservation (2 - 1 fully shared = 1... projected 8 -> 2 blocks, 1
  // shared full -> 1 owned).
  EXPECT_EQ(pool.committed_bytes(), 2 * bb + 1 * bb);
  // Remaining budget: 5 - 3 = 2 blocks. A cold 3-block ask must bounce.
  auto c = pool.acquire(seq_tokens(9, 24, 3), 12, 1);
  EXPECT_EQ(c.seq, nullptr);
  EXPECT_EQ(c.reason, KvAdmitReason::kByteBudget);
  auto d = pool.acquire(seq_tokens(8, 24, 3), 8, 1);  // 2 blocks: fits
  ASSERT_NE(d.seq, nullptr);
  pool.release(d.seq, {}, false);
  pool.release(b.seq, {}, false);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

TEST(PagedKvPool, ByteBudgetGatesAdmission) {
  const int64_t bb = 4 * nn::KvCache::bytes_per_position(1, 16, false);
  // Budget: two worst-case sequences of 8 positions x 3 layers (6 blocks).
  PagedKvPool pool(paged_cfg(4, 3, 16, /*budget=*/12 * bb));
  EXPECT_EQ(pool.projected_bytes(8, 3), 6 * bb);
  auto a = pool.acquire(iota_tokens(8), 8, 3);
  auto b = pool.acquire(seq_tokens(8, 24, 5), 8, 3);
  ASSERT_NE(a.seq, nullptr);
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(a.reason, KvAdmitReason::kOk);
  EXPECT_EQ(pool.committed_bytes(), 12 * bb);
  // Budget exhausted: even a one-block ask bounces, with a structured reason.
  auto c = pool.acquire({1}, 1, 1);
  EXPECT_EQ(c.seq, nullptr);
  EXPECT_EQ(c.reason, KvAdmitReason::kByteBudget);
  EXPECT_STREQ(to_string(c.reason), "kv: byte budget exceeded");
  pool.release(b.seq, {}, /*reuse=*/false);
  auto d = pool.acquire(seq_tokens(8, 24, 9), 8, 3);  // released bytes return
  ASSERT_NE(d.seq, nullptr);
  pool.release(d.seq, {}, false);
  pool.release(a.seq, {}, false);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

// Pinning an unreferenced cached prefix costs its full block, which can
// exceed what the match saves. When that pin is what breaks the budget,
// admission must shorten the match (here down to cold) instead of
// bouncing the request forever on an idle pool: unreferenced cache is only
// evicted by allocation, so a rejection could never clear.
TEST(PagedKvPool, PinThatBreaksBudgetFallsBackToShorterMatch) {
  obs::Registry reg;
  const int64_t bb = 4 * nn::KvCache::bytes_per_position(1, 8, false);
  PagedKvPool pool(paged_cfg(4, 1, 8, /*budget=*/2 * bb, &reg));
  auto a = pool.acquire(iota_tokens(4), 8, 1);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 7, 1);
  pool.release(a.seq, iota_tokens(7), true);  // caches one full block
  ASSERT_EQ(pool.cached_blocks(), 1);

  // Same 4-token prompt: the match is partial (3 tokens into the cached
  // block), so pinning it (1 block) plus the full 2-block reservation would
  // need 3 blocks of a 2-block budget. Cold admission fits.
  auto b = pool.acquire(iota_tokens(4), 8, 1);
  ASSERT_NE(b.seq, nullptr);
  EXPECT_EQ(b.prefix_tokens, 0);
  EXPECT_EQ(reg.counter("kv/rejected").value(), 0);
  EXPECT_EQ(pool.committed_bytes(), 2 * bb);
  // Decoding evicts the unreferenced cached block to stay within budget.
  feed_positions(*b.seq, 8, 1, /*salt=*/3);
  EXPECT_EQ(reg.counter("kv/evicted_blocks").value(), 1);
  EXPECT_LE(pool.allocated_blocks() * bb, pool.byte_budget());
  pool.release(b.seq, {}, false);
  EXPECT_EQ(pool.committed_bytes(), 0);
}

// bytes_in_use counts what live sequences hold — owned blocks plus the
// shared prefix blocks they pin — never unreferenced cache.
TEST(PagedKvPool, BytesInUseCountsOnlyLiveSequences) {
  obs::Registry reg;
  PagedKvPool pool(paged_cfg(4, 2, 8, /*budget=*/0, &reg));
  const int64_t bb = pool.block_bytes();
  auto a = pool.acquire(iota_tokens(8), 12, 2);
  ASSERT_NE(a.seq, nullptr);
  feed_positions(*a.seq, 8, 2);
  EXPECT_EQ(pool.bytes_in_use(), 4 * bb);
  pool.release(a.seq, iota_tokens(8), true);
  EXPECT_EQ(pool.cached_blocks(), 4);
  EXPECT_EQ(pool.bytes_in_use(), 0);
  EXPECT_EQ(reg.gauge("kv/bytes_in_use").value(), 0);
  EXPECT_EQ(reg.gauge("kv/blocks_in_use").value(), 4);  // the cache is still there

  // A prefix hit pins the first cached block (1 full block x 2 layers) and
  // owns the partial tail it forks.
  auto b = pool.acquire(iota_tokens(6), 12, 2);
  ASSERT_NE(b.seq, nullptr);
  ASSERT_EQ(b.prefix_tokens, 5);
  EXPECT_EQ(pool.bytes_in_use(), 4 * bb);  // both cached nodes pinned (full + partial)
  feed_positions(*b.seq, 1, 2, /*salt=*/7);  // COW fork of the partial block
  EXPECT_EQ(pool.bytes_in_use(), 6 * bb);
  pool.release(b.seq, {}, false);
  EXPECT_EQ(pool.bytes_in_use(), 0);
}

// Review regression: the scheduler must only donate a finished sequence's
// rows to the prefix cache for trusted terminals. finish(reuse=false) —
// the engine's kFailed path — recycles everything instead.
TEST(PagedScheduler, FailedFinishRecyclesInsteadOfDonating) {
  SchedulerConfig scfg;
  scfg.max_batch = 2;
  scfg.queue_capacity = 4;
  scfg.max_seq = 16;
  scfg.n_layers = 2;
  Scheduler sched(scfg, paged_cfg(/*block_tokens=*/4, 2, /*kv_dim=*/8, /*budget=*/0));

  auto run_one = [&](bool reuse) {
    auto s = std::make_unique<SeqState>();
    s->req.id = reuse ? 1 : 2;
    s->req.prompt = iota_tokens(8);
    s->req.max_new_tokens = 4;
    s->exit_layer_used = 2;
    ASSERT_TRUE(sched.enqueue(s));
    const auto r = sched.admit(0, DegradeLadder{}, std::chrono::steady_clock::now());
    ASSERT_EQ(r.admitted, 1);
    SeqState& a = *sched.active()[0];
    feed_positions(*a.kv, 8, 2);
    a.position = 8;
    a.prompt_fed = 8;
    auto done = sched.finish(0, reuse);
    ASSERT_NE(done, nullptr);
  };

  run_one(/*reuse=*/false);  // failed decode: rows untrusted
  EXPECT_EQ(sched.kv_pool().cached_blocks(), 0);
  EXPECT_EQ(sched.kv_pool().committed_bytes(), 0);

  run_one(/*reuse=*/true);  // clean completion donates (8 pos = 2 blocks x 2 layers)
  EXPECT_EQ(sched.kv_pool().cached_blocks(), 4);
  EXPECT_EQ(sched.kv_pool().committed_bytes(), 0);
  // A drained pool holds only reusable cache: nothing live.
  EXPECT_EQ(sched.kv_pool().bytes_in_use(), 0);
}

// --- engine over the paged pool ---------------------------------------------

// The determinism contract of the tentpole: greedy completions through the
// paged pool are byte-identical to single-sequence contiguous decode, at
// any worker-thread count and any (odd) block size.
TEST(PagedEngine, GreedyByteIdenticalToContiguousAtAnyThreadCount) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(40);
  nn::CausalLm model(cfg, rng);

  std::vector<std::vector<int64_t>> prompts;
  for (int64_t i = 0; i < 6; ++i) prompts.push_back(seq_tokens(3 + (i % 4), cfg.vocab, i * 3));
  std::vector<std::vector<int64_t>> want;
  for (const auto& p : prompts) want.push_back(reference_greedy(model, p, 6));

  for (const int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
    ServeEngine engine(model, engine_cfg(threads, /*max_batch=*/8, /*block_tokens=*/5));
    std::vector<std::future<Completion>> futs;
    for (size_t i = 0; i < prompts.size(); ++i) {
      futs.push_back(engine.submit(greedy_request(static_cast<int64_t>(i), prompts[i], 6)));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
      const Completion c = futs[i].get();
      EXPECT_EQ(c.status, RequestStatus::kOk);
      EXPECT_EQ(c.tokens, want[i]) << "threads " << threads << " request " << i;
    }
  }
}

// Quantized and voted paths: the engine's fp32 and int8 KV decode must
// match the single-sequence references exactly, voted requests included.
TEST(PagedEngine, QuantizedAndVotedMatchReference) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(41);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(5, cfg.vocab, 2);

  for (const bool quantize : {false, true}) {
    EngineConfig ecfg = engine_cfg(2, /*max_batch=*/8, /*block_tokens=*/4);
    ecfg.quantize_kv = quantize;
    ServeEngine engine(model, ecfg);
    auto voted = engine.submit(greedy_request(1, prompt, 5, ExitPolicy::kVoted));
    auto final_exit = engine.submit(greedy_request(2, prompt, 5));
    const Completion v = voted.get();
    const Completion f = final_exit.get();
    EXPECT_EQ(v.status, RequestStatus::kOk);
    EXPECT_EQ(f.status, RequestStatus::kOk);
    EXPECT_EQ(v.tokens, reference_voted(model, prompt, 5, quantize)) << "quantize " << quantize;
    EXPECT_EQ(f.tokens, reference_greedy(model, prompt, 5, /*exit_layer=*/0, quantize))
        << "quantize " << quantize;
  }
}

// Chunked prefill feeds several prompt tokens per tick; outputs must not
// change (the last prompt token still decodes in the main batch).
TEST(PagedEngine, ChunkedPrefillKeepsOutputsIdentical) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(42);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(8, cfg.vocab, 1);
  const auto want = reference_greedy(model, prompt, 5);

  EngineConfig ecfg = engine_cfg(2, /*max_batch=*/8, /*block_tokens=*/4);
  ecfg.prefill_chunk = 4;
  ServeEngine engine(model, ecfg);
  const Completion c = engine.submit(greedy_request(7, prompt, 5)).get();
  EXPECT_EQ(c.status, RequestStatus::kOk);
  EXPECT_EQ(c.tokens, want);
}

// Cross-request reuse end to end: a repeated prompt hits the prefix cache,
// skips its prefill, and still produces byte-identical greedy output.
TEST(PagedEngine, RepeatedPromptHitsPrefixCacheWithIdenticalOutput) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(43);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(10, cfg.vocab, 4);
  const auto want = reference_greedy(model, prompt, 4);

  ServeEngine engine(model, engine_cfg(1, /*max_batch=*/8, /*block_tokens=*/4));
  const Completion first = engine.submit(greedy_request(1, prompt, 4)).get();
  EXPECT_EQ(first.tokens, want);
  EXPECT_EQ(engine.registry().counter("kv/prefix_hit").value(), 0);

  const Completion second = engine.submit(greedy_request(2, prompt, 4)).get();
  EXPECT_EQ(second.status, RequestStatus::kOk);
  EXPECT_EQ(second.tokens, want);
  EXPECT_EQ(engine.registry().counter("kv/prefix_hit").value(), 1);
  // Reuse cap: prompt-1 = 9 positions were served from cache (2 full
  // 4-token blocks + 1 into the third).
  EXPECT_EQ(engine.registry().counter("kv/prefix_hit_tokens").value(), 9);
  engine.shutdown();
  // Drain invariant: nothing committed, everything either cached or free.
  EXPECT_EQ(engine.registry().gauge("kv/committed_bytes").value(), 0);
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
}

// Satellite regression: a request that only fits the budget *after* the
// admission ladder degrades it must be queued and served degraded, not
// rejected up front on its full-depth projection.
TEST(PagedEngine, DegradedRequestAdmitsWhereFullDepthWouldBeRejected) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(44);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab, 0);

  const int64_t per_pos_1 = nn::KvCache::bytes_per_position(1, cfg.kv_dim(), false);
  EngineConfig ecfg = engine_cfg(1, /*max_batch=*/8, /*block_tokens=*/4);
  ecfg.queue_capacity = 8;
  // Budget fits two depth-1 sequences of 8 positions; a full-depth (3
  // layer) projection of the same request is 3x and can never fit.
  ecfg.kv_byte_budget = 2 * 8 * per_pos_1;
  ecfg.admission.shed_policy = ShedPolicy::kDegradeEarlyExit;
  ecfg.admission.shed_queue_ratio = 0.05;  // second queued request trips it
  ServeEngine engine(model, ecfg);
  ASSERT_GT(ecfg.kv_byte_budget, 0);

  engine.pause();
  // Filler occupies the queue so the victim submits under pressure and is
  // marked force-degrade; it asks for depth 1 outright so it always fits.
  auto filler = engine.submit(greedy_request(1, prompt, 4, ExitPolicy::kFixedEarly, 1));
  auto victim = engine.submit(greedy_request(2, prompt, 4));  // full-depth ask
  engine.resume();

  const Completion f = filler.get();
  EXPECT_EQ(f.status, RequestStatus::kOk);
  const Completion v = victim.get();
  EXPECT_EQ(v.status, RequestStatus::kOk) << v.error;
  EXPECT_TRUE(v.degraded);
  EXPECT_EQ(v.exit_layer_used, 1);
  EXPECT_EQ(v.tokens, reference_greedy(model, prompt, 4, /*exit_layer=*/1));
}

// A drained engine holds no live KV: kv/bytes_in_use reads 0 even though
// the prefix cache kept the finished request's blocks.
TEST(PagedEngine, DrainedEngineReadsZeroBytesInUseWhileCaching) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(47);
  nn::CausalLm model(cfg, rng);
  ServeEngine engine(model, engine_cfg(1, /*max_batch=*/8, /*block_tokens=*/4));
  const Completion c = engine.submit(greedy_request(1, seq_tokens(8, cfg.vocab, 1), 4)).get();
  ASSERT_EQ(c.status, RequestStatus::kOk);
  engine.shutdown();
  EXPECT_GT(engine.registry().gauge("kv/blocks_cached").value(), 0);
  EXPECT_EQ(engine.registry().gauge("kv/bytes_in_use").value(), 0);
  EXPECT_EQ(engine.registry().gauge("kv/committed_bytes").value(), 0);
}

// With no byte budget the prefix cache must not grow without limit under
// never-repeating traffic: allocation evicts cached blocks once the pool
// would pass max_batch full-context sequences' worth of blocks.
TEST(PagedEngine, NeverRepeatingTrafficKeepsCacheWithinDerivedLimit) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(48);
  nn::CausalLm model(cfg, rng);
  const int64_t max_batch = 2;
  const int64_t bt = 4;
  // 1000 distinct prompts (the first three tokens spell i in base 24); each
  // caches 11 positions and donates 2 full blocks per layer on completion.
  // References for a sample are decoded before the engine owns the model.
  auto prompt_of = [](int64_t i) {
    return std::vector<int64_t>{i % 24, (i / 24) % 24, i / 576, 5, 7, 11};
  };
  std::vector<std::vector<int64_t>> want;
  for (int64_t i = 0; i < 1000; i += 100) {
    want.push_back(reference_greedy(model, prompt_of(i), 6));
  }

  EngineConfig ecfg = engine_cfg(1, max_batch, bt);
  ecfg.queue_capacity = 1000;
  ServeEngine engine(model, ecfg);
  // max_batch x ceil(max_seq / bt) blocks per layer x n_layers.
  const int64_t limit_blocks = max_batch * ((cfg.max_seq + bt - 1) / bt) * cfg.n_layers;
  const int64_t block_bytes = bt * nn::KvCache::bytes_per_position(1, cfg.kv_dim(), false);

  std::vector<std::future<Completion>> futs;
  for (int64_t i = 0; i < 1000; ++i) {
    futs.push_back(engine.submit(greedy_request(i, prompt_of(i), 6)));
  }
  for (int64_t i = 0; i < 1000; ++i) {
    const Completion c = futs[static_cast<size_t>(i)].get();
    ASSERT_EQ(c.status, RequestStatus::kOk) << i << " " << c.error;
    if (i % 100 == 0) {
      EXPECT_EQ(c.tokens, want[static_cast<size_t>(i / 100)]) << i;
    }
  }
  engine.shutdown();
  obs::Registry& reg = engine.registry();
  EXPECT_LE(reg.gauge("kv/blocks_in_use").value(), limit_blocks);
  EXPECT_LE(reg.gauge("kv/high_water_bytes").value(), limit_blocks * block_bytes);
  EXPECT_GT(reg.counter("kv/evicted_blocks").value(), 0);
  EXPECT_EQ(reg.gauge("kv/bytes_in_use").value(), 0);
}

// Review regression (end to end): a request that fails mid-decode must not
// donate its rows to the prefix cache — poisoned logits fail the request
// after its whole prompt was appended, which the old reuse-always release
// would have cached for the next identical prompt.
TEST(PagedEngine, FailedDecodeDoesNotDonateToPrefixCache) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(45);
  nn::CausalLm model(cfg, rng);

  runtime::ServeFaultPlan plan;
  plan.poison_logits_prob = 1.0;
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg = engine_cfg(1, /*max_batch=*/8, /*block_tokens=*/4);
  ecfg.fault = &fault;
  ServeEngine engine(model, ecfg);

  const Completion c = engine.submit(greedy_request(1, seq_tokens(8, cfg.vocab, 2), 4)).get();
  EXPECT_EQ(c.status, RequestStatus::kFailed);
  engine.shutdown();
  EXPECT_EQ(engine.registry().gauge("kv/blocks_cached").value(), 0);
  EXPECT_EQ(engine.registry().gauge("kv/committed_bytes").value(), 0);
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
}

// Review regression: a request that only fits the budget at the ladder
// floor, arriving under LOW pressure (no threshold tripped at submit), is
// admitted on the floor-depth projection. Admission must then degrade the
// stuck head after degrade_budget_retries byte-budget rejections — with
// the old code it retried at full depth forever and wedged the queue.
TEST(PagedEngine, BudgetStuckHeadDegradesInsteadOfWedging) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(46);
  nn::CausalLm model(cfg, rng);
  const auto prompt = seq_tokens(4, cfg.vocab, 0);
  const auto want = reference_greedy(model, prompt, 4, /*exit_layer=*/1);

  const int64_t per_pos_1 = nn::KvCache::bytes_per_position(1, cfg.kv_dim(), false);
  EngineConfig ecfg = engine_cfg(1, /*max_batch=*/8, /*block_tokens=*/4);
  // 8 projected positions: fits at the depth-1 floor (8 positions' worth),
  // never at the full 3-layer depth (24).
  ecfg.kv_byte_budget = 16 * per_pos_1;
  // A degrade mechanism is configured but its threshold never trips for
  // this lone request, so submit-time pressure cannot save it.
  ecfg.admission.degrade_queue_ratio = 0.95;
  ServeEngine engine(model, ecfg);

  const Completion c = engine.submit(greedy_request(1, prompt, 4)).get();
  EXPECT_EQ(c.status, RequestStatus::kOk) << c.error;
  EXPECT_TRUE(c.degraded);
  EXPECT_EQ(c.exit_layer_used, 1);
  EXPECT_EQ(c.tokens, want);
  EXPECT_EQ(engine.metrics().degraded, 1);
}

}  // namespace
}  // namespace edgellm::serve
