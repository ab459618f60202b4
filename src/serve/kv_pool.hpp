// The serving engine's KV store: vLLM-style paged storage under one
// global byte budget.
//
// A sequence's rows live in fixed-size blocks (block_tokens positions x one
// layer each) chained by a per-layer block table, so admission reserves
// only the *incremental* blocks a request needs after matching its prompt
// against a prefix trie of finished sequences. Shared prefix blocks are
// reference-counted and copy-on-write: a request that diverges mid-block
// gets a private copy at the divergence point, never mutating the cached
// prefix. Unreferenced cached prefixes are LRU-evicted when allocation
// needs the blocks back — under the byte budget, or, with no budget, once
// the pool holds more than every live sequence could ever need.
//
// Thread model: accounting state is guarded by an internal mutex, so the
// metrics accessors are safe to poll from any thread while the scheduler
// acquires/releases. Sequence *contents* are not locked: the engine hands
// each sequence to exactly one worker between barriers, workers append
// only to blocks their own sequence owns, and shared prefix blocks are
// read-only while referenced. Block allocation (which may run inside a
// worker's append) takes the pool mutex; row reads and writes never do.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "nn/kv_cache.hpp"
#include "obs/metrics.hpp"

namespace edgellm::serve {

struct KvPoolConfig {
  int64_t block_tokens = 16;  ///< positions per KV block (power of two not required)
  int64_t n_layers = 0;       ///< model depth: max layers any sequence may use
  int64_t kv_dim = 0;         ///< model.config().kv_dim()
  int64_t byte_budget = 0;    ///< cap on allocated block bytes; 0 = admission never rejects
  bool quantize = false;      ///< int8 blocks (one fp32 scale per row)
  /// Most sequences live at once and the longest sequence (the engine's
  /// max_batch and the model's context window; the scheduler sets both).
  /// With byte_budget == 0 they bound the prefix cache: allocation evicts
  /// unreferenced cached blocks once allocated bytes would pass
  /// max_seqs * projected_bytes(max_seq, n_layers), so never-repeating
  /// traffic cannot grow the cache without limit.
  int64_t max_seqs = 8;
  int64_t max_seq = 0;
  /// Non-owning metrics sink (must outlive the pool): kv/acquired,
  /// kv/released, kv/rejected, kv/prefix_hit, kv/prefix_miss,
  /// kv/prefix_hit_tokens, kv/evicted_blocks, kv/cow_forks counters and
  /// kv/bytes_in_use, kv/committed_bytes, kv/high_water_bytes,
  /// kv/blocks_in_use, kv/blocks_cached gauges; null records nothing.
  obs::Registry* registry = nullptr;
};

/// Why an acquire() failed — the structured reason retry logic needs:
/// budget exhaustion is transient (live sequences release bytes as they
/// finish) while a projection larger than the whole budget is permanent
/// (callers pre-check that with projected_bytes()).
enum class KvAdmitReason {
  kOk,
  kByteBudget,  ///< projection would push committed bytes over the budget
};

const char* to_string(KvAdmitReason r);

/// One fixed-capacity KV block: `block_tokens` positions of K and V rows
/// for a single layer. Exactly one representation is populated depending
/// on the pool's quantize flag. Blocks are recycled through a free list —
/// storage is sized once and row writes overwrite in place.
struct KvBlock {
  std::vector<float> k, v;            ///< fp32: block_tokens * kv_dim each
  std::vector<int8_t> kq, vq;         ///< int8 payload
  std::vector<float> k_scales, v_scales;  ///< one fp32 scale per row
};

class PagedKvPool;

/// One admitted sequence's view of the paged pool: a per-layer table of
/// block pointers. The first `shared_len()` positions may live in blocks
/// shared with the prefix cache (read-only); appends go to owned blocks,
/// copy-on-write-forking a partially-consumed shared block at the
/// divergence point. Implements the row-addressed decode interface, so
/// attention reads through the block table and stays bitwise identical to
/// contiguous storage.
class PagedKvSeq final : public nn::KvSequenceView {
 public:
  void append(int64_t layer, const float* k, const float* v) override;
  void load_k(int64_t layer, int64_t pos, float* out) const override;
  void load_v(int64_t layer, int64_t pos, float* out) const override;
  const float* k_row(int64_t layer, int64_t pos) const override;
  const float* v_row(int64_t layer, int64_t pos) const override;
  int64_t n_layers() const override { return depth_; }
  int64_t kv_dim() const override { return kv_dim_; }
  bool quantized() const override { return quantize_; }
  int64_t positions(int64_t layer) const override;
  /// Speculative-decode rewind: drops cached positions >= n in every
  /// layer. Owned blocks past the new tail are recycled to the pool's free
  /// list; shared prefix blocks are never touched (they belong to the trie
  /// and stay pinned for this sequence), so truncating into the shared
  /// region only rolls `positions()` back — a later append copy-on-write
  /// forks exactly as a partial prefix match would. Takes the pool mutex.
  void truncate(int64_t n) override;
  /// Bytes of blocks this sequence *owns* (shared prefix blocks are the
  /// cache's, not this request's marginal cost).
  int64_t bytes() const override;

  /// Positions served from the prefix cache at admission (the tokens this
  /// request never had to prefill).
  int64_t shared_len() const { return shared_len_; }
  /// Copy-on-write block copies this sequence performed (one per layer at
  /// the divergence point).
  int64_t cow_forks() const { return cow_forks_; }

 private:
  friend class PagedKvPool;
  PagedKvSeq() = default;

  PagedKvPool* pool_ = nullptr;
  int64_t depth_ = 0;
  int64_t kv_dim_ = 0;
  int64_t block_tokens_ = 0;
  bool quantize_ = false;
  int64_t shared_len_ = 0;
  int64_t cow_forks_ = 0;
  int64_t reserved_bytes_ = 0;  ///< committed at acquire, returned at release
  std::vector<std::vector<KvBlock*>> table_;  ///< [layer][block index]
  /// Per layer: table entries below this index are shared (read-only).
  /// Appending into the last shared entry (a partial prefix match) forks it.
  std::vector<int64_t> owned_from_;
  std::vector<int64_t> len_;            ///< cached positions per layer
  std::vector<void*> pins_;             ///< trie nodes ref'd for this seq (internal)
};

/// Paged KV pool with cross-request prefix reuse. See file header for the
/// storage model. Admission contract: a request is reserved its worst-case
/// *incremental* block bytes up front, so block allocation mid-decode can
/// never fail for an admitted sequence (cached, unreferenced prefixes are
/// evicted on demand to honor the reservation).
class PagedKvPool {
 public:
  explicit PagedKvPool(KvPoolConfig cfg);
  ~PagedKvPool();

  PagedKvPool(const PagedKvPool&) = delete;
  PagedKvPool& operator=(const PagedKvPool&) = delete;

  struct AcquireResult {
    PagedKvSeq* seq = nullptr;   ///< null when rejected
    int64_t prefix_tokens = 0;   ///< positions pre-filled from the prefix cache
    KvAdmitReason reason = KvAdmitReason::kOk;
  };

  /// Admits a sequence that will decode `n_layers` layers (the
  /// post-degrade effective depth) and grow to at most
  /// `projected_positions` cached positions. The prompt is matched
  /// against the prefix trie: full-block hits are referenced in place,
  /// and a divergence inside a cached block is referenced up to the
  /// divergence point (copy-on-write on first append). At most
  /// prompt.size()-1 positions are reused — the last prompt token always
  /// decodes so the request's first sampled logits exist. Reservation =
  /// (total projected blocks - fully shared blocks) * n_layers. When
  /// pinning the matched prefix is what would break the byte budget, the
  /// match is shortened (down to a cold admission) rather than rejected.
  AcquireResult acquire(const std::vector<int64_t>& prompt, int64_t projected_positions,
                        int64_t n_layers);

  /// Returns a sequence. `tokens` must be the ids whose rows the cache
  /// holds, in order (the first seq->positions(0) of prompt + generated
  /// tokens). With `reuse`, every full owned block is donated to the
  /// prefix trie for future requests (LRU-evictable once unreferenced);
  /// without it (failed decodes — contents untrusted) everything owned is
  /// recycled immediately, `tokens` is ignored, and torn state is
  /// tolerated: a decode that died mid-tick may have appended to some
  /// layers but not others, so per-layer block counts may disagree.
  /// Call only at a tick barrier, when no worker is appending to `seq`.
  void release(PagedKvSeq* seq, const std::vector<int64_t>& tokens, bool reuse);

  /// Worst-case (no prefix hit) projected bytes, block-granular: what
  /// budget sizing and the engine's can-this-ever-fit check use.
  int64_t projected_bytes(int64_t positions, int64_t n_layers) const;

  int64_t block_bytes() const;
  int64_t block_tokens() const { return cfg_.block_tokens; }
  int64_t byte_budget() const { return cfg_.byte_budget; }
  /// Allocated bytes above which allocation evicts cached prefixes: the
  /// byte budget, or with none, max_seqs * projected_bytes(max_seq,
  /// n_layers). Only a budget makes it a hard cap.
  int64_t cache_limit_bytes() const { return limit_bytes_; }

  /// Reserved incremental bytes of live sequences plus bytes of shared
  /// prefix blocks they pin — everything admission must treat as spoken
  /// for.
  int64_t committed_bytes() const;
  /// Bytes live sequences hold: their owned blocks plus the shared prefix
  /// blocks they pin. Unreferenced cached prefixes are not counted (see
  /// cached_blocks()), so a drained pool reads 0.
  int64_t bytes_in_use() const;
  /// Peak bytes of allocated blocks (live + cached): the pool's memory
  /// high-water mark.
  int64_t high_water_bytes() const;
  int64_t seqs_in_use() const;
  int64_t allocated_blocks() const;  ///< live-owned + cached
  int64_t cached_blocks() const;     ///< held by the prefix trie
  int64_t free_blocks() const;       ///< recycled, awaiting reuse
  int64_t total_blocks() const;      ///< ever constructed (== allocated + free)

 private:
  friend class PagedKvSeq;
  struct TrieNode;

  KvBlock* allocate_block_locked();
  void recycle_block_locked(KvBlock* b);
  /// Evicts the least-recently-used unreferenced leaf (the head of
  /// `evictable_`, O(log n)); false when nothing is evictable.
  bool evict_one_locked();
  void unpin_locked(TrieNode* n);
  TrieNode* pin_locked(TrieNode* n);
  int64_t node_bytes_locked(const TrieNode& n) const;
  void touch_locked(TrieNode* n);
  /// Re-derives whether `n` belongs in `evictable_` (unreferenced leaf)
  /// and inserts/removes it. Call after any change to refs or children.
  void sync_evictable_locked(TrieNode* n);
  int64_t live_bytes_locked() const;
  void update_gauges_locked();

  /// Called by PagedKvSeq::append when it needs a fresh block (tail full,
  /// or a copy-on-write fork). Never fails for an admitted sequence: the
  /// reservation covers it and cached blocks are evicted on demand.
  KvBlock* allocate_block();
  /// Called by PagedKvSeq::truncate: recycles the sequence's owned blocks
  /// past position `n` under the pool mutex. The reservation made at
  /// acquire is untouched — the freed blocks may be re-allocated by the
  /// same sequence on its next append, still within the reservation.
  void truncate_seq(PagedKvSeq* seq, int64_t n);
  /// Counter bump from PagedKvSeq::append (atomic, lock-free).
  void count_cow_fork();

  KvPoolConfig cfg_;
  int64_t limit_bytes_ = 0;  ///< see cache_limit_bytes()

  obs::Counter* c_acquired_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_released_ = nullptr;
  obs::Counter* c_prefix_hit_ = nullptr;
  obs::Counter* c_prefix_miss_ = nullptr;
  obs::Counter* c_prefix_hit_tokens_ = nullptr;
  obs::Counter* c_evicted_blocks_ = nullptr;
  obs::Counter* c_cow_forks_ = nullptr;
  obs::Gauge* g_bytes_ = nullptr;
  obs::Gauge* g_committed_ = nullptr;
  obs::Gauge* g_high_water_ = nullptr;
  obs::Gauge* g_blocks_ = nullptr;
  obs::Gauge* g_blocks_cached_ = nullptr;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<KvBlock>> blocks_;  ///< every block ever constructed
  std::vector<KvBlock*> free_;                    ///< recycled blocks
  std::unique_ptr<TrieNode> root_;
  /// Eviction candidates — every unreferenced leaf, keyed by its last_use
  /// stamp (unique: the clock advances per touch). begin() is the LRU
  /// victim, so eviction never re-walks the trie under the pool mutex.
  std::map<uint64_t, TrieNode*> evictable_;
  std::unordered_map<PagedKvSeq*, std::unique_ptr<PagedKvSeq>> live_;
  uint64_t lru_clock_ = 0;
  int64_t allocated_blocks_ = 0;  ///< live-owned + cached (never free-listed)
  int64_t cached_blocks_ = 0;     ///< owned by trie nodes
  int64_t committed_ = 0;         ///< live reservations (incremental bytes)
  int64_t pinned_bytes_ = 0;      ///< shared blocks referenced by live seqs
  int64_t high_water_ = 0;        ///< max allocated bytes ever
};

}  // namespace edgellm::serve
