// Continuous-batching scheduler: the single-threaded mechanics core of the
// serving engine. Requests wait in a bounded FIFO admission queue; at every
// token boundary the scheduler stages as many as fit (batch slots AND the
// KV pool's byte budget), and finished/cancelled sequences free their slot
// immediately so the next queued request joins mid-flight — no
// stop-the-world batch boundaries.
//
// Overload *policy* lives in AdmissionController (src/serve/admission.*);
// this class executes its decisions: deadline-expired requests are retired
// at every staging scan (they never occupy a batch slot), staging can
// downgrade a request along the degradation ladder before reserving KV
// bytes, transient KV admission failures retry with bounded exponential
// backoff, and load shedding can evict a lower-priority queued request.
//
// Concurrency is the engine's problem (src/serve/engine): the engine calls
// every method here under its own lock, between decode barriers.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "serve/kv_pool.hpp"
#include "serve/request.hpp"
#include "tensor/rng.hpp"

namespace edgellm::serve {

/// One admitted sequence's decode state.
struct SeqState {
  Request req;
  std::promise<Completion> promise;
  /// Optional push-side streaming callbacks (see request.hpp). The engine
  /// invokes on_token per sampled token and on_done when the promise
  /// resolves.
  StreamSink sink;
  /// Effective exit policy/layer. Starts as the request's and may be
  /// *downgraded* (never upgraded) by the degradation ladder at staging —
  /// the engine decodes with these, not with req's.
  ExitPolicy policy = ExitPolicy::kFinal;
  int64_t exit_layer = 0;
  bool degraded = false;       ///< ladder moved this request off its ask
  bool force_degrade = false;  ///< shed policy kDegradeEarlyExit marked it at submit
  /// This sequence's KV cache, set at admission and owned by the pool.
  /// The engine decodes through it.
  PagedKvSeq* kv = nullptr;
  int64_t exit_layer_used = 0;  ///< resolved depth (n_layers for final/voted)
  int64_t position = 0;         ///< tokens cached so far
  size_t prompt_fed = 0;        ///< prompt tokens fed so far
  int64_t last_token = 0;       ///< token to feed next once the prompt is done
  std::vector<int64_t> out;     ///< generated tokens
  Rng rng{0};
  bool cancelled = false;
  bool resolved = false;        ///< promise already satisfied (watchdog path)
  std::string error;            ///< structured reason for non-kOk terminals
  int64_t admission_attempts = 0;  ///< failed transient KV acquires so far
  std::chrono::steady_clock::time_point retry_after{};  ///< backoff gate
  int64_t kv_bytes_at_end = 0;  ///< cache bytes sampled just before release
  /// kSpeculative only: resolved draft exit depth and verify width, fixed at
  /// submit() (0 otherwise). Degradation switches policy to kFixedEarly, at
  /// which point these are simply ignored.
  int64_t spec_depth = 0;
  int64_t spec_k = 0;
  int64_t spec_drafted = 0;   ///< drafts proposed across all rounds
  int64_t spec_accepted = 0;  ///< drafts confirmed by full-depth verify
  std::chrono::steady_clock::time_point submit_t, admit_t, first_token_t;
  bool has_first_token = false;

  bool prompt_done() const { return prompt_fed >= req.prompt.size(); }
  /// The token this sequence feeds at the next tick.
  int64_t next_token() const {
    return prompt_done() ? last_token : req.prompt[prompt_fed];
  }
};

/// The exit depths the degradation ladder downgrades to, resolved once by
/// the engine from the model's registered exits. Level 1 = deepest early
/// exit (mild accuracy trade), level 2 = shallowest (survival floor). Both
/// 0 when the model registers no exit below its final layer — then the
/// ladder is a no-op.
struct DegradeLadder {
  int64_t deep = 0;
  int64_t shallow = 0;
  int64_t depth(int level) const {
    if (level >= 2 && shallow > 0) return shallow;
    return deep;
  }
};

struct SchedulerConfig {
  int64_t max_batch = 8;        ///< max concurrently decoding sequences
  int64_t queue_capacity = 64;  ///< bounded admission queue
  int64_t max_seq = 0;          ///< model context window
  int64_t n_layers = 0;         ///< model depth
  /// Bounded retry for *transient* KV admission failures (byte budget,
  /// injected faults): after this many failed attempts the head request is
  /// shed with a structured reason instead of wedging the queue. 0 keeps
  /// the pre-resilience behavior: retry forever, FIFO order preserved.
  int64_t max_admission_retries = 0;
  /// Backoff between admission attempts, doubling per failure (capped at
  /// 64x). 0 retries at every staging scan.
  double retry_backoff_ms = 0.0;
  /// After this many consecutive byte-budget rejections, the head request
  /// is forced down the degradation ladder to its floor and retried with
  /// the smaller reservation. This is what makes the engine's floor-depth
  /// can-this-ever-fit check at submit() sound: a request admitted because
  /// it fits *degraded* is guaranteed to eventually be degraded, instead
  /// of wedging the queue at a depth that never fits. 0 disables (then the
  /// engine must project admission at the request's full asked depth).
  int64_t degrade_budget_retries = 0;
  /// Serve-path fault injection (null = none): can fail KV acquires.
  runtime::ServeFaultInjector* fault = nullptr;
};

class Scheduler {
 public:
  /// What one staging scan did. The engine resolves the moved-out states.
  struct AdmitResult {
    std::vector<std::unique_ptr<SeqState>> expired;  ///< deadline passed while queued
    std::vector<std::unique_ptr<SeqState>> shed;     ///< retry budget exhausted (error set)
    int64_t admitted = 0;
    int64_t degraded = 0;  ///< requests downgraded at this scan
    int64_t retries = 0;   ///< failed transient admission attempts at this scan
  };

  /// The scheduler sets the pool's n_layers, max_seqs and max_seq from
  /// `cfg`; the caller supplies the rest of `pool_cfg`.
  Scheduler(SchedulerConfig cfg, KvPoolConfig pool_cfg);

  /// Queues a request. Moves from `s` and returns true, or returns false
  /// (queue full) leaving `s` untouched so the caller can reject it.
  bool enqueue(std::unique_ptr<SeqState>& s);

  /// One staging scan: retires deadline-expired queued requests, then
  /// admits in FIFO order while batch slots and the KV byte budget allow,
  /// applying `degrade_level` (and per-request force_degrade) through the
  /// ladder before reserving bytes. Head-of-line order is preserved: if the
  /// head does not fit, nothing behind it jumps the queue — but a head that
  /// exhausts its bounded retries is shed so it cannot wedge the queue
  /// forever.
  AdmitResult admit(int degrade_level, const DegradeLadder& ladder,
                    std::chrono::steady_clock::time_point now);

  /// Removes and returns the queued request with the numerically largest
  /// priority value strictly greater than `than_priority` (i.e. strictly
  /// less important), preferring the most recently enqueued among ties.
  /// Returns nullptr when no such victim exists.
  std::unique_ptr<SeqState> evict_lower_priority(int64_t than_priority);

  /// Cancels a request by id. Queued: removed and returned for immediate
  /// resolution. Active: flagged; the engine resolves it at the next
  /// barrier. Returns nullptr + sets `found` accordingly.
  std::unique_ptr<SeqState> cancel(int64_t id, bool* found);

  /// Removes an active sequence (KV released) and returns its state for
  /// completion. `reuse` donates the sequence's cached rows to the pool's
  /// prefix cache — pass true only for terminals whose cache contents are
  /// trusted (completed/cancelled/timed-out at a barrier), never for a
  /// sequence retired after a decode failure: its appends may be torn
  /// mid-layer and must be recycled, not shared.
  std::unique_ptr<SeqState> finish(size_t active_index, bool reuse);

  /// Earliest retry_after among queued requests still in backoff, or the
  /// epoch when none are — the engine uses it to sleep exactly until the
  /// next admission attempt is due instead of polling.
  std::chrono::steady_clock::time_point next_retry_time() const;

  /// Watchdog failure path: applies `fn` to every queued and active
  /// sequence so the engine can resolve their promises in place. Ownership
  /// and KV are untouched — a wedged decode may still be writing into
  /// active caches.
  void for_each_pending(const std::function<void(SeqState&)>& fn);

  /// Failed-stop cleanup, called once the wedged decode has returned:
  /// releases every active sequence's KV and destroys all queued/active
  /// state.
  /// Every promise must already be resolved (see for_each_pending).
  void clear_failed();

  std::vector<std::unique_ptr<SeqState>>& active() { return active_; }
  /// The KV pool (its accounting accessors are safe from any thread).
  PagedKvPool& kv_pool() { return pool_; }
  const PagedKvPool& kv_pool() const { return pool_; }

  size_t queued() const { return queue_.size(); }
  bool idle() const { return active_.empty() && queue_.empty(); }
  const SchedulerConfig& config() const { return cfg_; }

 private:
  /// Applies the ladder to one request; returns true when this call
  /// downgraded it (first transition only).
  static bool apply_degrade(SeqState& s, int level, const DegradeLadder& ladder);

  /// Hands the cached rows back with the token ids they hold (`reuse`
  /// donates them to the prefix cache).
  void release_kv(SeqState& s, bool reuse);

  SchedulerConfig cfg_;
  PagedKvPool pool_;
  std::deque<std::unique_ptr<SeqState>> queue_;
  std::vector<std::unique_ptr<SeqState>> active_;
};

}  // namespace edgellm::serve
