// The serving engine: a multi-threaded, continuously-batched generation
// runtime over one CausalLm.
//
//   - submit() is thread-safe and non-blocking: the request enters a
//     bounded admission queue (or is rejected when full) and resolves a
//     std::future<Completion> when done.
//   - A scheduler thread runs the continuous-batching loop: at every token
//     boundary it admits queued requests into free batch slots (subject to
//     the KV pool's byte budget), advances all active sequences by one
//     token, samples, and retires finished/cancelled/expired sequences so
//     their slots free immediately.
//   - Decode work is sharded across worker threads; each worker advances a
//     contiguous sub-batch with nn::batched_decode_step (stacked matmuls),
//     so batching pays off even single-core and scales with cores.
//   - Exit policies per request: final exit, a fixed early exit (cheap
//     decode), or voted — every exit head's logits combined per token via
//     core::voting, the paper's accuracy-recovery mechanism at serve time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "core/voting.hpp"
#include "nn/decoder.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/scheduler.hpp"

namespace edgellm::serve {

struct EngineConfig {
  int64_t max_batch = 8;        ///< max concurrently decoding sequences
  int64_t queue_capacity = 64;  ///< bounded admission queue
  int64_t threads = 2;          ///< decode worker threads (1 = in-loop decode)
  /// Compute threads for the deterministic tensor backend inside each
  /// decode tick (tensor/parallel.hpp): parallel matmul rows and
  /// per-sequence attention. 0 leaves the process-global setting alone.
  /// Orthogonal to `threads` (which shards the batch): completions are
  /// bitwise identical at any value of either. Throughput note: the
  /// backend runs one fan-out at a time, so with `threads > 1` the
  /// workers' kernels take turns on the shared pool — prefer
  /// compute_threads = 0 when sharding the batch across workers, and
  /// raise it only when a bench_serve_throughput sweep on your hardware
  /// shows a win (see docs/PERFORMANCE.md).
  int64_t compute_threads = 0;
  /// Opt into the fast-math GEMM/dequant-dot kernels (FMA + multi-
  /// accumulator; tensor/simd.hpp) for the whole process. Faster on vector
  /// backends, but completions are no longer bitwise identical to the
  /// deterministic reference — leave off when reproducibility matters.
  /// The engine applies this to the global ops::gemm flag at construction.
  bool fast_math = false;
  /// Global KV cap in bytes (serve::PagedKvPool: block-granular admission
  /// with cross-request prefix reuse — a request whose prompt prefix
  /// matches a finished sequence's cached blocks skips prefilling those
  /// positions). 0 = admission never rejects on bytes; the prefix cache is
  /// then bounded by max_batch full-context sequences.
  int64_t kv_byte_budget = 0;
  bool quantize_kv = false;      ///< int8 KV blocks
  int64_t kv_block_tokens = 16;  ///< positions per KV block
  /// Max prompt tokens a prefilling sequence advances per scheduler tick
  /// (chunked prefill). 1 = classic one-token ticks; higher values reach
  /// the first sampled token in fewer ticks by running prompt-only
  /// micro-batches ahead of the regular step — never the last prompt
  /// token, so sampling (and bitwise outputs) are unaffected.
  int64_t prefill_chunk = 1;
  /// Hold packable compressed weights (per-row symmetric int4/int8, no
  /// LoRA) as PackedMatrix in the decode weight cache and multiply against
  /// the packed integers directly (quant::packed_matmul_nt). Cuts the
  /// cache's memory to the deployed footprint and skips dequantization,
  /// but uses deployed integer-kernel numerics — completions are no longer
  /// bitwise identical to the fp32 effective-weight path, so this is
  /// opt-in. Uncompressed/LoRA layers are unaffected.
  bool pack_compressed_weights = false;
  /// Default draft exit depth for kSpeculative requests whose own
  /// draft_depth is 0. Must be a registered exit below the final layer;
  /// 0 (default) means the deepest registered early exit.
  int64_t speculative_depth = 0;
  /// Default verify width (tokens checked per stacked full-depth pass, of
  /// which k-1 are drafted) for kSpeculative requests whose draft_k is 0.
  int64_t draft_k = 4;
  /// Mode/temperature for kVoted requests (weights via set_exit_weights).
  core::VoterConfig voting;
  /// >= 0 enables the process-global obs::Tracer at construction with this
  /// kernel-span sampling interval (0 = structural spans only, N = every
  /// Nth kernel call per thread); -1 (default) leaves the tracer alone.
  /// See docs/OBSERVABILITY.md.
  int64_t trace_kernel_sample = -1;
  /// Overload policy: per-tenant quotas, shed/degrade thresholds. The
  /// defaults (all thresholds 0) are inert — see serve/admission.hpp.
  AdmissionConfig admission;
  /// Bounded retry for transient KV admission failures: the queue head is
  /// shed after this many failed acquire attempts. 0 (default) retries
  /// forever — the pre-resilience wait-in-FIFO behavior.
  int64_t max_admission_retries = 0;
  /// Exponential backoff base between admission retries, ms (0 = retry at
  /// every tick). See SchedulerConfig.
  double retry_backoff_ms = 0.0;
  /// When a degrade mechanism is configured (any degrade_* threshold or
  /// the degrade-early-exit shed policy): after this many consecutive
  /// byte-budget admission rejections the queue head is forced down the
  /// ladder to its floor and retried with the smaller KV reservation.
  /// This guarantee is what lets submit() accept requests that only fit
  /// the budget degraded (rejecting on the full-depth ask would turn them
  /// away) without risking a head that waits at full depth forever. 0
  /// disables head degradation — submit() then rejects anything that
  /// cannot fit at its full asked depth. Ignored when no degrade
  /// mechanism is configured.
  int64_t degrade_budget_retries = 2;
  /// Scheduler-stall watchdog: when the loop's heartbeat stops advancing
  /// for this long while work is pending (a wedged decode), every pending
  /// request fails cleanly with kFailed and the engine stops accepting.
  /// 0 (default) disables the watchdog. Set well above your worst-case
  /// legitimate tick time.
  int64_t watchdog_stall_ms = 0;
  /// Serve-path fault injection for resilience testing (must outlive the
  /// engine); null = no faults. See runtime::ServeFaultInjector.
  runtime::ServeFaultInjector* fault = nullptr;
};

/// Point-in-time rollup of the engine's registry counters (see
/// ServeEngine::registry() for the full instrument set, including latency
/// histograms). Kept as a plain struct so existing callers are unaffected
/// by the registry-backed internals.
struct EngineMetrics {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;
  int64_t timed_out = 0;
  int64_t shed = 0;       ///< refused by quota/overload policy or retry exhaustion
  int64_t expired = 0;    ///< deadline passed while still queued
  int64_t failed = 0;     ///< internal faults (worker death, poison, watchdog)
  int64_t degraded = 0;   ///< requests downgraded by the degradation ladder
  int64_t admission_retries = 0;  ///< transient KV admission failures retried
  int64_t watchdog_fired = 0;
  int64_t tokens_generated = 0;
  int64_t ticks = 0;             ///< scheduler iterations (token boundaries)
  double occupancy_sum = 0.0;    ///< sum of batch sizes over ticks
  int64_t kv_high_water_bytes = 0;
  int64_t kv_budget_bytes = 0;

  double mean_batch_occupancy() const {
    return ticks > 0 ? occupancy_sum / static_cast<double>(ticks) : 0.0;
  }
};

/// Internal fixed worker pool (exposed for the engine's decode sharding).
class WorkerPool {
 public:
  explicit WorkerPool(int64_t n_threads);
  ~WorkerPool();

  /// Runs fn(0..n_tasks-1) across the pool; returns when all are done.
  void run(int64_t n_tasks, const std::function<void(int64_t)>& fn);

 private:
  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable cv_work_, cv_done_;
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t total_ = 0, next_ = 0, done_ = 0;
  uint64_t epoch_ = 0;
  bool quit_ = false;

  void worker();
};

class ServeEngine {
 public:
  /// Puts the model into eval mode; the model must not be trained while
  /// the engine is live.
  ServeEngine(nn::CausalLm& model, EngineConfig cfg);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Thread-safe. Throws std::invalid_argument on malformed requests; a
  /// well-formed request that cannot be served right now (queue full, or
  /// larger than the whole KV budget) resolves immediately as kRejected.
  std::future<Completion> submit(Request req) { return submit(std::move(req), StreamSink{}); }

  /// As above, with per-request streaming callbacks: sink.on_token fires
  /// as each token is sampled and sink.on_done once at resolution — the
  /// path the HTTP front door streams chunked responses through. See the
  /// StreamSink contract in request.hpp (callbacks run on engine threads
  /// under the engine lock; they must not call back into the engine).
  std::future<Completion> submit(Request req, StreamSink sink);

  /// Cancels a queued or active request by id. Returns false if unknown.
  bool cancel(int64_t id);

  /// Exit-head weights for kVoted requests (e.g. from a calibrated
  /// core::ExitVoter). Defaults to uniform weights, zero losses.
  void set_exit_weights(std::vector<float> weights, std::vector<float> calib_losses);

  /// Pauses the scheduler loop at the next tick boundary: requests keep
  /// queueing but nothing is admitted or decoded until resume(). Lets
  /// tests (and drain-style maintenance) stage a full batch deterministically
  /// instead of racing the scheduler. Returns once the loop is parked.
  void pause();
  void resume();

  /// Stops accepting, drains queued + active requests, joins all threads.
  /// Called by the destructor; safe to call twice.
  void shutdown();

  EngineMetrics metrics() const;

  /// Per-engine instrument registry: serve/* counters and latency
  /// histograms (queue_wait_ms, tick_ms, batch_size) plus the KV pool's
  /// kv/* counters and gauges. Snapshot or serialise it for dashboards;
  /// metrics() above is a rollup of the same instruments.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

 private:
  nn::CausalLm& model_;
  EngineConfig cfg_;
  /// Effective weights snapshotted once at construction — the model is
  /// frozen for the engine's lifetime, so every decode tick reuses them
  /// instead of re-materialising per projection (read-only across workers).
  nn::DecodeWeightCache weight_cache_;

  /// Declared before sched_: the scheduler's KV pool registers its
  /// instruments here during construction.
  obs::Registry registry_;
  obs::Counter& c_submitted_;
  obs::Counter& c_completed_;
  obs::Counter& c_rejected_;
  obs::Counter& c_cancelled_;
  obs::Counter& c_timed_out_;
  obs::Counter& c_shed_;
  obs::Counter& c_expired_;
  obs::Counter& c_failed_;
  obs::Counter& c_degraded_;
  obs::Counter& c_retries_;   ///< serve/admission_retries
  obs::Counter& c_watchdog_;  ///< serve/watchdog_fired
  obs::Counter& c_tokens_;
  obs::Counter& c_spec_accepted_;  ///< spec/accepted_tokens (drafts confirmed)
  obs::Counter& c_spec_rejected_;  ///< spec/rejected_tokens (drafts discarded)
  obs::Histogram& h_batch_;       ///< count = ticks, sum = occupancy_sum
  obs::Histogram& h_queue_wait_;  ///< submit -> admit, ms
  obs::Histogram& h_tick_ms_;     ///< admit + decode + retire, ms
  /// Per-priority-class queue-wait histograms (serve/queue_wait_ms_p0..p2)
  /// so dashboards can see whether shedding actually protects high-priority
  /// latency. Indexed by Request::priority.
  obs::Histogram* h_wait_class_[3] = {nullptr, nullptr, nullptr};
  obs::Histogram& h_spec_accepted_;  ///< spec/accepted_per_round (0..k-1 drafts)
  obs::Histogram& h_spec_rate_;      ///< spec/acceptance_rate per round, in [0,1]
  /// Stable storage for per-draft-depth span names ("spec/round_d<depth>"):
  /// obs::ScopedSpan keeps the char* it is given, so names must outlive the
  /// tracer flush. Built once at construction; map nodes never move.
  std::map<int64_t, std::string> spec_span_names_;

  AdmissionController admit_ctl_;
  DegradeLadder ladder_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Scheduler sched_;
  std::vector<float> exit_weights_, exit_losses_;
  bool accepting_ = true;
  bool stop_ = false;
  bool paused_ = false;   ///< pause() request flag
  bool parked_ = false;   ///< loop acknowledged the pause
  bool failed_ = false;   ///< watchdog declared the engine wedged
  bool joined_ = false;

  /// Incremented at every scheduler-loop iteration; the watchdog thread
  /// declares a stall when it stops advancing while work is pending.
  std::atomic<uint64_t> heartbeat_{0};

  std::unique_ptr<WorkerPool> workers_;
  std::thread sched_thread_;
  std::thread watchdog_thread_;

  void loop();
  void watchdog();
  Pressure pressure_locked() const;
  /// Resolves every queued and active promise kFailed (watchdog path);
  /// caller holds mu_. State stays in place for the wedged loop to reclaim.
  void fail_all_pending_locked(const char* why);
  void run_decode(std::vector<nn::BatchedSeq>& seqs, std::vector<uint8_t>& chunk_failed,
                  std::vector<std::string>& chunk_errors);
  /// One prompt-done kSpeculative sequence's draft-and-verify round for this
  /// tick. Built under mu_, executed unlocked: workers touch only the job
  /// record and its (disjoint) cache, never SeqState — the watchdog may be
  /// resolving promises concurrently.
  struct SpecJob {
    size_t index = 0;  ///< position in sched_.active() at build time
    nn::KvSequenceView* cache = nullptr;
    int64_t position = 0;
    int64_t token = 0;
    int64_t depth = 0;
    int64_t k = 1;
    const char* span_name = nullptr;  ///< from spec_span_names_
    nn::SpeculativeResult result;
    bool failed = false;
    std::string error;
  };
  /// Runs every job's speculative_decode_step, sharded across workers_ with
  /// the same fault-injection surface as run_decode (stall, worker death,
  /// poisoned logits). Failures land in the job record.
  void run_speculative(std::vector<SpecJob>& jobs);
  int64_t resolved_depth(const Request& req) const;
  void finish_seq(size_t index, RequestStatus status);
  static void resolve(SeqState& s, RequestStatus status);
};

}  // namespace edgellm::serve
