#include "serve/scheduler.hpp"

#include <algorithm>

#include "tensor/tensor.hpp"

namespace edgellm::serve {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

KvPoolConfig pool_config(const SchedulerConfig& cfg, KvPoolConfig pool_cfg) {
  pool_cfg.n_layers = cfg.n_layers;
  pool_cfg.max_seqs = cfg.max_batch;
  pool_cfg.max_seq = cfg.max_seq;
  return pool_cfg;
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig cfg, KvPoolConfig pool_cfg)
    : cfg_(cfg), pool_(pool_config(cfg, pool_cfg)) {
  check_arg(cfg_.max_batch > 0, "Scheduler: max_batch must be positive");
  check_arg(cfg_.queue_capacity > 0, "Scheduler: queue_capacity must be positive");
  check_arg(cfg_.max_seq > 0 && cfg_.n_layers > 0, "Scheduler: model dims must be positive");
  check_arg(cfg_.max_admission_retries >= 0,
            "Scheduler: max_admission_retries must be >= 0 (0 = unlimited)");
  check_arg(cfg_.retry_backoff_ms >= 0.0, "Scheduler: retry_backoff_ms must be >= 0");
  check_arg(cfg_.degrade_budget_retries >= 0,
            "Scheduler: degrade_budget_retries must be >= 0 (0 = off)");
}

void Scheduler::release_kv(SeqState& s, bool reuse) {
  if (s.kv == nullptr) return;
  // The cached rows hold, in order, the tokens the sequence fed (or reused):
  // the prompt followed by generated tokens, `position` of them — the final
  // sampled token is never cached.
  std::vector<int64_t> toks;
  if (reuse) {
    toks.reserve(static_cast<size_t>(s.position));
    const size_t np = s.req.prompt.size();
    for (int64_t i = 0; i < s.position; ++i) {
      const size_t ui = static_cast<size_t>(i);
      toks.push_back(ui < np ? s.req.prompt[ui] : s.out[ui - np]);
    }
  }
  pool_.release(s.kv, toks, reuse);
  s.kv = nullptr;
}

bool Scheduler::enqueue(std::unique_ptr<SeqState>& s) {
  if (static_cast<int64_t>(queue_.size()) >= cfg_.queue_capacity) return false;
  queue_.push_back(std::move(s));
  return true;
}

bool Scheduler::apply_degrade(SeqState& s, int level, const DegradeLadder& ladder) {
  const int eff = s.force_degrade ? 2 : level;
  if (eff <= 0) return false;
  const int64_t target = ladder.depth(eff);
  // No early exit registered below the final layer: nothing to trade.
  if (target <= 0) return false;
  // Never upgrade: a fixed-early request already at or below the rung's
  // depth keeps what it asked for.
  if (target >= s.exit_layer_used) return false;
  s.policy = ExitPolicy::kFixedEarly;
  s.exit_layer = target;
  s.exit_layer_used = target;
  const bool first = !s.degraded;
  s.degraded = true;
  return first;
}

Scheduler::AdmitResult Scheduler::admit(int degrade_level, const DegradeLadder& ladder,
                                        std::chrono::steady_clock::time_point now) {
  AdmitResult r;
  // Retire deadline-expired requests anywhere in the queue first: they can
  // never produce a useful completion, so they must not consume a batch
  // slot or wedge staging behind them.
  for (auto it = queue_.begin(); it != queue_.end();) {
    SeqState& s = **it;
    if (s.req.deadline_ms > 0.0 && elapsed_ms(s.submit_t, now) > s.req.deadline_ms) {
      r.expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  while (!queue_.empty() && static_cast<int64_t>(active_.size()) < cfg_.max_batch) {
    SeqState& head = *queue_.front();
    // Backoff gate: the head owes the pool a cool-down after a transient
    // rejection. Nothing behind it jumps the queue (FIFO contract).
    if (head.retry_after > now) break;
    if (apply_degrade(head, degrade_level, ladder)) ++r.degraded;
    // Worst-case cached positions: the whole prompt plus every token the
    // request may generate, clipped to the context window. Computed from
    // the *effective* exit depth, so degrading shrinks the reservation.
    const int64_t projected =
        std::min<int64_t>(static_cast<int64_t>(head.req.prompt.size()) + head.req.max_new_tokens,
                          cfg_.max_seq);
    KvAdmitReason reason = KvAdmitReason::kOk;
    bool ok = false;
    const bool injected = cfg_.fault != nullptr && cfg_.fault->reject_kv_acquire();
    if (!injected) {
      // Admission reserves only the blocks this request adds after matching
      // its prompt against the prefix cache; a hit skips the matched prompt
      // positions outright (they are already cached).
      PagedKvPool::AcquireResult ar =
          pool_.acquire(head.req.prompt, projected, head.exit_layer_used);
      reason = ar.reason;
      if (ar.seq != nullptr) {
        head.kv = ar.seq;
        head.position = ar.prefix_tokens;
        head.prompt_fed = static_cast<size_t>(ar.prefix_tokens);
        ok = true;
      }
    }
    if (!ok) {
      ++head.admission_attempts;
      ++r.retries;
      const char* why = injected ? "fault: injected kv admission failure" : to_string(reason);
      // The byte budget keeps refusing the head at its asked depth: force
      // it to the ladder floor and retry this scan with the smaller
      // reservation. This realizes the floor-depth fit check the engine
      // admitted it under — without it, a request that only fits degraded
      // would retry at full depth forever and wedge the queue. Checked
      // before shedding so a degradable head gets its cheaper attempt
      // first; if even the floor keeps bouncing, the retry budget still
      // applies.
      if (!injected && reason == KvAdmitReason::kByteBudget && !head.force_degrade &&
          cfg_.degrade_budget_retries > 0 &&
          head.admission_attempts >= cfg_.degrade_budget_retries) {
        head.force_degrade = true;
        continue;
      }
      if (cfg_.max_admission_retries > 0 &&
          head.admission_attempts >= cfg_.max_admission_retries) {
        head.error = "kv admission failed after " +
                     std::to_string(head.admission_attempts) + " attempts: " + why;
        r.shed.push_back(std::move(queue_.front()));
        queue_.pop_front();
        continue;  // the next request may be smaller; give it the head spot
      }
      if (cfg_.retry_backoff_ms > 0.0) {
        const int64_t shift = std::min<int64_t>(head.admission_attempts - 1, 6);
        const double wait_ms = cfg_.retry_backoff_ms * static_cast<double>(int64_t{1} << shift);
        head.retry_after =
            now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(wait_ms));
      }
      break;  // budget exhausted; keep FIFO order and retry later
    }
    head.admit_t = now;
    head.admission_attempts = 0;
    ++r.admitted;
    active_.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return r;
}

std::unique_ptr<SeqState> Scheduler::evict_lower_priority(int64_t than_priority) {
  auto victim = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->req.priority <= than_priority) continue;
    // Strictly-lower importance only. Among candidates take the largest
    // priority value; >= prefers the most recently enqueued on ties (the
    // request that has waited least loses the least progress).
    if (victim == queue_.end() || (*it)->req.priority >= (*victim)->req.priority) {
      victim = it;
    }
  }
  if (victim == queue_.end()) return nullptr;
  std::unique_ptr<SeqState> s = std::move(*victim);
  queue_.erase(victim);
  return s;
}

std::unique_ptr<SeqState> Scheduler::cancel(int64_t id, bool* found) {
  *found = false;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->req.id == id) {
      std::unique_ptr<SeqState> s = std::move(*it);
      queue_.erase(it);
      *found = true;
      return s;
    }
  }
  for (auto& s : active_) {
    if (s->req.id == id && !s->cancelled) {
      s->cancelled = true;
      *found = true;
      return nullptr;
    }
  }
  return nullptr;
}

std::unique_ptr<SeqState> Scheduler::finish(size_t active_index, bool reuse) {
  check_arg(active_index < active_.size(), "Scheduler::finish: index out of range");
  std::unique_ptr<SeqState> s = std::move(active_[active_index]);
  // Clean terminals (completions, cancels, timeouts: their cached rows are
  // valid at the barrier) donate their prefix to the cache for future
  // requests; failed decodes must pass reuse=false — their appends may be
  // torn and the rows are untrusted.
  release_kv(*s, reuse);
  active_.erase(active_.begin() + static_cast<int64_t>(active_index));
  return s;
}

void Scheduler::for_each_pending(const std::function<void(SeqState&)>& fn) {
  for (auto& s : queue_) fn(*s);
  for (auto& s : active_) fn(*s);
}

void Scheduler::clear_failed() {
  // A wedged decode may have left torn rows: never donate them.
  for (auto& s : active_) release_kv(*s, /*reuse=*/false);
  active_.clear();
  queue_.clear();
}

std::chrono::steady_clock::time_point Scheduler::next_retry_time() const {
  std::chrono::steady_clock::time_point earliest{};
  for (const auto& s : queue_) {
    if (s->retry_after == std::chrono::steady_clock::time_point{}) continue;
    if (earliest == std::chrono::steady_clock::time_point{} || s->retry_after < earliest) {
      earliest = s->retry_after;
    }
  }
  return earliest;
}

}  // namespace edgellm::serve
