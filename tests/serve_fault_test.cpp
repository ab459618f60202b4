// Serving resilience under injected faults: worker stalls and deaths,
// poisoned decode output, KV admission failures, client disconnects,
// deadline storms, the scheduler-stall watchdog — and the seeded soak
// harness that drives >= 1000 faulted ticks asserting the engine's
// survival invariants (every future resolves, counters conserve, no
// leaked KV, no deadlock).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "runtime/fault.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace edgellm::serve {
namespace {

using edgellm::testing::greedy_request;
using edgellm::testing::reference_greedy;
using edgellm::testing::seq_tokens;
using edgellm::testing::tiny_config;

// --- ServeFaultInjector -----------------------------------------------------

TEST(ServeFaultInjector, DeterministicForFixedSeed) {
  runtime::ServeFaultPlan plan;
  plan.worker_stall_prob = 0.3;
  plan.kv_reject_prob = 0.5;
  plan.poison_logits_prob = 0.2;
  plan.seed = 1234;
  runtime::ServeFaultInjector a(plan);
  runtime::ServeFaultInjector b(plan);
  // Identical probe sequences must draw identical fault sequences: the
  // soak harness depends on seeded reproducibility.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.stall_worker_ms() > 0.0, b.stall_worker_ms() > 0.0) << i;
    EXPECT_EQ(a.reject_kv_acquire(), b.reject_kv_acquire()) << i;
    EXPECT_EQ(a.poison_logits(), b.poison_logits()) << i;
  }
  EXPECT_EQ(a.stalls(), b.stalls());
  EXPECT_EQ(a.kv_rejections(), b.kv_rejections());
  EXPECT_EQ(a.poisons(), b.poisons());
  EXPECT_GT(a.stalls() + a.kv_rejections() + a.poisons(), 0);
}

TEST(ServeFaultInjector, ZeroProbabilitiesNeverFire) {
  runtime::ServeFaultInjector quiet{runtime::ServeFaultPlan{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(quiet.stall_worker_ms(), 0.0);
    EXPECT_FALSE(quiet.kill_worker());
    EXPECT_FALSE(quiet.reject_kv_acquire());
    EXPECT_FALSE(quiet.poison_logits());
    EXPECT_FALSE(quiet.disconnect_client());
  }
  EXPECT_EQ(quiet.stalls() + quiet.deaths() + quiet.kv_rejections() + quiet.poisons() +
                quiet.disconnects(),
            0);
}

TEST(ServeFaultInjector, ValidatesPlan) {
  runtime::ServeFaultPlan bad;
  bad.worker_death_prob = 1.5;
  EXPECT_THROW(runtime::ServeFaultInjector{bad}, std::invalid_argument);
  runtime::ServeFaultPlan neg;
  neg.worker_stall_ms = -1.0;
  EXPECT_THROW(runtime::ServeFaultInjector{neg}, std::invalid_argument);
}

// --- engine fault paths -----------------------------------------------------

TEST(ServeEngineFault, WorkerDeathFailsRequestsCleanly) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(71);
  nn::CausalLm model(cfg, rng);
  runtime::ServeFaultPlan plan;
  plan.worker_death_prob = 1.0;  // every decode chunk dies
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg;
  ecfg.threads = 2;
  ecfg.fault = &fault;
  ServeEngine engine(model, ecfg);

  auto f1 = engine.submit(greedy_request(1, seq_tokens(4, cfg.vocab), 6));
  auto f2 = engine.submit(greedy_request(2, seq_tokens(3, cfg.vocab, 1), 6));
  const Completion c1 = f1.get();
  const Completion c2 = f2.get();
  EXPECT_EQ(c1.status, RequestStatus::kFailed);
  EXPECT_EQ(c2.status, RequestStatus::kFailed);
  EXPECT_NE(c1.error.find("injected worker death"), std::string::npos) << c1.error;

  // The engine survives the dead workers: slots are reclaimed and later
  // requests still get served once the faults stop.
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.failed, 2);
  EXPECT_GE(fault.deaths(), 1);
  engine.shutdown();
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
}

TEST(ServeEngineFault, PoisonedLogitsFailTheRequest) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(72);
  nn::CausalLm model(cfg, rng);
  runtime::ServeFaultPlan plan;
  plan.poison_logits_prob = 1.0;
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.fault = &fault;
  ServeEngine engine(model, ecfg);

  const Completion c = engine.submit(greedy_request(1, seq_tokens(1, cfg.vocab), 4)).get();
  EXPECT_EQ(c.status, RequestStatus::kFailed);
  EXPECT_EQ(c.error, "decode produced non-finite logits");
  EXPECT_TRUE(c.tokens.empty());  // the poisoned token is never surfaced
  EXPECT_EQ(engine.metrics().failed, 1);
  EXPECT_GE(fault.poisons(), 1);
}

TEST(ServeEngineFault, KvRejectionRetriesThenShedsWithReason) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(73);
  nn::CausalLm model(cfg, rng);
  runtime::ServeFaultPlan plan;
  plan.kv_reject_prob = 1.0;  // every admission attempt fails
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.fault = &fault;
  ecfg.max_admission_retries = 3;
  ServeEngine engine(model, ecfg);

  const Completion c = engine.submit(greedy_request(1, seq_tokens(2, cfg.vocab), 4)).get();
  EXPECT_EQ(c.status, RequestStatus::kShed);
  EXPECT_NE(c.error.find("kv admission failed after 3 attempts"), std::string::npos) << c.error;
  EXPECT_NE(c.error.find("injected kv admission failure"), std::string::npos) << c.error;
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.shed, 1);
  EXPECT_EQ(m.admission_retries, 3);
  EXPECT_EQ(m.completed, 0);
}

TEST(ServeEngineFault, FlakyKvAdmissionEventuallyServesIdenticalOutput) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(74);
  nn::CausalLm model(cfg, rng);
  const std::vector<int64_t> prompt = seq_tokens(4, cfg.vocab);
  const std::vector<int64_t> want = reference_greedy(model, prompt, 6);

  runtime::ServeFaultPlan plan;
  plan.kv_reject_prob = 0.7;  // transient: retries ride through it
  plan.seed = 99;
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.fault = &fault;
  ecfg.retry_backoff_ms = 0.1;
  ServeEngine engine(model, ecfg);  // max_admission_retries = 0: unlimited

  const Completion c = engine.submit(greedy_request(1, prompt, 6)).get();
  EXPECT_EQ(c.status, RequestStatus::kOk);
  EXPECT_EQ(c.tokens, want);  // faults delay but never corrupt the output
  EXPECT_GE(engine.metrics().admission_retries, 1);
  EXPECT_GE(fault.kv_rejections(), 1);
}

TEST(ServeEngineFault, ClientDisconnectCancelsMidDecode) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(75);
  nn::CausalLm model(cfg, rng);
  runtime::ServeFaultPlan plan;
  plan.disconnect_prob = 1.0;
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.fault = &fault;
  ServeEngine engine(model, ecfg);

  const Completion c = engine.submit(greedy_request(1, seq_tokens(3, cfg.vocab), 8)).get();
  EXPECT_EQ(c.status, RequestStatus::kCancelled);
  EXPECT_EQ(c.error, "fault: client disconnected");
  EXPECT_EQ(engine.metrics().cancelled, 1);
  EXPECT_GE(fault.disconnects(), 1);
}

TEST(ServeEngineFault, DeadlineStormExpiresEveryQueuedRequest) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(76);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.max_batch = 2;
  ServeEngine engine(model, ecfg);

  engine.pause();  // everything queues; deadlines tick away
  std::vector<std::future<Completion>> futs;
  for (int64_t i = 0; i < 8; ++i) {
    Request r = greedy_request(i, seq_tokens(3, cfg.vocab, i), 4);
    r.deadline_ms = 5.0;
    futs.push_back(engine.submit(r));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  engine.resume();
  for (auto& f : futs) {
    const Completion c = f.get();
    EXPECT_EQ(c.status, RequestStatus::kExpired);
    EXPECT_TRUE(c.tokens.empty());
  }
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.expired, 8);
  EXPECT_EQ(m.submitted, 8);
  // Expired-in-queue requests never touch the KV pool.
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(), 0);
}

TEST(ServeEngineFault, WatchdogFailsPendingRequestsOnStalledScheduler) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(77);
  nn::CausalLm model(cfg, rng);
  runtime::ServeFaultPlan plan;
  plan.worker_stall_prob = 1.0;
  plan.worker_stall_ms = 400.0;  // wedge every tick well past the watchdog
  runtime::ServeFaultInjector fault(plan);
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.fault = &fault;
  ecfg.watchdog_stall_ms = 50;
  ServeEngine engine(model, ecfg);

  const auto t0 = std::chrono::steady_clock::now();
  auto fut = engine.submit(greedy_request(1, seq_tokens(4, cfg.vocab), 8));
  // The future must resolve from the *watchdog*, long before the 400ms
  // stalled decode returns: clients get a clean failure, not a hang.
  ASSERT_EQ(fut.wait_for(std::chrono::milliseconds(300)), std::future_status::ready);
  const Completion c = fut.get();
  EXPECT_EQ(c.status, RequestStatus::kFailed);
  EXPECT_EQ(c.error, "watchdog: scheduler stalled");
  const double resolved_after_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(resolved_after_ms, 390.0);
  EXPECT_EQ(engine.metrics().watchdog_fired, 1);

  // A wedged engine refuses new work instead of queueing futures that can
  // never decode.
  EXPECT_EQ(engine.submit(greedy_request(2, seq_tokens(2, cfg.vocab), 2)).get().status,
            RequestStatus::kRejected);
  // Shutdown joins cleanly once the stalled decode drains, and the slots
  // the wedged batch held come back.
  engine.shutdown();
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
  EXPECT_EQ(static_cast<int64_t>(engine.registry().gauge("kv/committed_bytes").value()), 0);
}

TEST(ServeEngineFault, WatchdogStaysQuietOnHealthyEngine) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(78);
  nn::CausalLm model(cfg, rng);
  EngineConfig ecfg;
  ecfg.threads = 2;
  ecfg.watchdog_stall_ms = 200;
  ServeEngine engine(model, ecfg);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.submit(greedy_request(i, seq_tokens(3, cfg.vocab, i), 4)).get().status,
              RequestStatus::kOk);
  }
  // Idle gaps between requests must not look like stalls.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(engine.submit(greedy_request(9, seq_tokens(3, cfg.vocab), 4)).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(engine.metrics().watchdog_fired, 0);
  EXPECT_EQ(engine.metrics().failed, 0);
}

// --- soak -------------------------------------------------------------------

// The tentpole's survival harness: >= 1000 decode ticks under a seeded mix
// of every injected fault plus quota/overload pressure, asserting the
// engine's global invariants at the end. Runs in seconds on the tiny model;
// CI runs it under ASan and TSan (label serve_fault). Block allocation,
// prefix donation, COW and eviction all run under the fault pressure.
TEST(ServeFaultSoak, ThousandFaultedTicksHoldInvariants) {
  const nn::ModelConfig cfg = tiny_config();
  Rng rng(79);
  nn::CausalLm model(cfg, rng);
  const int64_t per_pos = nn::KvCache::bytes_per_position(cfg.n_layers, 16, false);

  runtime::ServeFaultPlan plan;
  plan.worker_stall_prob = 0.02;
  plan.worker_stall_ms = 0.2;
  plan.worker_death_prob = 0.01;
  plan.kv_reject_prob = 0.10;
  plan.poison_logits_prob = 0.02;
  plan.disconnect_prob = 0.02;
  plan.seed = 0x50AC;
  runtime::ServeFaultInjector fault(plan);

  EngineConfig ecfg;
  ecfg.threads = 2;
  ecfg.max_batch = 4;
  ecfg.queue_capacity = 16;
  ecfg.kv_byte_budget = 6 * 16 * per_pos;  // real budget pressure
  ecfg.fault = &fault;
  ecfg.max_admission_retries = 4;
  ecfg.retry_backoff_ms = 0.05;
  ecfg.watchdog_stall_ms = 5000;  // enabled, but must never fire here
  ecfg.admission.shed_policy = ShedPolicy::kDegradeEarlyExit;
  ecfg.admission.degrade_queue_ratio = 0.5;
  ecfg.admission.shed_queue_ratio = 0.9;
  ecfg.admission.degrade_kv_ratio = 0.6;
  ecfg.admission.tenant_rate = 400.0;  // quotas on, occasionally binding
  ecfg.admission.tenant_burst = 8.0;
  ecfg.kv_block_tokens = 4;
  ServeEngine engine(model, ecfg);

  Rng driver(4242);  // seeded request mix: reproducible soak
  const char* tenants[3] = {"alpha", "beta", ""};
  std::vector<std::future<Completion>> futs;
  int64_t next_id = 1;
  while (engine.metrics().ticks < 1000) {
    for (int wave = 0; wave < 6; ++wave) {
      Request r;
      r.id = next_id++;
      r.prompt = seq_tokens(driver.uniform_int(1, 5), cfg.vocab, next_id);
      r.max_new_tokens = driver.uniform_int(1, 6);
      r.temperature = 0.0f;
      r.seed = static_cast<uint64_t>(next_id);
      r.tenant = tenants[driver.uniform_int(0, 2)];
      r.priority = driver.uniform_int(kPriorityHigh, kPriorityLow);
      switch (driver.uniform_int(0, 3)) {
        case 0: r.exit_policy = ExitPolicy::kFinal; break;
        case 1: r.exit_policy = ExitPolicy::kVoted; break;
        case 2:
          r.exit_policy = ExitPolicy::kFixedEarly;
          r.exit_layer = driver.uniform_int(1, 2);
          break;
        default:
          r.exit_policy = ExitPolicy::kSpeculative;
          r.draft_depth = driver.uniform_int(1, 2);
          r.draft_k = driver.uniform_int(1, 8);
          break;
      }
      if (driver.bernoulli(0.15)) r.deadline_ms = 0.5;   // doomed to expire
      else if (driver.bernoulli(0.2)) r.deadline_ms = 50.0;
      futs.push_back(engine.submit(std::move(r)));
      if (driver.bernoulli(0.1)) engine.cancel(next_id - 1);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  engine.shutdown();  // drains every queued + active request

  // Invariant 1: every future resolves — no request is ever dropped.
  int64_t resolved = 0;
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    (void)f.get();
    ++resolved;
  }
  // Invariant 2: counters conserve — every submit is accounted exactly once.
  const EngineMetrics m = engine.metrics();
  EXPECT_EQ(m.submitted, static_cast<int64_t>(futs.size()));
  EXPECT_EQ(m.submitted, m.completed + m.rejected + m.cancelled + m.timed_out + m.shed +
                             m.expired + m.failed);
  EXPECT_GE(m.ticks, 1000);
  EXPECT_EQ(m.watchdog_fired, 0);
  // Invariant 3: no leaked KV sequences or bytes after drain.
  EXPECT_EQ(engine.registry().counter("kv/acquired").value(),
            engine.registry().counter("kv/released").value());
  EXPECT_EQ(static_cast<int64_t>(engine.registry().gauge("kv/committed_bytes").value()), 0);
  // Invariant 4: budget invariance. The high-water mark saw real pressure
  // (release() settles dying sequences into it even between tick barriers,
  // so short-lived requests cannot hide from it) yet never exceeded the
  // configured byte budget.
  const int64_t high_water =
      static_cast<int64_t>(engine.registry().gauge("kv/high_water_bytes").value());
  EXPECT_GT(high_water, 0);
  EXPECT_LE(high_water, ecfg.kv_byte_budget);
  // After drain nothing is live, and only unreferenced cached prefixes
  // may hold blocks.
  EXPECT_EQ(engine.registry().gauge("kv/bytes_in_use").value(), 0);
  EXPECT_EQ(engine.registry().gauge("kv/blocks_in_use").value(),
            engine.registry().gauge("kv/blocks_cached").value());
  // The soak actually exercised the machinery: faults fired, pressure shed
  // and degraded work, and plenty of requests still completed.
  EXPECT_GT(fault.stalls() + fault.deaths() + fault.kv_rejections() + fault.poisons() +
                fault.disconnects(),
            0);
  EXPECT_GT(m.completed, 0);
  EXPECT_GT(m.expired + m.shed + m.failed + m.cancelled, 0);
  EXPECT_EQ(resolved, m.submitted);
}

}  // namespace
}  // namespace edgellm::serve
