// Fault-tolerance subsystem: atomic CRC-checked checkpoints with rotation,
// bit-exact crash/resume, numeric-fault guards with rollback, and the
// seeded fault-injection harness that exercises all of it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/snapshot.hpp"
#include "nn/serialize.hpp"
#include "runtime/checkpointer.hpp"
#include "runtime/fault.hpp"
#include "test_util.hpp"

namespace edgellm {
namespace {

namespace fs = std::filesystem;
using edgellm::testing::tiny_config;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/edgellm_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- exact payload helpers ---------------------------------------------------

TEST(FaultTolerance, PackHelpersRoundTripExactly) {
  const std::vector<uint64_t> values = {0ull, 1ull, 65535ull, 65536ull, 0x123456789ABCDEF0ull,
                                        std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    EXPECT_EQ(nn::unpack_u64(nn::pack_u64(v)), v);
  }
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  EXPECT_EQ(nn::unpack_bytes(nn::pack_bytes(bytes)), bytes);
  EXPECT_THROW(nn::unpack_u64(Tensor({2})), std::runtime_error);
  EXPECT_THROW(nn::unpack_bytes(Tensor({1}, 300.0f)), std::runtime_error);
}

TEST(FaultTolerance, RngStateRoundTripsBitExactly) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) (void)a.uniform();
  const std::string state = rng_state_string(a);
  Rng b(1);  // different seed; state restore must fully override it
  set_rng_state_string(b, state);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  }
  EXPECT_THROW(set_rng_state_string(b, "not an engine state"), std::runtime_error);
}

// --- serialization hardening -------------------------------------------------

namespace {

/// Little-endian binary builder for crafting hostile checkpoint images.
struct Builder {
  std::string s;
  void u32(uint32_t v) { s.append(reinterpret_cast<const char*>(&v), sizeof(v)); }
  void u64(uint64_t v) { s.append(reinterpret_cast<const char*>(&v), sizeof(v)); }
  void raw(const void* p, size_t n) { s.append(static_cast<const char*>(p), n); }
  void magic_v1() {
    s.append("ELLM", 4);
    u32(1);  // v1 has no CRC footer, so crafted bodies are parsed directly
  }
};

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(FaultTolerance, LoaderStillReadsVersion1Files) {
  const std::string path = fresh_dir("v1") + "/v1.bin";
  Builder b;
  b.magic_v1();
  b.u64(1);                    // one entry
  b.u64(1);                    // name length
  b.raw("w", 1);               // name
  b.u64(1);                    // rank
  b.u64(3);                    // extent
  const float data[3] = {1.0f, 2.0f, 3.0f};
  b.raw(data, sizeof(data));
  write_file(path, b.s);

  const auto state = nn::load_state_dict_file(path);
  ASSERT_EQ(state.size(), 1u);
  EXPECT_TRUE(state.at("w").equals(Tensor({3}, {1.0f, 2.0f, 3.0f})));
}

TEST(FaultTolerance, LoaderRejectsAbsurdEntryCount) {
  const std::string path = fresh_dir("count") + "/bad.bin";
  Builder b;
  b.magic_v1();
  b.u64(1ull << 40);  // would loop ~10^12 times / allocate forever
  write_file(path, b.s);
  EXPECT_THROW(nn::load_state_dict_file(path), std::runtime_error);
}

TEST(FaultTolerance, LoaderRejectsAbsurdNameLength) {
  const std::string path = fresh_dir("name") + "/bad.bin";
  Builder b;
  b.magic_v1();
  b.u64(1);
  b.u64(1ull << 40);  // name "length" far past any real checkpoint
  write_file(path, b.s);
  EXPECT_THROW(nn::load_state_dict_file(path), std::runtime_error);
}

TEST(FaultTolerance, LoaderRejectsExtentOverflow) {
  const std::string path = fresh_dir("extent") + "/bad.bin";
  Builder b;
  b.magic_v1();
  b.u64(1);
  b.u64(1);
  b.raw("w", 1);
  b.u64(4);  // rank 4, each extent 2^31: product overflows int64
  for (int d = 0; d < 4; ++d) b.u64(1ull << 31);
  write_file(path, b.s);
  EXPECT_THROW(nn::load_state_dict_file(path), std::runtime_error);
}

TEST(FaultTolerance, LoaderRejectsTruncatedData) {
  const std::string dir = fresh_dir("trunc");
  const std::string good = dir + "/good.bin", trunc = dir + "/trunc.bin";
  std::map<std::string, Tensor> state;
  Rng rng(9);
  state.emplace("w", randn({16, 16}, rng));
  nn::save_state_dict(state, good);

  std::ifstream is(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  write_file(trunc, bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(nn::load_state_dict_file(trunc), std::runtime_error);
}

TEST(FaultTolerance, CrcDetectsSingleFlippedByte) {
  const std::string path = fresh_dir("crc") + "/ok.bin";
  std::map<std::string, Tensor> state;
  Rng rng(10);
  state.emplace("w", randn({8, 8}, rng));
  nn::save_state_dict(state, path);
  EXPECT_NO_THROW(nn::load_state_dict_file(path));

  runtime::FaultInjector inj({});
  inj.corrupt_file(path, static_cast<int64_t>(fs::file_size(path)) / 2);
  EXPECT_THROW(nn::load_state_dict_file(path), std::runtime_error);
  EXPECT_EQ(inj.corruptions(), 1);
}

TEST(FaultTolerance, SaveLeavesNoTempFileBehind) {
  const std::string dir = fresh_dir("tmpclean");
  const std::string path = dir + "/state.bin";
  std::map<std::string, Tensor> state;
  state.emplace("w", Tensor({4}, 1.5f));
  nn::save_state_dict(state, path);
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1);  // only the committed checkpoint, no .tmp residue
}

// --- checkpointer ------------------------------------------------------------

core::Snapshot make_snapshot(int64_t iter, float fill) {
  core::Snapshot snap;
  snap.iter = iter;
  snap.state.emplace("meta.iter", nn::pack_u64(static_cast<uint64_t>(iter)));
  snap.state.emplace("payload", Tensor({8}, fill));
  return snap;
}

TEST(FaultTolerance, CheckpointerRotatesKeepNAndLoadsNewest) {
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = fresh_dir("rotate");
  ccfg.keep = 3;
  runtime::Checkpointer ckpt(ccfg);

  for (int64_t i = 1; i <= 5; ++i) ckpt.save(make_snapshot(i * 10, static_cast<float>(i)));

  const auto slots = ckpt.slots();
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(runtime::Checkpointer::slot_iter(slots[0]), 30);
  EXPECT_EQ(runtime::Checkpointer::slot_iter(slots[2]), 50);

  const auto latest = ckpt.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 50);
  EXPECT_TRUE(latest->state.at("payload").equals(Tensor({8}, 5.0f)));
}

TEST(FaultTolerance, CheckpointerFailedSaveIsAtomic) {
  runtime::FaultPlan plan;
  plan.fail_save_index = 1;  // second save dies before commit
  runtime::FaultInjector inj(plan);

  runtime::CheckpointerConfig ccfg;
  ccfg.dir = fresh_dir("atomic");
  ccfg.pre_commit = inj.io_hook();
  runtime::Checkpointer ckpt(ccfg);

  ckpt.save(make_snapshot(10, 1.0f));
  EXPECT_THROW(ckpt.save(make_snapshot(20, 2.0f)), std::runtime_error);
  EXPECT_EQ(inj.io_failures(), 1);

  // The failed save left no slot, no staged .part file, and the previous
  // snapshot still loads.
  int files = 0;
  for (const auto& e : fs::directory_iterator(ccfg.dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1);
  const auto latest = ckpt.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 10);
}

// The durable-commit primitives behind save_state_dict and
// Checkpointer::save: files and directories fsync, a missing path throws
// (a save must fail loudly rather than report an unsynced commit), and a
// bare file name syncs the working directory.
TEST(FaultTolerance, FsyncPrimitivesSyncFilesAndDirectories) {
  const std::string dir = fresh_dir("fsync");
  const std::string file = dir + "/f.ellm";
  nn::save_state_dict({{"payload", Tensor({4}, 1.0f)}}, file);
  EXPECT_NO_THROW(nn::fsync_path(file));
  EXPECT_NO_THROW(nn::fsync_path(dir));
  EXPECT_NO_THROW(nn::fsync_parent_dir(file));
  EXPECT_NO_THROW(nn::fsync_parent_dir("bare-name.ellm"));
  EXPECT_THROW(nn::fsync_path(dir + "/missing.ellm"), std::runtime_error);
  EXPECT_THROW(nn::fsync_parent_dir(dir + "/no-such-dir/f.ellm"), std::runtime_error);
  EXPECT_FALSE(fs::exists(file + ".tmp"));  // the temp file was renamed away
}

TEST(FaultTolerance, CorruptedSlotFallsBackToPreviousRotation) {
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = fresh_dir("fallback");
  runtime::Checkpointer ckpt(ccfg);
  ckpt.save(make_snapshot(10, 1.0f));
  ckpt.save(make_snapshot(20, 2.0f));

  runtime::FaultInjector inj({});
  inj.corrupt_file(ckpt.slots().back().string());  // seeded-random byte flip

  const auto latest = ckpt.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iter, 10);
  EXPECT_TRUE(latest->state.at("payload").equals(Tensor({8}, 1.0f)));
  EXPECT_EQ(ckpt.corrupt_slots_skipped(), 1);
}

TEST(FaultTolerance, EmptyStoreLoadsNothing) {
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = fresh_dir("empty");
  runtime::Checkpointer ckpt(ccfg);
  EXPECT_FALSE(ckpt.load_latest().has_value());
}

// --- numeric-fault guard -----------------------------------------------------

data::MarkovChain test_domain() {
  data::MarkovChain::Config dc;
  dc.vocab = 24;
  dc.order = 1;
  dc.branch = 3;
  dc.seed = 5;
  return data::MarkovChain(dc);
}

TEST(FaultTolerance, NanGuardSkipsUpdateAndTripsRollback) {
  Rng rng(21);
  nn::CausalLm model(tiny_config(), rng);
  core::TunerConfig tcfg;
  tcfg.sampling = core::DepthSampling::kFinalOnly;
  tcfg.max_consecutive_bad = 2;
  tcfg.grad_hook = [](int64_t iter, Tensor& grad) {
    if (iter >= 1 && iter <= 2) grad[0] = std::numeric_limits<float>::quiet_NaN();
  };
  core::AdaptiveLayerTuner tuner(model, tcfg, Rng(22));
  const float lr0 = tuner.base_lr();

  const data::MarkovChain domain = test_domain();
  Rng drng(23);
  const auto batch = data::sample_lm_batch(domain, 2, 8, drng);

  // Clean step updates weights.
  auto before = model.state_dict();
  auto st = tuner.step(batch);
  EXPECT_FALSE(st.skipped);
  EXPECT_EQ(tuner.consecutive_bad_steps(), 0);

  // Poisoned steps leave every weight and the optimizer untouched.
  before = model.state_dict();
  const int64_t optim_bytes = tuner.optimizer().state_bytes();
  st = tuner.step(batch);
  EXPECT_TRUE(st.skipped);
  EXPECT_EQ(tuner.bad_steps(), 1);
  EXPECT_FALSE(tuner.needs_rollback());
  for (const auto& [name, t] : model.state_dict()) {
    EXPECT_TRUE(t.equals(before.at(name))) << name;
  }
  EXPECT_EQ(tuner.optimizer().state_bytes(), optim_bytes);

  st = tuner.step(batch);
  EXPECT_TRUE(st.skipped);
  EXPECT_EQ(tuner.consecutive_bad_steps(), 2);
  EXPECT_TRUE(tuner.needs_rollback());

  // Rollback acknowledgment: streak resets, base lr backs off.
  tuner.note_rollback();
  EXPECT_FALSE(tuner.needs_rollback());
  EXPECT_EQ(tuner.rollbacks(), 1);
  EXPECT_FLOAT_EQ(tuner.base_lr(), lr0 * tcfg.lr_backoff);

  // And a clean step afterwards trains again.
  st = tuner.step(batch);
  EXPECT_FALSE(st.skipped);
  EXPECT_EQ(tuner.consecutive_bad_steps(), 0);
}

// --- crash/resume bit-exactness ----------------------------------------------

core::PipelineConfig small_pipeline_config() {
  core::PipelineConfig cfg;
  cfg.adaptation_iters = 30;
  cfg.batch = 2;
  cfg.seq = 8;
  cfg.calib_batches = 2;
  cfg.eval_batches = 2;
  cfg.apply_compression = false;
  cfg.tuner.optim.lr = 5e-3f;
  return cfg;
}

nn::CausalLm fresh_model() {
  Rng rng(31);
  return nn::CausalLm(tiny_config(), rng);
}

void expect_bit_exact(const core::PipelineResult& a, const core::PipelineResult& b,
                      nn::CausalLm& ma, nn::CausalLm& mb) {
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_EQ(a.loss_curve[i], b.loss_curve[i]) << "loss curve diverges at iter " << i;
  }
  EXPECT_EQ(a.final_exit_loss, b.final_exit_loss);
  EXPECT_EQ(a.voted_loss, b.voted_loss);
  EXPECT_EQ(a.mcq_accuracy, b.mcq_accuracy);
  const auto sa = ma.state_dict();
  const auto sb = mb.state_dict();
  ASSERT_EQ(sa.size(), sb.size());
  for (const auto& [name, t] : sa) {
    EXPECT_TRUE(t.equals(sb.at(name))) << "weight mismatch: " << name;
  }
}

TEST(FaultTolerance, CrashResumeIsBitExact) {
  const data::MarkovChain domain = test_domain();

  // Reference: uninterrupted run.
  nn::CausalLm straight = fresh_model();
  const auto ref = core::run_pipeline(straight, domain, small_pipeline_config());

  // Same run, power-cut before iteration 17 (snapshots land at 10 and 20).
  const std::string dir = fresh_dir("resume");
  runtime::FaultPlan plan;
  plan.power_loss_at = 17;
  runtime::FaultInjector inj(plan);
  {
    nn::CausalLm victim = fresh_model();
    core::PipelineConfig cfg = small_pipeline_config();
    runtime::CheckpointerConfig ccfg;
    ccfg.dir = dir;
    runtime::Checkpointer ckpt(ccfg);
    cfg.snapshots = &ckpt;
    cfg.checkpoint_every = 10;
    cfg.before_step = inj.step_hook();
    EXPECT_THROW(core::run_pipeline(victim, domain, cfg), runtime::PowerLossError);
    EXPECT_EQ(inj.power_losses(), 1);
  }

  // "Reboot": fresh process state, resume from the surviving snapshot.
  nn::CausalLm resumed = fresh_model();
  core::PipelineConfig cfg = small_pipeline_config();
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = dir;
  runtime::Checkpointer ckpt(ccfg);
  cfg.snapshots = &ckpt;
  cfg.checkpoint_every = 10;
  cfg.resume = true;
  const auto res = core::run_pipeline(resumed, domain, cfg);

  EXPECT_EQ(res.resumed_from_iter, 10);
  expect_bit_exact(ref, res, straight, resumed);
}

TEST(FaultTolerance, CrashResumeIsBitExactWithQuantizedOptimizer) {
  const data::MarkovChain domain = test_domain();
  auto make_cfg = [] {
    core::PipelineConfig cfg = small_pipeline_config();
    cfg.adaptation_iters = 24;
    // Exercises the int8 moment + stochastic-rounding-stream round-trip.
    cfg.tuner.quantized_optimizer = true;
    return cfg;
  };

  nn::CausalLm straight = fresh_model();
  const auto ref = core::run_pipeline(straight, domain, make_cfg());

  const std::string dir = fresh_dir("resume_q");
  runtime::FaultPlan plan;
  plan.power_loss_at = 13;
  runtime::FaultInjector inj(plan);
  {
    nn::CausalLm victim = fresh_model();
    core::PipelineConfig cfg = make_cfg();
    runtime::CheckpointerConfig ccfg;
    ccfg.dir = dir;
    runtime::Checkpointer ckpt(ccfg);
    cfg.snapshots = &ckpt;
    cfg.checkpoint_every = 8;
    cfg.before_step = inj.step_hook();
    EXPECT_THROW(core::run_pipeline(victim, domain, cfg), runtime::PowerLossError);
  }

  nn::CausalLm resumed = fresh_model();
  core::PipelineConfig cfg = make_cfg();
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = dir;
  runtime::Checkpointer ckpt(ccfg);
  cfg.snapshots = &ckpt;
  cfg.checkpoint_every = 8;
  cfg.resume = true;
  const auto res = core::run_pipeline(resumed, domain, cfg);

  EXPECT_EQ(res.resumed_from_iter, 8);
  expect_bit_exact(ref, res, straight, resumed);
}

TEST(FaultTolerance, ResumeFallsBackPastCorruptedSlot) {
  const data::MarkovChain domain = test_domain();

  nn::CausalLm straight = fresh_model();
  const auto ref = core::run_pipeline(straight, domain, small_pipeline_config());

  const std::string dir = fresh_dir("resume_corrupt");
  runtime::FaultPlan plan;
  plan.power_loss_at = 25;  // snapshots at 10 and 20 exist when power dies
  runtime::FaultInjector inj(plan);
  {
    nn::CausalLm victim = fresh_model();
    core::PipelineConfig cfg = small_pipeline_config();
    runtime::CheckpointerConfig ccfg;
    ccfg.dir = dir;
    runtime::Checkpointer ckpt(ccfg);
    cfg.snapshots = &ckpt;
    cfg.checkpoint_every = 10;
    cfg.before_step = inj.step_hook();
    EXPECT_THROW(core::run_pipeline(victim, domain, cfg), runtime::PowerLossError);
  }

  // Bit rot hits the newest slot while the device is down.
  nn::CausalLm resumed = fresh_model();
  core::PipelineConfig cfg = small_pipeline_config();
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = dir;
  runtime::Checkpointer ckpt(ccfg);
  inj.corrupt_file(ckpt.slots().back().string());
  cfg.snapshots = &ckpt;
  cfg.checkpoint_every = 10;
  cfg.resume = true;
  const auto res = core::run_pipeline(resumed, domain, cfg);

  // Recovery re-ran from the older good slot — and still matches the
  // uninterrupted run exactly, because snapshots restore the full state.
  EXPECT_EQ(res.resumed_from_iter, 10);
  EXPECT_EQ(ckpt.corrupt_slots_skipped(), 1);
  expect_bit_exact(ref, res, straight, resumed);
}

TEST(FaultTolerance, PipelineRollsBackOnNanBurstAndCompletes) {
  const data::MarkovChain domain = test_domain();
  const std::string dir = fresh_dir("rollback");

  runtime::FaultPlan plan;
  plan.nan_grad_at = {12, 13, 14};  // one full bad streak (default K = 3)
  runtime::FaultInjector inj(plan);

  nn::CausalLm model = fresh_model();
  core::PipelineConfig cfg = small_pipeline_config();
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = dir;
  runtime::Checkpointer ckpt(ccfg);
  cfg.snapshots = &ckpt;
  cfg.checkpoint_every = 5;
  cfg.tuner.grad_hook = inj.grad_hook();
  const auto res = core::run_pipeline(model, domain, cfg);

  EXPECT_EQ(inj.nan_injections(), 3);
  EXPECT_EQ(res.skipped_steps, 3);
  EXPECT_EQ(res.rollbacks, 1);
  // The rollback rewound the curve; the finished run has a full, finite one.
  ASSERT_EQ(res.loss_curve.size(), static_cast<size_t>(cfg.adaptation_iters));
  for (float l : res.loss_curve) EXPECT_TRUE(std::isfinite(l));
  for (const auto& [name, t] : model.state_dict()) {
    for (int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(t[i])) << name;
    }
  }
}

TEST(FaultTolerance, ResumeWorksAcrossCompressionPath) {
  // Compression (sensitivity -> LUC -> masks/quant) runs before adaptation;
  // resume must re-derive it deterministically and then overwrite weights
  // from the snapshot.
  const data::MarkovChain domain = test_domain();
  auto make_cfg = [] {
    core::PipelineConfig cfg = small_pipeline_config();
    cfg.adaptation_iters = 16;
    cfg.apply_compression = true;
    return cfg;
  };

  nn::CausalLm straight = fresh_model();
  const auto ref = core::run_pipeline(straight, domain, make_cfg());

  const std::string dir = fresh_dir("resume_luc");
  runtime::FaultPlan plan;
  plan.power_loss_at = 11;
  runtime::FaultInjector inj(plan);
  {
    nn::CausalLm victim = fresh_model();
    core::PipelineConfig cfg = make_cfg();
    runtime::CheckpointerConfig ccfg;
    ccfg.dir = dir;
    runtime::Checkpointer ckpt(ccfg);
    cfg.snapshots = &ckpt;
    cfg.checkpoint_every = 8;
    cfg.before_step = inj.step_hook();
    EXPECT_THROW(core::run_pipeline(victim, domain, cfg), runtime::PowerLossError);
  }

  nn::CausalLm resumed = fresh_model();
  core::PipelineConfig cfg = make_cfg();
  runtime::CheckpointerConfig ccfg;
  ccfg.dir = dir;
  runtime::Checkpointer ckpt(ccfg);
  cfg.snapshots = &ckpt;
  cfg.checkpoint_every = 8;
  cfg.resume = true;
  const auto res = core::run_pipeline(resumed, domain, cfg);

  EXPECT_EQ(res.resumed_from_iter, 8);
  expect_bit_exact(ref, res, straight, resumed);
}

}  // namespace
}  // namespace edgellm
