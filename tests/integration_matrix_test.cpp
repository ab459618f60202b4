// Integration matrix: the full adaptation loop must work (and improve the
// model) under every combination of the tuner's feature flags.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/pipeline.hpp"
#include "data/eval.hpp"
#include "test_util.hpp"

namespace edgellm {
namespace {

using edgellm::testing::tiny_config;

struct MatrixCase {
  int64_t window;        // <=0 = full depth
  bool checkpoint;
  bool quantized_optim;
  // Fills the bytes that would otherwise be padding. gtest_discover_tests
  // names each case after the param's raw bytes, so uninitialised padding
  // gave the cases different names from one discovery to the next; these
  // fixed values keep the names the suite has always reported.
  uint8_t name_bytes[2];
  core::DepthSampling sampling;
};
static_assert(std::has_unique_object_representations_v<MatrixCase>,
              "MatrixCase must have no padding: its bytes name the test cases");

class TunerMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(TunerMatrix, AdaptationImprovesLoss) {
  const MatrixCase& mc = GetParam();

  data::MarkovChain::Config dc;
  dc.vocab = 24;
  dc.order = 1;
  dc.branch = 3;
  dc.seed = 5;
  const data::MarkovChain domain(dc);

  Rng rng(3);
  nn::CausalLm model(tiny_config(), rng);

  core::TunerConfig tcfg;
  tcfg.sampling = mc.sampling;
  tcfg.backprop_window = mc.window;
  tcfg.checkpoint = mc.checkpoint;
  tcfg.quantized_optimizer = mc.quantized_optim;
  tcfg.update_embeddings = mc.window <= 0;
  tcfg.optim.lr = 1e-2f;

  core::AdaptiveLayerTuner tuner(model, tcfg, Rng(7));
  Rng drng(11);
  Rng eval_rng(12);
  std::vector<data::LmBatch> eval = {data::sample_lm_batch(domain, 4, 12, eval_rng)};

  const float before = data::lm_loss(model, eval, model.config().n_layers);
  for (int i = 0; i < 120; ++i) {
    const core::StepStats st = tuner.step(data::sample_lm_batch(domain, 4, 12, drng));
    ASSERT_TRUE(std::isfinite(st.loss));
    ASSERT_GT(st.activation_bytes, 0);
  }
  const float after = data::lm_loss(model, eval, model.config().n_layers);
  EXPECT_LT(after, before)
      << "window=" << mc.window << " ckpt=" << mc.checkpoint << " qopt=" << mc.quantized_optim;
}

INSTANTIATE_TEST_SUITE_P(
    AllFlagCombos, TunerMatrix,
    ::testing::Values(
        MatrixCase{0, false, false, {0x00, 0}, core::DepthSampling::kFinalOnly},
        MatrixCase{0, true, false, {0x00, 0}, core::DepthSampling::kFinalOnly},
        MatrixCase{0, false, true, {0x04, 0}, core::DepthSampling::kFinalOnly},
        MatrixCase{0, true, true, {0x70, 0}, core::DepthSampling::kFinalOnly},
        MatrixCase{2, false, false, {0x00, 0}, core::DepthSampling::kUniform},
        MatrixCase{2, false, true, {0x00, 0}, core::DepthSampling::kUniform},
        MatrixCase{2, false, false, {0x04, 0}, core::DepthSampling::kCyclic},
        MatrixCase{2, false, false, {0x55, 0}, core::DepthSampling::kLossWeighted},
        MatrixCase{1, false, true, {0x00, 0}, core::DepthSampling::kCyclic}));

// Pipeline-level matrix: compression on/off x voting modes, with quality
// and artifact checks.
class PipelineMatrix : public ::testing::TestWithParam<std::tuple<bool, core::VotingMode>> {};

TEST_P(PipelineMatrix, RunsEndToEnd) {
  const auto [compress, mode] = GetParam();

  data::MarkovChain::Config dc;
  dc.vocab = 24;
  dc.order = 1;
  dc.branch = 3;
  dc.seed = 21;
  const data::MarkovChain base(dc);
  const data::MarkovChain target = base.shifted(0.5f, 77);

  Rng rng(3);
  auto model = core::pretrain_base_model(tiny_config(), base, 150, 4, 12, rng);

  core::PipelineConfig pcfg;
  pcfg.adaptation_iters = 60;
  pcfg.batch = 4;
  pcfg.seq = 12;
  pcfg.apply_compression = compress;
  pcfg.sensitivity.bit_candidates = {4, 8};
  pcfg.sensitivity.prune_candidates = {0.0f, 0.3f};
  pcfg.luc.target_effective_bits = 6.0;
  pcfg.tuner.optim.lr = 1e-2f;
  pcfg.voter.mode = mode;

  const core::PipelineResult res = core::run_pipeline(*model, target, pcfg);
  EXPECT_EQ(res.loss_curve.size(), 60u);
  EXPECT_TRUE(std::isfinite(res.voted_loss));
  EXPECT_GT(res.voted_perplexity, 1.0f);
  EXPECT_GE(res.mcq_accuracy, 0.0f);
  EXPECT_LE(res.mcq_accuracy, 1.0f);
  EXPECT_GT(res.model_storage_bytes, 0.0);
  if (compress) {
    EXPECT_LE(res.policy.avg_effective_bits(), 6.0 + 1e-9);
  } else {
    EXPECT_EQ(res.policy.layers[0].bits, 16);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompressAndVote, PipelineMatrix,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(core::VotingMode::kBestSingle,
                                         core::VotingMode::kCalibratedWeight,
                                         core::VotingMode::kEntropyAdaptive)));

}  // namespace
}  // namespace edgellm
