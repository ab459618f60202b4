// The benchmark's workloads, their fixtures and the reference decoder the
// serving workloads' outputs are checked against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/corpus.hpp"
#include "harness.hpp"
#include "nn/model.hpp"

namespace pb {

/// The pretraining domain (shift 0) and the shifted target domain that
/// `adapt` adapts to and the serving workloads draw prompts from — the same
/// Markov chains edgellm_cli uses.
edgellm::data::MarkovChain make_domain(double shift);
inline constexpr double kTargetShift = 0.6;

/// Fixture checkpoints: made once per build directory by the benchmark
/// itself (never timed), then loaded by every run.
std::string ensure_adapt_base(const Options& opt);
std::string ensure_serve_model(const Options& opt);

/// Exit policies the serving workloads mix, by request index.
enum class Policy { kFinal, kFixedEarly, kVoted, kSpeculative };
inline constexpr int64_t kEarlyExit = 4;   ///< fixed-early exit depth
inline constexpr int64_t kDraftDepth = 2;  ///< speculative draft exit
inline constexpr int64_t kDraftK = 3;      ///< speculative verify width

/// Greedy reference decoder with no KV cache: every step re-runs the whole
/// prefix through CausalLm::forward_eval (or forward_all_exits combined by
/// core::combine_exit_logits with the engine's default uniform weights for
/// the voted policy). `prompts` must share one length; decoded together.
std::vector<std::vector<int64_t>> reference_greedy(edgellm::nn::CausalLm& model,
                                                   const std::vector<std::vector<int64_t>>& prompts,
                                                   int64_t new_tokens, Policy policy);

/// The set-ups that cold_setup_ms times in a child process (`http_prefix`
/// times its server's start instead).
void setup_adapt(const Options& opt);
void setup_serve_unique(const Options& opt);

Result run_adapt(const Options& opt, LayerValues& layers);
Result run_serve_unique(const Options& opt, LayerValues& layers);
Result run_http_prefix(const Options& opt, LayerValues& layers);

/// Blocks in both fixture models.
inline constexpr int64_t kBlocks = 6;

}  // namespace pb
