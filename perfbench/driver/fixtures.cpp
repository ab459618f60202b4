#include <filesystem>

#include "core/pipeline.hpp"
#include "core/voting.hpp"
#include "nn/serialize.hpp"
#include "workloads.hpp"

namespace pb {

using namespace edgellm;

data::MarkovChain make_domain(double shift) {
  data::MarkovChain::Config dcfg;
  dcfg.vocab = 32;
  dcfg.order = 1;
  dcfg.branch = 4;
  dcfg.seed = 42;
  const data::MarkovChain base(dcfg);
  return shift > 0.0 ? base.shifted(static_cast<float>(shift), 4242) : base;
}

namespace {

std::string ensure_pretrained(const Options& opt, const std::string& name, int64_t d_model,
                              int64_t max_seq, int64_t iters, int64_t seq) {
  const std::string dir = opt.work_dir + "/fixtures";
  const std::string path = dir + "/" + name;
  if (file_exists(path)) return path;
  std::filesystem::create_directories(dir);
  nn::ModelConfig cfg;
  cfg.vocab = 32;
  cfg.d_model = d_model;
  cfg.n_layers = kBlocks;
  cfg.n_heads = 4;
  cfg.max_seq = max_seq;
  cfg.exit_layers = {2, 4, kBlocks};
  Rng rng(7);
  auto model = core::pretrain_base_model(cfg, make_domain(0.0), iters, 8, seq, rng);
  nn::save_model_with_config(*model, path);  // atomic: temp file + rename
  return path;
}

}  // namespace

std::string ensure_adapt_base(const Options& opt) {
  return ensure_pretrained(opt, "adapt_base_6L_d32.ellm", 32, 32, 300, 16);
}

std::string ensure_serve_model(const Options& opt) {
  return ensure_pretrained(opt, "serve_6L_d64.ellm", 64, 64, 300, 32);
}

std::vector<std::vector<int64_t>> reference_greedy(nn::CausalLm& model,
                                                   const std::vector<std::vector<int64_t>>& prompts,
                                                   int64_t new_tokens, Policy policy) {
  std::vector<std::vector<int64_t>> seqs = prompts;
  std::vector<std::vector<int64_t>> out(prompts.size());
  if (prompts.empty()) return out;
  const int64_t batch = static_cast<int64_t>(prompts.size());
  const int64_t vocab = model.config().vocab;
  const size_t n_exits = model.exit_layers().size();
  const std::vector<float> weights(n_exits, 1.0f / static_cast<float>(n_exits));
  const std::vector<float> losses(n_exits, 0.0f);
  const core::VoterConfig voting;  // the engine's default for voted requests

  auto argmax = [vocab](const float* row) {
    int64_t best = 0;
    for (int64_t v = 1; v < vocab; ++v) {
      if (row[v] > row[best]) best = v;
    }
    return best;
  };

  for (int64_t step = 0; step < new_tokens; ++step) {
    const int64_t len = static_cast<int64_t>(seqs[0].size());
    std::vector<int64_t> flat;
    flat.reserve(static_cast<size_t>(batch * len));
    for (const auto& s : seqs) flat.insert(flat.end(), s.begin(), s.end());
    if (policy == Policy::kVoted) {
      const std::vector<Tensor> exits = model.forward_all_exits(flat, batch, len);
      for (int64_t b = 0; b < batch; ++b) {
        std::vector<Tensor> rows;
        for (const Tensor& e : exits) {
          const float* src = e.raw() + (b * len + len - 1) * vocab;
          rows.emplace_back(Shape{1, vocab}, std::vector<float>(src, src + vocab));
        }
        const Tensor voted = core::combine_exit_logits(rows, weights, losses, voting);
        const int64_t tok = argmax(voted.raw());
        seqs[static_cast<size_t>(b)].push_back(tok);
        out[static_cast<size_t>(b)].push_back(tok);
      }
    } else {
      const int64_t exit = policy == Policy::kFixedEarly ? kEarlyExit : model.config().n_layers;
      const Tensor logits = model.forward_eval(flat, batch, len, exit);
      for (int64_t b = 0; b < batch; ++b) {
        const int64_t tok = argmax(logits.raw() + (b * len + len - 1) * vocab);
        seqs[static_cast<size_t>(b)].push_back(tok);
        out[static_cast<size_t>(b)].push_back(tok);
      }
    }
  }
  return out;
}

}  // namespace pb
