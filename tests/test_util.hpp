// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/voting.hpp"
#include "nn/decoder.hpp"
#include "nn/model.hpp"
#include "nn/module.hpp"
#include "serve/engine.hpp"

namespace edgellm::testing {

/// A tiny model config that keeps tests fast.
inline nn::ModelConfig tiny_config() {
  nn::ModelConfig cfg;
  cfg.vocab = 24;
  cfg.d_model = 16;
  cfg.n_layers = 3;
  cfg.n_heads = 2;
  cfg.d_ff = 32;
  cfg.max_seq = 16;
  cfg.exit_layers = {1, 2, 3};
  return cfg;
}

/// Central-difference gradient check: after the caller has run forward +
/// backward once (filling p->grad), this verifies a sample of analytic
/// gradient entries against (L(p+h) - L(p-h)) / 2h.
///
/// `loss_fn` must recompute the scalar loss from scratch at the param's
/// current value.
inline void check_param_grad(nn::Param& p, const std::function<float()>& loss_fn,
                             int64_t max_checks = 12, float h = 1e-3f, float tol = 2e-2f) {
  const int64_t n = p.value.numel();
  const int64_t stride = std::max<int64_t>(1, n / max_checks);
  for (int64_t i = 0; i < n; i += stride) {
    const float orig = p.value[i];
    p.value[i] = orig + h;
    const float lp = loss_fn();
    p.value[i] = orig - h;
    const float lm = loss_fn();
    p.value[i] = orig;
    const float numeric = (lp - lm) / (2.0f * h);
    const float analytic = p.grad[i];
    const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(analytic)});
    EXPECT_NEAR(analytic / scale, numeric / scale, tol)
        << p.name << " index " << i << " analytic=" << analytic << " numeric=" << numeric;
  }
}

// --- Minimal recursive-descent JSON parser ----------------------------------
//
// Just enough JSON to validate the exporters' output (obs trace + metrics
// snapshots) without a third-party dependency: objects, arrays, strings
// (no escapes beyond \" \\ \/ \n \t), numbers, booleans, null. Throws
// std::runtime_error with an offset on malformed input.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  bool has(const std::string& key) const { return is_object() && object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("JsonValue: missing key " + key);
    return object.at(key);
  }
};

class JsonParser {
 public:
  static JsonValue parse(const std::string& text) {
    JsonParser p(text);
    JsonValue v = p.value();
    p.skip_ws();
    if (p.pos_ != text.size()) p.fail("trailing characters");
    return v;
  }

 private:
  explicit JsonParser(const std::string& text) : s_(text) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null_value();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object[key.string] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        if (e == 'n') v.string.push_back('\n');
        else if (e == 't') v.string.push_back('\t');
        else if (e == '"' || e == '\\' || e == '/') v.string.push_back(e);
        else fail("unsupported escape");
        continue;
      }
      v.string.push_back(c);
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null_value() {
    if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
    pos_ += 4;
    return JsonValue{};
  }

  JsonValue number() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

/// Validates the minimal Chrome trace-event schema the obs exporter
/// promises: top-level object with a "traceEvents" array whose entries all
/// carry a string "name", a one-char "ph" in {B, E, C}, numeric "pid",
/// "tid" and "ts", and (for counters) an "args" object. Returns the parsed
/// document so tests can make further assertions; throws on any violation.
inline JsonValue validate_chrome_trace(const std::string& json) {
  const JsonValue doc = JsonParser::parse(json);
  if (!doc.is_object()) throw std::runtime_error("trace: top level must be an object");
  if (!doc.has("traceEvents") || !doc.at("traceEvents").is_array()) {
    throw std::runtime_error("trace: missing traceEvents array");
  }
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (!e.is_object()) throw std::runtime_error("trace: event must be an object");
    if (!e.has("name") || !e.at("name").is_string() || e.at("name").string.empty()) {
      throw std::runtime_error("trace: event needs a non-empty string name");
    }
    if (!e.has("ph") || !e.at("ph").is_string() || e.at("ph").string.size() != 1 ||
        std::string("BEC").find(e.at("ph").string) == std::string::npos) {
      throw std::runtime_error("trace: event ph must be one of B, E, C");
    }
    for (const char* k : {"pid", "tid", "ts"}) {
      if (!e.has(k) || !e.at(k).is_number()) {
        throw std::runtime_error(std::string("trace: event needs numeric ") + k);
      }
    }
    if (e.at("ph").string == "C" && (!e.has("args") || !e.at("args").is_object())) {
      throw std::runtime_error("trace: counter event needs an args object");
    }
  }
  return doc;
}

// --- Serve-engine differential scaffolding ----------------------------------
//
// The shared build-tiny-model -> submit-batch -> compare-completions kit
// used by serve_test, kv_pool_test, serve_fault_test and speculative_test.
// The load-bearing convention: every prompt/row generator is deterministic
// in (index, salt), so any test can reproduce another's sequences exactly.

/// Deterministic prompt tokens: (i*5 + 2 + salt) % vocab.
inline std::vector<int64_t> seq_tokens(int64_t n, int64_t vocab, int64_t salt = 0) {
  std::vector<int64_t> t(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t[static_cast<size_t>(i)] = (i * 5 + 2 + salt) % vocab;
  return t;
}

inline std::vector<int64_t> iota_tokens(int64_t n) {
  std::vector<int64_t> t(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t[static_cast<size_t>(i)] = i;
  return t;
}

/// Deterministic per-(position, dim) row content so tests can recognise
/// which sequence wrote a cached row.
inline void fill_row(int64_t pos, int64_t kv_dim, int64_t salt, std::vector<float>& k,
                     std::vector<float>& v) {
  k.resize(static_cast<size_t>(kv_dim));
  v.resize(static_cast<size_t>(kv_dim));
  for (int64_t d = 0; d < kv_dim; ++d) {
    k[static_cast<size_t>(d)] = std::sin(0.05f * static_cast<float>(pos * kv_dim + d + salt));
    v[static_cast<size_t>(d)] = std::cos(0.07f * static_cast<float>(pos * kv_dim + d + salt));
  }
}

/// Appends `n` positions (starting at the view's current length) to every
/// layer, the way one decode tick per position would.
inline void feed_positions(nn::KvSequenceView& kv, int64_t n, int64_t depth, int64_t salt = 0) {
  std::vector<float> k, v;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t pos = kv.positions(0);
    fill_row(pos, kv.kv_dim(), salt, k, v);
    for (int64_t l = 0; l < depth; ++l) kv.append(l, k.data(), v.data());
  }
}

/// A standalone pool for at most 8 live sequences of up to 64 positions
/// (with budget 0 that sizes its prefix-cache eviction limit).
inline serve::KvPoolConfig paged_cfg(int64_t block_tokens, int64_t n_layers, int64_t kv_dim,
                                     int64_t byte_budget, obs::Registry* reg = nullptr,
                                     bool quantize = false) {
  serve::KvPoolConfig cfg;
  cfg.block_tokens = block_tokens;
  cfg.n_layers = n_layers;
  cfg.kv_dim = kv_dim;
  cfg.byte_budget = byte_budget;
  cfg.quantize = quantize;
  cfg.max_seqs = 8;
  cfg.max_seq = 64;
  cfg.registry = reg;
  return cfg;
}

inline serve::EngineConfig engine_cfg(int64_t threads, int64_t max_batch = 8,
                                      int64_t block_tokens = 16) {
  serve::EngineConfig cfg;
  cfg.max_batch = max_batch;
  cfg.threads = threads;
  cfg.kv_block_tokens = block_tokens;
  return cfg;
}

inline serve::Request greedy_request(int64_t id, std::vector<int64_t> prompt, int64_t n_new,
                                     serve::ExitPolicy policy = serve::ExitPolicy::kFinal,
                                     int64_t exit_layer = 0) {
  serve::Request r;
  r.id = id;
  r.prompt = std::move(prompt);
  r.max_new_tokens = n_new;
  r.temperature = 0.0f;
  r.exit_policy = policy;
  r.exit_layer = exit_layer;
  return r;
}

/// Greedy reference continuation through IncrementalDecoder.
inline std::vector<int64_t> reference_greedy(nn::CausalLm& model,
                                             const std::vector<int64_t>& prompt, int64_t n_new,
                                             int64_t exit_layer = 0, bool quantize_kv = false) {
  nn::IncrementalDecoder dec(model, exit_layer, quantize_kv);
  nn::GenerateConfig g;
  g.max_new_tokens = n_new;
  g.temperature = 0.0f;
  g.exit_layer = exit_layer;
  Rng rng(0);
  return dec.generate(prompt, g, rng);
}

/// Voted greedy reference: single-sequence all-exits decode over one
/// nn::KvCache, combined with the engine's defaults (uniform weights, zero
/// losses, default VoterConfig), greedy-picked per token.
inline std::vector<int64_t> reference_voted(nn::CausalLm& model,
                                            const std::vector<int64_t>& prompt, int64_t n_new,
                                            bool quantize_kv = false) {
  model.set_eval();
  const nn::ModelConfig& cfg = model.config();
  const size_t n_exits = model.exit_layers().size();
  const std::vector<float> w(n_exits, 1.0f / static_cast<float>(n_exits));
  const std::vector<float> losses(n_exits, 0.0f);
  nn::KvCache cache(cfg.n_layers, cfg.kv_dim(), quantize_kv);
  int64_t pos = 0;
  std::vector<Tensor> exits;
  for (const int64_t t : prompt) exits = nn::decode_step_all_exits(model, cache, pos++, t);
  nn::GenerateConfig g;
  g.temperature = 0.0f;
  std::vector<int64_t> out;
  for (int64_t i = 0; i < n_new; ++i) {
    const Tensor voted =
        core::combine_exit_logits(exits, w, losses, core::VoterConfig{}).reshape({cfg.vocab});
    Rng r(0);
    out.push_back(nn::sample_token(voted, g, r));
    if (i + 1 < n_new) exits = nn::decode_step_all_exits(model, cache, pos++, out.back());
  }
  return out;
}

/// Stages every request while the engine is parked (so all of them join one
/// deterministic batch on resume), then waits for and returns the
/// completions in request order.
inline std::vector<serve::Completion> serve_batch(serve::ServeEngine& engine,
                                                  std::vector<serve::Request> reqs) {
  engine.pause();
  std::vector<std::future<serve::Completion>> futs;
  futs.reserve(reqs.size());
  for (auto& r : reqs) futs.push_back(engine.submit(std::move(r)));
  engine.resume();
  std::vector<serve::Completion> out;
  out.reserve(futs.size());
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

}  // namespace edgellm::testing
