// edgellm_cli — a small command-line front end over the library, the way a
// downstream user would actually drive it on a device. Checkpoints are
// self-describing (architecture config embedded), so every subcommand only
// needs a file path.
//
//   edgellm_cli pretrain --out base.bin [--iters 800] [--layers 6] [--dmodel 32]
//   edgellm_cli adapt    --in base.bin --out adapted.bin [--shift 0.6]
//                        [--budget 3.0] [--window 2] [--iters 250]
//                        [--checkpoint-dir DIR] [--checkpoint-every N] [--resume 1]
//   edgellm_cli eval     --in adapted.bin [--shift 0.6]
//   edgellm_cli generate --in adapted.bin [--tokens 24] [--temp 0.7] [--shift 0.6]
//   edgellm_cli serve    --in adapted.bin [--requests FILE|-] [--threads 2]
//                        [--batch 8] [--queue 64] [--kv-budget BYTES]
//                        [--quantize-kv 0|1] [--kv-block-tokens N]
//                        [--speculative-depth L] [--draft-k K] [--metrics out.csv]
//                        [--listen host:port] [--max-connections N]
//                        [--idle-timeout-ms MS]
//
// `serve` runs the concurrent batched serving engine (src/serve): requests
// come in as JSONL (one {"id":..,"prompt":[..],"exit":"voted"|N|"final",..}
// object per line, default stdin), completions go to stdout as JSONL, and
// --metrics writes one CSV row of timing/memory per request. With --listen
// it instead serves HTTP (src/net): POST /v1/completions streams tokens as
// they decode, GET /metrics and /healthz for operators; SIGINT/SIGTERM
// drain gracefully in both modes (docs/SERVING.md, "HTTP API").
//
// With --checkpoint-dir, adaptation writes atomic CRC-checked snapshots of
// the FULL training state every --checkpoint-every iterations; rerunning
// with --resume 1 after an interruption continues bit-exactly where the
// last snapshot left off (see docs/ROBUSTNESS.md).
//
// Build & run:  ./build/examples/edgellm_cli pretrain --out /tmp/base.bin
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/eval.hpp"
#include "hw/measured.hpp"
#include "nn/decoder.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"
#include "nn/serialize.hpp"
#include "runtime/checkpointer.hpp"
#include "runtime/table.hpp"
#include "runtime/trace.hpp"
#include "net/listener.hpp"
#include "net/server.hpp"
#include "net/signals.hpp"
#include "serve/engine.hpp"

namespace {

using namespace edgellm;
using runtime::fmt;

// Flat --key value argument map.
std::map<std::string, std::string> parse_args(int argc, char** argv, int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    check_arg(key.rfind("--", 0) == 0, "flags must start with --: " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

double get_num(const std::map<std::string, std::string>& args, const std::string& key,
               double fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::stod(it->second);
}

std::string get_str(const std::map<std::string, std::string>& args, const std::string& key) {
  const auto it = args.find(key);
  check_arg(it != args.end(), "missing required flag --" + key);
  return it->second;
}

// --schedule-cache FILE: measured per-layer schedule autotuning for the
// blocked GEMM kernels (hw/measured.hpp). Loads the on-disk cache if it
// exists, tunes every unique GEMM shape the model runs at `batch_rows`
// activation rows (cache hits skip the timing), installs the winning
// blockings process-wide, and saves the cache back. Schedules only ever
// change speed — blocked kernels are bitwise identical to the naive ones —
// so this is safe on any subcommand.
void apply_schedule_cache(const std::map<std::string, std::string>& args, nn::CausalLm& model,
                          int64_t batch_rows) {
  if (!args.contains("schedule-cache")) return;
  const std::string path = args.at("schedule-cache");
  static hw::ScheduleCache cache;  // outlives the engine; one per process
  const bool loaded = cache.load(path);
  hw::MeasuredBackend backend(hw::MeasuredConfig{}, &cache);
  const hw::ModelTuneSummary s = hw::autotune_model_gemms(backend, model, batch_rows);
  check_arg(cache.save(path), "cannot write schedule cache " + path);
  std::cerr << "schedule cache " << path << (loaded ? " (warm)" : " (new)") << ": "
            << s.shapes_tuned << " shape(s), " << s.cache_hits << " from cache, "
            << fmt(s.tuning_ms, 1) << " ms tuning\n";
}

data::MarkovChain make_domain(double shift) {
  data::MarkovChain::Config dcfg;
  dcfg.vocab = 32;
  dcfg.order = 1;
  dcfg.branch = 4;
  dcfg.seed = 42;
  const data::MarkovChain base(dcfg);
  return shift > 0.0 ? base.shifted(static_cast<float>(shift), 4242) : base;
}

int cmd_pretrain(const std::map<std::string, std::string>& args) {
  nn::ModelConfig cfg;
  cfg.vocab = 32;
  cfg.d_model = static_cast<int64_t>(get_num(args, "dmodel", 32));
  cfg.n_layers = static_cast<int64_t>(get_num(args, "layers", 6));
  cfg.n_heads = 4;
  cfg.max_seq = 32;
  const int64_t third = cfg.n_layers / 3;
  cfg.exit_layers = {std::max<int64_t>(1, third), std::max<int64_t>(2, 2 * third),
                     cfg.n_layers};

  const int64_t iters = static_cast<int64_t>(get_num(args, "iters", 800));
  std::cout << "pretraining " << cfg.n_layers << "L/d" << cfg.d_model << " for " << iters
            << " iterations...\n";
  Rng rng(static_cast<uint64_t>(get_num(args, "seed", 7)));
  auto model = core::pretrain_base_model(cfg, make_domain(0.0), iters, 8, 16, rng);

  const std::string out = get_str(args, "out");
  nn::save_model_with_config(*model, out);
  std::cout << "saved " << out << " (" << model->param_count() << " params)\n";
  return 0;
}

int cmd_adapt(const std::map<std::string, std::string>& args) {
  auto model = nn::load_model_with_config(get_str(args, "in"));
  const double shift = get_num(args, "shift", 0.6);

  core::PipelineConfig pcfg;
  pcfg.adaptation_iters = static_cast<int64_t>(get_num(args, "iters", 250));
  pcfg.luc.target_effective_bits = get_num(args, "budget", 3.0);
  pcfg.luc.search = core::LucConfig::Search::kExactDp;
  pcfg.tuner.backprop_window = static_cast<int64_t>(get_num(args, "window", 2));
  pcfg.tuner.optim.lr = static_cast<float>(get_num(args, "lr", 1e-2));

  // Crash-safe checkpointing: periodic atomic snapshots of the full
  // training state, with bit-exact resume after an interruption.
  std::unique_ptr<runtime::Checkpointer> ckpt;
  if (args.contains("checkpoint-dir")) {
    runtime::CheckpointerConfig ccfg;
    ccfg.dir = args.at("checkpoint-dir");
    ccfg.keep = static_cast<int64_t>(get_num(args, "checkpoint-keep", 3));
    ckpt = std::make_unique<runtime::Checkpointer>(ccfg);
    pcfg.snapshots = ckpt.get();
    pcfg.checkpoint_every = static_cast<int64_t>(get_num(args, "checkpoint-every", 25));
    pcfg.resume = get_num(args, "resume", 0) != 0;
  }

  apply_schedule_cache(args, *model, pcfg.batch * pcfg.seq);

  std::cout << "adapting to shift " << shift << " (budget "
            << pcfg.luc.target_effective_bits << " eff bits, window "
            << pcfg.tuner.backprop_window << ")...\n";
  const core::PipelineResult res = core::run_pipeline(*model, make_domain(shift), pcfg);
  if (res.resumed_from_iter >= 0) {
    std::cout << "resumed from checkpointed iteration " << res.resumed_from_iter << "\n";
  }
  if (res.skipped_steps > 0 || res.rollbacks > 0) {
    std::cout << "numeric guard: skipped " << res.skipped_steps << " bad step(s), "
              << res.rollbacks << " rollback(s)\n";
  }

  std::cout << "policy: ";
  for (const auto& lp : res.policy.layers) std::cout << lp.bits << "b/" << lp.sparsity << " ";
  std::cout << "\nvoted ppl " << fmt(res.voted_perplexity, 2) << ", MCQ acc "
            << fmt(res.mcq_accuracy, 3) << ", peak activations "
            << res.peak_activation_bytes / 1024 << " KiB\n";

  if (args.contains("trace")) {
    runtime::write_loss_curve(args.at("trace"), res.loss_curve);
    std::cout << "wrote loss curve to " << args.at("trace") << "\n";
  }
  if (args.contains("metrics-out")) {
    obs::Registry::global().write_json(args.at("metrics-out"));
    std::cout << "wrote metrics to " << args.at("metrics-out") << "\n";
  }

  const std::string out = get_str(args, "out");
  nn::save_model_with_config(*model, out);
  std::cout << "saved " << out << "\n";
  return 0;
}

int cmd_eval(const std::map<std::string, std::string>& args) {
  auto model = nn::load_model_with_config(get_str(args, "in"));
  const data::MarkovChain domain = make_domain(get_num(args, "shift", 0.6));
  Rng rng(555);
  std::vector<data::LmBatch> eval;
  for (int i = 0; i < 8; ++i) eval.push_back(data::sample_lm_batch(domain, 8, 16, rng));

  runtime::TablePrinter table({14, 12, 10});
  table.row({"exit", "loss", "ppl"});
  table.rule();
  for (int64_t e : model->exit_layers()) {
    const float loss = data::lm_loss(*model, eval, e);
    table.row({"layer " + std::to_string(e), fmt(loss, 4), fmt(data::perplexity(loss), 2)});
  }
  core::ExitVoter voter(*model, {core::VotingMode::kCalibratedWeight, 0.5f});
  std::vector<data::LmBatch> calib = {data::sample_lm_batch(domain, 8, 16, rng)};
  voter.calibrate(calib);
  const float voted = voter.voted_loss(eval);
  table.row({"voted", fmt(voted, 4), fmt(data::perplexity(voted), 2)});
  return 0;
}

int cmd_generate(const std::map<std::string, std::string>& args) {
  auto model = nn::load_model_with_config(get_str(args, "in"));
  const data::MarkovChain domain = make_domain(get_num(args, "shift", 0.6));

  nn::IncrementalDecoder dec(*model);
  nn::GenerateConfig gcfg;
  gcfg.max_new_tokens = static_cast<int64_t>(get_num(args, "tokens", 24));
  gcfg.temperature = static_cast<float>(get_num(args, "temp", 0.7));
  gcfg.top_k = static_cast<int64_t>(get_num(args, "topk", 0));

  Rng rng(static_cast<uint64_t>(get_num(args, "seed", 11)));
  const auto prompt = domain.sample(4, rng);
  const auto gen = dec.generate(prompt, gcfg, rng);
  std::cout << "prompt      : ";
  for (int64_t t : prompt) std::cout << t << ' ';
  std::cout << "\ncontinuation: ";
  for (int64_t t : gen) std::cout << t << ' ';
  std::cout << "\nkv cache    : " << dec.kv_cache_bytes() / 1024 << " KiB\n";
  return 0;
}

int cmd_serve(const std::map<std::string, std::string>& args) {
  auto model = nn::load_model_with_config(get_str(args, "in"));

  serve::EngineConfig ecfg;
  ecfg.threads = static_cast<int64_t>(get_num(args, "threads", 2));
  ecfg.max_batch = static_cast<int64_t>(get_num(args, "batch", 8));
  ecfg.queue_capacity = static_cast<int64_t>(get_num(args, "queue", 64));
  ecfg.kv_byte_budget = static_cast<int64_t>(get_num(args, "kv-budget", 0));
  ecfg.quantize_kv = get_num(args, "quantize-kv", 0) != 0;
  ecfg.kv_block_tokens = static_cast<int64_t>(get_num(args, "kv-block-tokens", 16));
  ecfg.pack_compressed_weights = get_num(args, "packed-weights", 0) != 0;
  // Carry the global --fast-math choice through the engine (its ctor
  // re-applies the flag, so leaving this unset would reset it).
  ecfg.fast_math = ops::gemm::fast_math_enabled();
  // Engine-wide defaults for requests with exit "speculative" that don't
  // carry their own draft_depth/draft_k (docs/SERVING.md).
  ecfg.speculative_depth = static_cast<int64_t>(get_num(args, "speculative-depth", 0));
  ecfg.draft_k = static_cast<int64_t>(get_num(args, "draft-k", 4));

  // Overload policy (docs/ROBUSTNESS.md): all thresholds default to 0 =
  // inert, so a plain `serve` behaves exactly as before the resilience
  // layer existed.
  if (args.contains("shed-policy")) {
    const std::string p = args.at("shed-policy");
    if (p == "reject") ecfg.admission.shed_policy = serve::ShedPolicy::kRejectNew;
    else if (p == "drop-lowest") ecfg.admission.shed_policy = serve::ShedPolicy::kDropLowestPriority;
    else if (p == "degrade") ecfg.admission.shed_policy = serve::ShedPolicy::kDegradeEarlyExit;
    else check_arg(false, "--shed-policy must be reject|drop-lowest|degrade, got " + p);
  }
  ecfg.admission.degrade_queue_ratio = get_num(args, "degrade-queue", 0.0);
  ecfg.admission.shed_queue_ratio = get_num(args, "shed-queue", 0.0);
  ecfg.admission.degrade_kv_ratio = get_num(args, "degrade-kv", 0.0);
  ecfg.admission.shed_kv_ratio = get_num(args, "shed-kv", 0.0);
  ecfg.admission.degrade_tick_ms = get_num(args, "degrade-tick-ms", 0.0);
  ecfg.admission.shed_tick_ms = get_num(args, "shed-tick-ms", 0.0);
  ecfg.admission.tenant_rate = get_num(args, "tenant-rate", 0.0);
  ecfg.admission.tenant_burst = get_num(args, "tenant-burst", 4.0);
  ecfg.max_admission_retries = static_cast<int64_t>(get_num(args, "admission-retries", 0));
  ecfg.retry_backoff_ms = get_num(args, "retry-backoff-ms", 0.0);
  ecfg.watchdog_stall_ms = static_cast<int64_t>(get_num(args, "watchdog-ms", 0));

  // Decode ticks run up to max_batch stacked rows through each projection;
  // tune the kernels for that shape before the engine starts.
  apply_schedule_cache(args, *model, ecfg.max_batch);
  serve::ServeEngine engine(*model, ecfg);

  // Graceful drain on SIGINT/SIGTERM in both modes: finish or cancel
  // in-flight work, then fall through to the normal metrics/trace writes so
  // nothing lands on disk half-written.
  if (args.contains("listen")) {
    // HTTP front door (src/net): --listen host:port, requests over
    // POST /v1/completions with streamed token chunks. docs/SERVING.md has
    // the API; --requests/--metrics are JSONL-mode flags and ignored here.
    const auto [host, port] = net::split_host_port(args.at("listen"));
    net::ServerConfig scfg;
    scfg.host = host;
    scfg.port = port;
    scfg.max_connections = static_cast<int64_t>(get_num(args, "max-connections", 64));
    scfg.idle_timeout_ms = get_num(args, "idle-timeout-ms", 30000.0);
    net::HttpServer server(engine, scfg);
    net::install_drain_signals(server.wake_fd());
    std::cerr << "listening on " << host << ":" << server.port() << "\n";
    server.run();
    if (net::drain_signal() != 0) {
      std::cerr << "serve: drained after signal " << net::drain_signal() << "\n";
    }
    engine.shutdown();
  } else {
    net::install_drain_signals();

    // Requests in: one JSON object per line, default stdin ("-"). The whole
    // file is validated before anything is submitted, so a malformed line —
    // reported with its line number — never half-runs a batch.
    const std::string req_path = args.contains("requests") ? args.at("requests") : "-";
    std::ifstream file;
    if (req_path != "-") {
      file.open(req_path);
      check_arg(file.good(), "serve: cannot open requests file " + req_path);
    }
    std::istream& in = req_path == "-" ? std::cin : file;

    std::vector<serve::Request> reqs;
    std::string line;
    int64_t auto_id = 0;
    int64_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      try {
        serve::Request req = serve::parse_request_json(line);
        if (req.id == 0) req.id = ++auto_id;
        reqs.push_back(std::move(req));
      } catch (const std::exception& e) {
        std::cerr << "serve: " << (req_path == "-" ? "<stdin>" : req_path) << ":" << lineno
                  << ": " << e.what() << "\n";
        return 1;
      }
    }

    std::vector<int64_t> ids;
    std::vector<std::future<serve::Completion>> futs;
    ids.reserve(reqs.size());
    futs.reserve(reqs.size());
    for (auto& req : reqs) {
      ids.push_back(req.id);
      futs.push_back(engine.submit(std::move(req)));
    }

    std::unique_ptr<runtime::CsvWriter> csv;
    if (args.contains("metrics")) {
      csv = std::make_unique<runtime::CsvWriter>(
          args.at("metrics"), std::vector<std::string>{"id", "status", "prompt_tokens",
                                                       "output_tokens", "queue_ms", "ttft_ms",
                                                       "total_ms", "tokens_per_s", "kv_bytes"});
    }
    bool drained = false;
    for (auto& fut : futs) {
      // Poll rather than block so a drain signal cancels outstanding work
      // promptly; cancelled completions still print (status "cancelled").
      while (fut.wait_for(std::chrono::milliseconds(50)) != std::future_status::ready) {
        if (net::drain_signal() != 0 && !drained) {
          drained = true;
          for (const int64_t id : ids) engine.cancel(id);
        }
      }
      const serve::Completion c = fut.get();
      std::cout << serve::completion_to_json(c) << "\n";
      if (csv) {
        csv->row(std::vector<std::string>{
            std::to_string(c.id), serve::to_string(c.status),
            std::to_string(c.metrics.prompt_tokens), std::to_string(c.metrics.output_tokens),
            fmt(c.metrics.queue_wait_ms, 3), fmt(c.metrics.ttft_ms, 3),
            fmt(c.metrics.total_ms, 3), fmt(c.metrics.tokens_per_s, 1),
            std::to_string(c.metrics.kv_bytes)});
      }
    }
    if (net::drain_signal() != 0) {
      std::cerr << "serve: drained after signal " << net::drain_signal() << "\n";
    }
    engine.shutdown();
    if (csv) csv->close();
  }
  if (args.contains("metrics-out")) {
    engine.registry().write_json(args.at("metrics-out"));
    std::cerr << "wrote metrics to " << args.at("metrics-out") << "\n";
  }

  const serve::EngineMetrics m = engine.metrics();
  std::cerr << "served " << m.completed << " ok, " << m.rejected << " rejected, "
            << m.cancelled << " cancelled, " << m.timed_out << " timed out, " << m.shed
            << " shed, " << m.expired << " expired, " << m.failed << " failed ("
            << m.degraded << " degraded, " << m.admission_retries << " kv retries); "
            << m.tokens_generated << " tokens over " << m.ticks << " ticks (mean batch "
            << fmt(m.mean_batch_occupancy(), 2) << "), KV high water "
            << m.kv_high_water_bytes / 1024 << " KiB\n";
  return 0;
}

int usage() {
  std::cerr << "usage: edgellm_cli <pretrain|adapt|eval|generate|serve> [--flag value ...]\n"
               "  pretrain --out FILE [--iters N] [--layers L] [--dmodel D] [--seed S]\n"
               "  adapt    --in FILE --out FILE [--shift F] [--budget B] [--window W] [--iters N]\n"
               "           [--checkpoint-dir DIR] [--checkpoint-every N] [--checkpoint-keep K]\n"
               "           [--resume 0|1] [--metrics-out JSON] [--schedule-cache FILE]\n"
               "  eval     --in FILE [--shift F]\n"
               "  generate --in FILE [--tokens N] [--temp T] [--topk K] [--shift F]\n"
               "  serve    --in FILE [--requests FILE|-] [--threads N] [--batch B]\n"
               "           [--queue Q] [--kv-budget BYTES] [--quantize-kv 0|1]\n"
               "           [--kv-block-tokens N] [--speculative-depth L] [--draft-k K]\n"
               "           [--metrics CSV] [--metrics-out JSON] [--schedule-cache FILE]\n"
               "           [--packed-weights 0|1]\n"
               "           [--shed-policy reject|drop-lowest|degrade]\n"
               "           [--degrade-queue F] [--shed-queue F] [--degrade-kv F] [--shed-kv F]\n"
               "           [--degrade-tick-ms MS] [--shed-tick-ms MS]\n"
               "           [--tenant-rate RPS] [--tenant-burst N]\n"
               "           [--admission-retries N] [--retry-backoff-ms MS] [--watchdog-ms MS]\n"
               "           [--listen host:port] [--max-connections N] [--idle-timeout-ms MS]\n"
               "serve --listen host:port serves HTTP instead of JSONL (port 0 = ephemeral,\n"
               "bound port printed to stderr): POST /v1/completions streams token chunks,\n"
               "GET /metrics (JSON or ?format=csv) and GET /healthz; SIGINT/SIGTERM drain\n"
               "gracefully in both modes (docs/SERVING.md)\n"
               "requests with \"exit\": \"speculative\" draft from an early-exit head and\n"
               "verify at full depth (greedy output byte-identical to \"final\");\n"
               "--speculative-depth/--draft-k set engine-wide defaults for requests that\n"
               "omit draft_depth/draft_k (docs/SERVING.md)\n"
               "serve overload policy (docs/ROBUSTNESS.md): thresholds are fractions of queue/\n"
               "KV capacity (or tick-latency ms) past which requests degrade to early exits or\n"
               "are shed; 0 (default) disables each signal and the engine behaves as before\n"
               "--schedule-cache FILE autotunes blocked-GEMM tile sizes per layer shape by\n"
               "timing the real kernels, persisting winners across runs (speed only — outputs\n"
               "are bitwise unchanged); --packed-weights 1 decodes against packed int4/int8\n"
               "weights directly (deployed integer numerics; see docs/PERFORMANCE.md)\n"
               "every subcommand also takes --compute-threads N (deterministic tensor\n"
               "backend; 0 = EDGELLM_NUM_THREADS or serial; outputs identical at any N),\n"
               "--simd auto|scalar|avx2|neon (SIMD kernel dispatch, mirrors EDGELLM_SIMD;\n"
               "outputs identical at any choice), --fast-math 0|1 (FMA multi-accumulator\n"
               "kernels: faster, not bitwise; see docs/PERFORMANCE.md),\n"
               "--trace-out FILE (Chrome trace-event JSON for chrome://tracing / Perfetto)\n"
               "and --trace-sample N (record every Nth kernel-family span; default 0 = off)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const auto args = parse_args(argc, argv, 2);
    // Global compute-thread knob for the deterministic tensor backend;
    // outputs are bitwise identical at any value (EDGELLM_NUM_THREADS is
    // the env-var equivalent).
    const int64_t ct = static_cast<int64_t>(get_num(args, "compute-threads", 0));
    check_arg(ct >= 0, "--compute-threads must be >= 0");
    if (ct > 0) parallel::set_num_threads(ct);
    // Global SIMD dispatch override, mirroring EDGELLM_SIMD (the flag wins
    // when both are given). The default deterministic kernels make this a
    // speed knob only; --fast-math opts into the non-bitwise FMA kernels.
    if (args.contains("simd")) {
      const std::string choice = args.at("simd");
      check_arg(simd::set_dispatch(choice),
                "--simd " + choice + " not available on this host (try auto|scalar" +
                    (simd::detected_isa() == simd::Isa::kScalar
                         ? std::string(")")
                         : "|" + std::string(simd::to_string(simd::detected_isa())) + ")"));
    }
    const bool fast_math = get_num(args, "fast-math", 0) != 0;
    ops::gemm::set_fast_math(fast_math);
    std::cerr << "simd: dispatch=" << simd::to_string(simd::active_isa())
              << " (detected " << simd::to_string(simd::detected_isa()) << ")"
              << (fast_math ? ", fast-math on" : "") << "\n";
    // Tracing knobs, global to the subcommand run (see docs/OBSERVABILITY.md).
    const int64_t sample = static_cast<int64_t>(get_num(args, "trace-sample", 0));
    check_arg(sample >= 0, "--trace-sample must be >= 0");
    const bool tracing = args.contains("trace-out");
    if (tracing) obs::Tracer::global().enable(sample);

    int rc = -1;
    if (cmd == "pretrain") rc = cmd_pretrain(args);
    else if (cmd == "adapt") rc = cmd_adapt(args);
    else if (cmd == "eval") rc = cmd_eval(args);
    else if (cmd == "generate") rc = cmd_generate(args);
    else if (cmd == "serve") rc = cmd_serve(args);
    if (rc < 0) return usage();
    if (tracing) {
      obs::Tracer::global().disable();
      obs::Tracer::global().write_chrome_trace(args.at("trace-out"));
      std::cerr << "wrote trace to " << args.at("trace-out") << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
