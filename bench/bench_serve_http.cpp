// Out-of-process load generation against the HTTP front door (src/net):
// real loopback sockets, real HTTP/1.1, streamed chunked responses — the
// whole serving path a deployed client exercises, including the parser,
// the event loop's write-buffer backpressure and the 429/503 shed surface.
//
// By default the bench hosts the server itself on a background thread (an
// ephemeral port, the same resilience policy as bench_serve_overload) so a
// bare `./bench_serve_http` measures end to end; `--addr host:port` points
// the generator at an *externally launched* server instead (the CI http
// job runs `edgellm_cli serve --listen` and drives it this way).
//
// Methodology mirrors bench_serve_overload: the closed-loop HTTP service
// rate is calibrated first (keep-alive clients, back-to-back requests),
// then seeded Poisson arrivals replay at 0.25x..2.0x of it, each worker
// owning one keep-alive connection. At 2x the engine must shed visibly
// (429/503) while the p99 of successful streams stays within a small
// multiple of the unloaded p99.
//
// A machine-readable summary goes to BENCH_serve_http.json (--json PATH,
// "" disables). --check-http exits non-zero when: any response fails to
// parse as HTTP or carries an unexpected status, a load point completes no
// work, the 2x point never sheds, the p99 ratio blows past a generous CI
// bar, or any request goes unanswered (sent != answered).
//
// Run: ./build/bench/bench_serve_http [--seconds S] [--repeats N]
//      [--tokens N] [--addr host:port] [--json out.json] [--check-http]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/server.hpp"
#include "serve/engine.hpp"

namespace {

using namespace edgellm;
using runtime::fmt;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

constexpr int64_t kPromptLen = 4;

std::string make_body(int64_t id, int64_t n_new, int64_t vocab, int64_t salt) {
  std::string b = "{\"id\": " + std::to_string(id) + ", \"prompt\": [";
  for (int64_t i = 0; i < kPromptLen; ++i) {
    if (i > 0) b += ", ";
    b += std::to_string((i * 7 + salt * 3 + 1) % vocab);
  }
  b += "], \"max_new_tokens\": " + std::to_string(n_new) + ", \"temperature\": 0.0}";
  return b;
}

/// Outcome of one HTTP request as the client saw it.
struct HttpResult {
  bool answered = false;  ///< a complete, parseable HTTP response arrived
  int status = 0;
  int64_t tokens = 0;    ///< token lines streamed before the final object
  double ttfb_ms = 0.0;  ///< request written -> first response byte
  double total_ms = 0.0; ///< request written -> response complete
  std::string error;     ///< transport/parse failure description
};

/// A blocking keep-alive HTTP/1.1 client: one connection, sequential
/// requests, incremental dechunking. Deliberately independent of src/net —
/// the bench must not trust the code under test to read its own output.
class HttpClient {
 public:
  HttpClient(std::string host, int port) : host_(std::move(host)), port_(port) {}
  ~HttpClient() { reset(); }

  HttpResult post(const std::string& target, const std::string& body) {
    return request_("POST", target, body);
  }
  HttpResult get(const std::string& target) { return request_("GET", target, ""); }

 private:
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool ensure_connected() {
    if (fd_ >= 0) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      reset();
      return false;
    }
    return true;
  }

  /// Reads until `buf_` contains `needle`; returns its end offset or npos.
  size_t read_until(const std::string& needle) {
    while (true) {
      const size_t at = buf_.find(needle);
      if (at != std::string::npos) return at + needle.size();
      if (!read_more()) return std::string::npos;
    }
  }

  bool read_exact(size_t n) {
    while (buf_.size() < n) {
      if (!read_more()) return false;
    }
    return true;
  }

  bool read_more() {
    char tmp[8192];
    const ssize_t r = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (r <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(r));
    return true;
  }

  HttpResult request_(const char* method, const std::string& target, const std::string& body) {
    HttpResult res;
    if (!ensure_connected()) {
      res.error = "connect failed";
      return res;
    }
    std::string req = std::string(method) + " " + target + " HTTP/1.1\r\nHost: " + host_ +
                      "\r\nContent-Type: application/json\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body;
    const auto t0 = Clock::now();
    size_t off = 0;
    while (off < req.size()) {
      const ssize_t n = ::send(fd_, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        // A keep-alive connection the server timed out or closed: retry
        // once on a fresh one.
        reset();
        if (!ensure_connected()) {
          res.error = "send failed";
          return res;
        }
        off = 0;
        continue;
      }
      off += static_cast<size_t>(n);
    }

    const size_t head_end = read_until("\r\n\r\n");
    if (head_end == std::string::npos) {
      res.error = "no response head";
      reset();
      return res;
    }
    res.ttfb_ms = ms_since(t0);
    const std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end);
    if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) {
      res.error = "bad status line";
      reset();
      return res;
    }
    res.status = std::atoi(head.c_str() + 9);
    std::string lower = head;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    const bool chunked = lower.find("transfer-encoding: chunked") != std::string::npos;
    const bool close_conn = lower.find("connection: close") != std::string::npos;

    std::string payload;
    if (chunked) {
      while (true) {
        const size_t line_end = read_until("\r\n");
        if (line_end == std::string::npos) {
          res.error = "truncated chunk size";
          reset();
          return res;
        }
        const long sz = std::strtol(buf_.c_str(), nullptr, 16);
        buf_.erase(0, line_end);
        if (sz < 0) {
          res.error = "bad chunk size";
          reset();
          return res;
        }
        if (!read_exact(static_cast<size_t>(sz) + 2)) {
          res.error = "truncated chunk";
          reset();
          return res;
        }
        if (sz == 0) {
          buf_.erase(0, 2);
          break;
        }
        payload.append(buf_, 0, static_cast<size_t>(sz));
        buf_.erase(0, static_cast<size_t>(sz) + 2);
      }
    } else {
      const size_t cl_at = lower.find("content-length: ");
      if (cl_at == std::string::npos) {
        res.error = "no framing";
        reset();
        return res;
      }
      const long cl = std::strtol(lower.c_str() + cl_at + 16, nullptr, 10);
      if (cl < 0 || !read_exact(static_cast<size_t>(cl))) {
        res.error = "truncated body";
        reset();
        return res;
      }
      payload.assign(buf_, 0, static_cast<size_t>(cl));
      buf_.erase(0, static_cast<size_t>(cl));
    }
    res.total_ms = ms_since(t0);
    res.answered = true;

    // A streamed 200 is token lines then the final completion object; only
    // the token lines count as streamed tokens.
    size_t lines = 0;
    for (const char c : payload) {
      if (c == '\n') ++lines;
    }
    if (res.status == 200 && chunked && lines > 0) res.tokens = static_cast<int64_t>(lines) - 1;
    if (close_conn) reset();
    return res;
  }

  std::string host_;
  int port_ = 0;
  int fd_ = -1;
  std::string buf_;  ///< bytes read past the current parse point
};

/// Closed-loop calibration over HTTP: `workers` keep-alive clients send
/// back-to-back until `total` requests complete; the drain rate is the
/// service capacity the open-loop arrival rates are expressed against.
double calibrate_http_rps(const std::string& host, int port, int64_t total, int64_t workers,
                          int64_t n_new, int64_t vocab) {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> ok{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int64_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      HttpClient client(host, port);
      while (true) {
        const int64_t i = next.fetch_add(1);
        if (i >= total) break;
        const HttpResult r =
            client.post("/v1/completions", make_body(0, n_new, vocab, i + w * 131));
        if (r.answered && r.status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : pool) t.join();
  const double ms = ms_since(t0);
  check_arg(ok.load() > 0, "bench: calibration completed nothing — is the server up?");
  return static_cast<double>(ok.load()) / (ms / 1e3);
}

/// Pooled outcome of one load point.
struct LoadRow {
  double load = 0.0;
  double arrival_rps = 0.0;
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t ok = 0;
  int64_t shed_429 = 0;
  int64_t unavailable_503 = 0;
  int64_t other_status = 0;
  int64_t transport_errors = 0;
  int64_t ok_tokens = 0;
  double wall_ms = 0.0;
  std::vector<double> lat;   ///< total_ms of every 200 response
  std::vector<double> ttfb;  ///< ttfb_ms of every 200 response

  double goodput_tok_s() const { return static_cast<double>(ok_tokens) / (wall_ms / 1e3); }
};

/// One open-loop run: a seeded Poisson arrival schedule partitioned
/// round-robin over `workers` keep-alive connections. Arrivals fire on
/// schedule whether or not the server is coping — that is what makes 2x an
/// overload, and what the 429/503 surface exists to absorb.
void run_load(const std::string& host, int port, LoadRow& row, double rate_rps,
              double duration_s, int64_t n_new, int64_t vocab, uint64_t seed) {
  const int64_t offered = std::max<int64_t>(16, std::llround(rate_rps * duration_s));
  const int64_t workers = std::min<int64_t>(32, std::max<int64_t>(4, offered / 4));
  Rng rng(seed);
  std::vector<double> arrive_ms(static_cast<size_t>(offered));
  double at = 0.0;
  for (int64_t i = 0; i < offered; ++i) {
    const double u = static_cast<double>(rng.uniform(0.0f, 1.0f));
    at += -std::log1p(-std::min(u, 0.999999)) / rate_rps * 1e3;
    arrive_ms[static_cast<size_t>(i)] = at;
  }

  std::mutex mu;  // guards row during the merge
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int64_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      HttpClient client(host, port);
      LoadRow local;
      for (int64_t i = w; i < offered; i += workers) {
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::milli>(arrive_ms[static_cast<size_t>(i)]));
        std::this_thread::sleep_until(due);
        ++local.sent;
        const HttpResult r =
            client.post("/v1/completions", make_body(0, n_new, vocab, i));
        if (!r.answered) {
          ++local.transport_errors;
          continue;
        }
        ++local.answered;
        if (r.status == 200) {
          ++local.ok;
          local.ok_tokens += r.tokens;
          local.lat.push_back(r.total_ms);
          local.ttfb.push_back(r.ttfb_ms);
        } else if (r.status == 429) {
          ++local.shed_429;
        } else if (r.status == 503) {
          ++local.unavailable_503;
        } else {
          ++local.other_status;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      row.sent += local.sent;
      row.answered += local.answered;
      row.ok += local.ok;
      row.shed_429 += local.shed_429;
      row.unavailable_503 += local.unavailable_503;
      row.other_status += local.other_status;
      row.transport_errors += local.transport_errors;
      row.ok_tokens += local.ok_tokens;
      row.lat.insert(row.lat.end(), local.lat.begin(), local.lat.end());
      row.ttfb.insert(row.ttfb.end(), local.ttfb.begin(), local.ttfb.end());
    });
  }
  for (auto& t : pool) t.join();
  row.wall_ms += ms_since(t0);
}

/// The same resilience policy as bench_serve_overload, so the two benches'
/// shed behaviour is comparable (there at the submit() API, here over HTTP).
serve::EngineConfig overload_cfg() {
  serve::EngineConfig e;
  e.threads = 2;
  e.max_batch = 4;
  e.queue_capacity = 16;
  e.admission.shed_policy = serve::ShedPolicy::kRejectNew;
  e.admission.degrade_queue_ratio = 0.125;
  e.admission.shed_queue_ratio = 0.375;
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool check_http = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check-http") == 0) {
      check_http = true;
    } else if (i + 1 < argc) {
      args[argv[i]] = argv[i + 1];
      ++i;
    }
  }
  const double duration_s = args.count("--seconds") ? std::stod(args["--seconds"]) : 1.2;
  const int64_t repeats = args.count("--repeats") ? std::stoll(args["--repeats"]) : 2;
  const int64_t n_new = args.count("--tokens") ? std::stoll(args["--tokens"]) : 16;
  const int64_t vocab = 32;  // both the bench model and edgellm_cli pretrain use vocab 32

  // Server: in-process on an ephemeral port by default, --addr to target an
  // externally launched `edgellm_cli serve --listen`.
  std::string host = "127.0.0.1";
  int port = 0;
  std::unique_ptr<nn::CausalLm> model;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<net::HttpServer> server;
  std::thread server_thread;
  if (args.count("--addr")) {
    const std::string addr = args["--addr"];
    const size_t colon = addr.rfind(':');
    check_arg(colon != std::string::npos, "--addr must be host:port");
    host = addr.substr(0, colon);
    port = std::atoi(addr.c_str() + colon + 1);
  } else {
    const nn::ModelConfig cfg = bench::bench_model_config();
    Rng rng(7);
    model = std::make_unique<nn::CausalLm>(cfg, rng);
    engine = std::make_unique<serve::ServeEngine>(*model, overload_cfg());
    net::ServerConfig scfg;
    scfg.max_connections = 128;
    server = std::make_unique<net::HttpServer>(*engine, scfg);
    port = server->port();
    server_thread = std::thread([&] { server->run(); });
  }

  {
    HttpClient probe(host, port);
    HttpResult h;
    for (int i = 0; i < 50 && !(h.answered && h.status == 200); ++i) {
      h = probe.get("/healthz");
      if (!h.answered) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    check_arg(h.answered && h.status == 200, "bench: /healthz never came up at " + host + ":" +
                                                 std::to_string(port));
  }

  // Warm pass, then the measured calibration.
  calibrate_http_rps(host, port, 8, 4, n_new, vocab);
  const double service_rps = calibrate_http_rps(host, port, 32, 4, n_new, vocab);
  std::cout << "calibrated HTTP service rate: " << fmt(service_rps, 1) << " req/s at " << host
            << ":" << port << " (" << n_new << " tokens/request, "
            << (args.count("--addr") ? "external server" : "in-process server")
            << "); open-loop arrivals for " << fmt(duration_s, 1) << "s x " << repeats
            << " repeats per load\n\n";

  const double loads[] = {0.25, 0.5, 1.0, 2.0};
  std::vector<LoadRow> rows;
  for (const double load : loads) {
    LoadRow row;
    row.load = load;
    row.arrival_rps = load * service_rps;
    for (int64_t r = 0; r < repeats; ++r) {
      run_load(host, port, row, row.arrival_rps, duration_s, n_new, vocab,
               /*seed=*/0x177B + static_cast<uint64_t>(load * 100) * 31 +
                   static_cast<uint64_t>(r));
    }
    rows.push_back(std::move(row));
  }

  runtime::TablePrinter table({6, 9, 7, 7, 7, 7, 7, 9, 9, 9, 11});
  table.row({"load", "rps", "sent", "ok", "429", "503", "err", "ttfb p50", "p50 ms", "p99 ms",
             "goodput t/s"});
  table.rule();
  for (const LoadRow& r : rows) {
    table.row({fmt(r.load, 2), fmt(r.arrival_rps, 1), std::to_string(r.sent),
               std::to_string(r.ok), std::to_string(r.shed_429),
               std::to_string(r.unavailable_503),
               std::to_string(r.transport_errors + r.other_status),
               fmt(percentile(r.ttfb, 0.50), 2), fmt(percentile(r.lat, 0.50), 2),
               fmt(percentile(r.lat, 0.99), 2), fmt(r.goodput_tok_s(), 0)});
  }

  const double unloaded_p99 = percentile(rows.front().lat, 0.99);
  const double loaded_p99 = percentile(rows.back().lat, 0.99);
  const double p99_ratio_2x = unloaded_p99 > 0.0 ? loaded_p99 / unloaded_p99 : 0.0;
  const int64_t shed_2x = rows.back().shed_429 + rows.back().unavailable_503;
  std::cout << "\np99 at 2.0x load / p99 at 0.25x load: " << fmt(p99_ratio_2x, 2)
            << "x (server shed " << shed_2x << " requests over HTTP at 2x)\n";

  // In-process mode: drain the server before reading final engine state.
  if (server) {
    server->begin_drain();
    server_thread.join();
    engine->shutdown();
    const serve::EngineMetrics m = engine->metrics();
    check_arg(m.submitted == m.completed + m.rejected + m.cancelled + m.timed_out + m.shed +
                                 m.expired + m.failed,
              "bench: request conservation violated");
    const obs::MetricsSnapshot snap = engine->registry().snapshot();
    check_arg(snap.counter("kv/acquired") == snap.counter("kv/released"),
              "bench: KV sequences leaked across drain");
  }

  const std::string json_path =
      args.count("--json") ? args["--json"] : std::string("BENCH_serve_http.json");
  if (!json_path.empty()) {
    std::ofstream js(json_path);
    js << "{\n  \"service_rate_rps\": " << fmt(service_rps, 1)
       << ",\n  \"tokens_per_request\": " << n_new
       << ",\n  \"server\": \"" << (args.count("--addr") ? "external" : "in-process")
       << "\",\n  \"shed_policy\": \"reject-new\",\n  \"loads\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const LoadRow& r = rows[i];
      js << "    {\"load\": " << fmt(r.load, 2) << ", \"arrival_rps\": " << fmt(r.arrival_rps, 1)
         << ", \"sent\": " << r.sent << ", \"answered\": " << r.answered
         << ", \"ok\": " << r.ok << ", \"shed_429\": " << r.shed_429
         << ", \"unavailable_503\": " << r.unavailable_503
         << ", \"other_status\": " << r.other_status
         << ", \"transport_errors\": " << r.transport_errors
         << ", \"ttfb_p50_ms\": " << fmt(percentile(r.ttfb, 0.50), 3)
         << ", \"p50_ms\": " << fmt(percentile(r.lat, 0.50), 3)
         << ", \"p99_ms\": " << fmt(percentile(r.lat, 0.99), 3)
         << ", \"goodput_tok_s\": " << fmt(r.goodput_tok_s(), 1) << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"p99_ratio_2x\": " << fmt(p99_ratio_2x, 3)
       << ",\n  \"shed_over_http_at_2x\": " << shed_2x << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (check_http) {
    // Generous CI bars — shared runners are noisy; the committed baseline
    // documents the real margins.
    bool ok = true;
    for (const LoadRow& r : rows) {
      if (r.ok <= 0 || r.ok_tokens <= 0) {
        std::cerr << "CHECK FAILED: no successful streams at load " << fmt(r.load, 2) << "x\n";
        ok = false;
      }
      if (r.sent != r.answered + r.transport_errors) {
        std::cerr << "CHECK FAILED: sent != answered + errors at load " << fmt(r.load, 2)
                  << "x\n";
        ok = false;
      }
      if (r.other_status > 0) {
        std::cerr << "CHECK FAILED: unexpected HTTP status at load " << fmt(r.load, 2) << "x\n";
        ok = false;
      }
      if (r.transport_errors > r.sent / 10) {
        std::cerr << "CHECK FAILED: >10% transport errors at load " << fmt(r.load, 2) << "x\n";
        ok = false;
      }
    }
    if (shed_2x <= 0) {
      std::cerr << "CHECK FAILED: server never shed over HTTP at 2x load\n";
      ok = false;
    }
    if (!(p99_ratio_2x > 0.0 && p99_ratio_2x <= 5.0)) {
      std::cerr << "CHECK FAILED: p99 ratio at 2x load is " << fmt(p99_ratio_2x, 2)
                << "x (want (0, 5])\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "http checks passed\n";
  }
  return 0;
}
