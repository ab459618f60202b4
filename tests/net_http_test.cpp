// Loopback integration tests for the HTTP front door (src/net/server.hpp):
// real sockets against a real engine. The load-bearing claims pinned here:
//
//   - a streamed greedy completion over HTTP is byte-for-byte the token
//     sequence the JSONL path (and the IncrementalDecoder reference)
//     produces, and the final chunk is the same completion JSON;
//   - overload surfaces as structured 429/503 with every request answered;
//   - a client that disconnects mid-stream cancels its request through the
//     engine's cancel path, releasing its KV (acquired == released)
//     and keeping the request-conservation ledger exact — both for real
//     hangups and for ServeFaultInjector-drawn disconnects through the
//     same socket path;
//   - slowloris trickle and idle stalls hit the request deadline (408 or
//     close), and drain finishes in-flight streams before run() returns.
//
// Labelled `net` (and run under ASan/UBSan and TSan in CI): the server is
// single-threaded but the engine's sink callbacks cross threads into
// StreamState, which is exactly what TSan is here to watch.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "nn/decoder.hpp"
#include "runtime/fault.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace {

using namespace edgellm;
using edgellm::testing::tiny_config;

// --- tiny blocking client ---------------------------------------------------

/// A deliberately separate HTTP client: the test must not read the server's
/// output with the server's own parser.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() { close(); }

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send_raw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool post(const std::string& target, const std::string& body) {
    return send_raw("POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  bool get(const std::string& target) {
    return send_raw("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  }

  /// Blocks until `buf_` holds `needle`; false on EOF.
  bool read_until(const std::string& needle) {
    while (buf_.find(needle) == std::string::npos) {
      if (!read_more()) return false;
    }
    return true;
  }

  bool read_more() {
    char tmp[4096];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  /// Reads until EOF (server closed); returns everything seen.
  std::string drain() {
    while (read_more()) {
    }
    return buf_;
  }

  struct Response {
    bool ok = false;  ///< head + body fully parsed
    int status = 0;
    std::string head;
    std::string body;  ///< dechunked when chunked
  };

  /// Parses one full response off the stream (Content-Length or chunked).
  Response response() {
    Response r;
    if (!read_until("\r\n\r\n")) return r;
    const size_t head_end = buf_.find("\r\n\r\n") + 4;
    r.head = buf_.substr(0, head_end);
    buf_.erase(0, head_end);
    if (r.head.rfind("HTTP/1.1 ", 0) != 0) return r;
    r.status = std::atoi(r.head.c_str() + 9);
    if (r.head.find("Transfer-Encoding: chunked") != std::string::npos) {
      while (true) {
        if (!read_until("\r\n")) return r;
        const long sz = std::strtol(buf_.c_str(), nullptr, 16);
        buf_.erase(0, buf_.find("\r\n") + 2);
        if (sz < 0) return r;
        while (buf_.size() < static_cast<size_t>(sz) + 2) {
          if (!read_more()) return r;
        }
        if (sz == 0) {
          buf_.erase(0, 2);
          break;
        }
        r.body.append(buf_, 0, static_cast<size_t>(sz));
        buf_.erase(0, static_cast<size_t>(sz) + 2);
      }
    } else {
      const size_t cl_at = r.head.find("Content-Length: ");
      if (cl_at == std::string::npos) return r;
      const long cl = std::strtol(r.head.c_str() + cl_at + 16, nullptr, 10);
      while (buf_.size() < static_cast<size_t>(cl)) {
        if (!read_more()) return r;
      }
      r.body = buf_.substr(0, static_cast<size_t>(cl));
      buf_.erase(0, static_cast<size_t>(cl));
    }
    r.ok = true;
    return r;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// Token ids out of a streamed x-ndjson body (every line but the last).
std::vector<int64_t> streamed_tokens(const std::string& body) {
  std::vector<int64_t> toks;
  size_t at = 0;
  std::vector<std::string> lines;
  while (at < body.size()) {
    const size_t nl = body.find('\n', at);
    if (nl == std::string::npos) break;
    lines.push_back(body.substr(at, nl - at));
    at = nl + 1;
  }
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    const size_t t = lines[i].find("\"token\": ");
    EXPECT_NE(t, std::string::npos) << lines[i];
    if (t != std::string::npos) toks.push_back(std::atoll(lines[i].c_str() + t + 9));
  }
  return toks;
}

std::string final_line(const std::string& body) {
  const size_t last_nl = body.find_last_of('\n', body.size() - 2);
  return body.substr(last_nl == std::string::npos ? 0 : last_nl + 1);
}

// --- harness ----------------------------------------------------------------

/// Model + engine + server on a background thread; drains on destruction.
struct Harness {
  explicit Harness(serve::EngineConfig ecfg = {}, net::ServerConfig scfg = {},
                   runtime::ServeFaultInjector* engine_fault = nullptr)
      : model(tiny_config(), rng), engine_cfg(std::move(ecfg)) {
    engine_cfg.fault = engine_fault;
    engine = std::make_unique<serve::ServeEngine>(model, engine_cfg);
    server = std::make_unique<net::HttpServer>(*engine, scfg);
    thread = std::thread([this] { server->run(); });
  }

  ~Harness() { stop(); }

  void stop() {
    if (thread.joinable()) {
      server->begin_drain();
      thread.join();
      engine->shutdown();
    }
  }

  int port() const { return server->port(); }

  Rng rng{40};
  nn::CausalLm model;
  serve::EngineConfig engine_cfg;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<net::HttpServer> server;
  std::thread thread;
};

std::vector<int64_t> reference_greedy(nn::CausalLm& model, const std::vector<int64_t>& prompt,
                                      int64_t n_new) {
  nn::IncrementalDecoder dec(model, 0);
  nn::GenerateConfig g;
  g.max_new_tokens = n_new;
  g.temperature = 0.0f;
  Rng r(0);
  return dec.generate(prompt, g, r);
}

std::string completion_body(int64_t id, const std::vector<int64_t>& prompt, int64_t n_new) {
  std::string b = "{\"id\": " + std::to_string(id) + ", \"prompt\": [";
  for (size_t i = 0; i < prompt.size(); ++i) {
    if (i > 0) b += ", ";
    b += std::to_string(prompt[i]);
  }
  return b + "], \"max_new_tokens\": " + std::to_string(n_new) + ", \"temperature\": 0.0}";
}

// --- tests ------------------------------------------------------------------

TEST(NetHttp, StreamedGreedyMatchesReference) {
  Harness h;
  const std::vector<int64_t> prompt = {1, 2, 3};
  const std::vector<int64_t> want = reference_greedy(h.model, prompt, 6);

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.post("/v1/completions", completion_body(7, prompt, 6)));
  const Client::Response r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_EQ(streamed_tokens(r.body), want);
  // The final chunk is the same completion object the JSONL mode prints.
  const std::string fin = final_line(r.body);
  EXPECT_NE(fin.find("\"id\": 7"), std::string::npos) << fin;
  EXPECT_NE(fin.find("\"status\": \"ok\""), std::string::npos) << fin;
  for (const int64_t t : want) {
    EXPECT_NE(fin.find(std::to_string(t)), std::string::npos);
  }
}

TEST(NetHttp, KeepAliveServesSequentialRequests) {
  Harness h;
  Client c(h.port());
  ASSERT_TRUE(c.connected());
  for (int64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(c.post("/v1/completions", completion_body(id, {2, 4}, 4)));
    const Client::Response r = c.response();
    ASSERT_TRUE(r.ok) << "request " << id;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(streamed_tokens(r.body).size(), 4u);
  }
}

TEST(NetHttp, HealthzAndMetrics) {
  Harness h;
  Client c(h.port());
  ASSERT_TRUE(c.get("/healthz"));
  Client::Response r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"ok\""), std::string::npos);

  ASSERT_TRUE(c.get("/metrics"));
  r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("net/accepted"), std::string::npos);

  ASSERT_TRUE(c.get("/metrics?format=csv"));
  r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body.rfind("kind,name,value", 0), 0u);
}

TEST(NetHttp, ErrorStatuses) {
  Harness h;
  {
    Client c(h.port());
    ASSERT_TRUE(c.get("/nope"));
    const Client::Response r = c.response();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.status, 404);
  }
  {
    Client c(h.port());
    ASSERT_TRUE(c.get("/v1/completions"));
    const Client::Response r = c.response();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.status, 405);
  }
  {
    // Shared validation with the JSONL front: same parser, same rejection.
    Client c(h.port());
    ASSERT_TRUE(c.post("/v1/completions", "{\"prompt\": \"not an array\"}"));
    const Client::Response r = c.response();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.body.find("\"error\""), std::string::npos);
  }
  {
    // A framing-level parse failure answers and then hangs up.
    Client c(h.port());
    ASSERT_TRUE(c.send_raw("POST /v1/completions HTTP/1.1\r\nContent-Length: 3\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"));
    const Client::Response r = c.response();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(r.head.find("Connection: close"), std::string::npos);
  }
}

TEST(NetHttp, OverloadShedsWithStructured429) {
  serve::EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.max_batch = 1;
  ecfg.queue_capacity = 4;
  ecfg.admission.shed_policy = serve::ShedPolicy::kRejectNew;
  ecfg.admission.shed_queue_ratio = 0.25;  // shed past depth 1
  Harness h(ecfg);

  // 2x-ish overload: far more concurrent requests than a 1-slot batch with
  // a shed-at-1 queue can hold. Every client must still get an answer.
  constexpr int kClients = 12;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client c(h.port());
      ASSERT_TRUE(c.connected());
      ASSERT_TRUE(c.post("/v1/completions", completion_body(100 + i, {1, 2}, 8)));
      const Client::Response r = c.response();
      ASSERT_TRUE(r.ok) << "client " << i << " got no complete response";
      if (r.status == 200) {
        ++ok;
      } else if (r.status == 429 || r.status == 503) {
        // Structured shed: the completion object (with the shed reason)
        // comes back as the JSON body.
        EXPECT_NE(r.body.find("\"status\""), std::string::npos) << r.body;
        ++shed;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0) << "overload never engaged the shed policy over HTTP";
  EXPECT_EQ(ok.load() + shed.load(), kClients);

  h.stop();
  const serve::EngineMetrics m = h.engine->metrics();
  EXPECT_EQ(m.submitted,
            m.completed + m.rejected + m.cancelled + m.timed_out + m.shed + m.expired + m.failed);
  const obs::MetricsSnapshot snap = h.engine->registry().snapshot();
  EXPECT_EQ(snap.counter("kv/acquired"), snap.counter("kv/released"));
}

TEST(NetHttp, ClientDisconnectMidStreamCancels) {
  // Worker stalls stretch each decode tick so the client's hangup reliably
  // lands while its stream is in flight.
  runtime::ServeFaultPlan plan;
  plan.worker_stall_prob = 1.0;
  plan.worker_stall_ms = 15.0;
  runtime::ServeFaultInjector fault(plan);
  serve::EngineConfig ecfg;
  ecfg.threads = 1;
  Harness h(ecfg, {}, &fault);

  {
    Client c(h.port());
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.post("/v1/completions", completion_body(1, {1, 2, 3}, 12)));
    // Wait for the stream head + at least one token chunk, then vanish.
    ASSERT_TRUE(c.read_until("\"token\""));
    c.close();
  }

  // The hangup must cancel through the engine (slot freed at next tick),
  // and drain must wait out the cancelled future.
  h.stop();
  const serve::EngineMetrics m = h.engine->metrics();
  EXPECT_GE(m.cancelled, 1);
  EXPECT_EQ(m.submitted,
            m.completed + m.rejected + m.cancelled + m.timed_out + m.shed + m.expired + m.failed);
  const obs::MetricsSnapshot snap = h.engine->registry().snapshot();
  EXPECT_EQ(snap.counter("kv/acquired"), snap.counter("kv/released"));
  EXPECT_GE(snap.counter("net/client_disconnects"), 1);
}

TEST(NetHttp, InjectedDisconnectsThroughSocketPath) {
  // ServeFaultInjector wired into the *server*: disconnect faults fire on
  // the real socket path (hard close mid-stream), exercising the same
  // cancel/KV-release machinery as a genuine vanished client. Worker
  // stalls (same injector, engine side) keep the decode in flight long
  // enough that the cancel observably lands before completion.
  // Separate injectors: the engine only stalls (the disconnect_prob draw
  // must not fire inside the scheduler, where it would cancel before any
  // token ever reaches a socket).
  runtime::ServeFaultPlan disconnect_plan;
  disconnect_plan.disconnect_prob = 1.0;
  runtime::ServeFaultInjector socket_fault(disconnect_plan);
  runtime::ServeFaultPlan stall_plan;
  stall_plan.worker_stall_prob = 1.0;
  stall_plan.worker_stall_ms = 15.0;
  runtime::ServeFaultInjector engine_fault(stall_plan);
  net::ServerConfig scfg;
  scfg.fault = &socket_fault;
  serve::EngineConfig ecfg;
  ecfg.threads = 1;
  Harness h(ecfg, scfg, &engine_fault);

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.post("/v1/completions", completion_body(1, {1, 2}, 8)));
  // The injected disconnect truncates the stream: EOF, no final chunk.
  const std::string seen = c.drain();
  EXPECT_EQ(seen.find("\"status\": \"ok\""), std::string::npos);

  h.stop();
  const serve::EngineMetrics m = h.engine->metrics();
  EXPECT_GE(m.cancelled, 1);
  EXPECT_EQ(m.submitted,
            m.completed + m.rejected + m.cancelled + m.timed_out + m.shed + m.expired + m.failed);
  const obs::MetricsSnapshot snap = h.engine->registry().snapshot();
  EXPECT_EQ(snap.counter("kv/acquired"), snap.counter("kv/released"));
  EXPECT_GE(snap.counter("net/injected_disconnects"), 1);
  EXPECT_GE(socket_fault.disconnects(), 1);
}

TEST(NetHttp, SlowlorisHitsRequestDeadline) {
  net::ServerConfig scfg;
  scfg.idle_timeout_ms = 150.0;
  Harness h({}, scfg);

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  // Trickle a request that never finishes; the deadline runs from the
  // first byte, so this must come back 408 and close.
  ASSERT_TRUE(c.send_raw("POST /v1/completions HTTP/1.1\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(c.send_raw("Content-Length: 10\r\n"));
  const Client::Response r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 408);
  EXPECT_NE(r.head.find("Connection: close"), std::string::npos);

  h.stop();
  const obs::MetricsSnapshot snap = h.engine->registry().snapshot();
  EXPECT_GE(snap.counter("net/timeouts"), 1);
}

TEST(NetHttp, IdleKeepAliveConnectionIsReaped) {
  net::ServerConfig scfg;
  scfg.idle_timeout_ms = 100.0;
  Harness h({}, scfg);

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.get("/healthz"));
  ASSERT_TRUE(c.response().ok);
  // Now idle past the deadline: the server must close (EOF), not leak the
  // session forever.
  char tmp[16];
  const ssize_t n = ::recv(c.fd(), tmp, sizeof(tmp), 0);
  EXPECT_EQ(n, 0);
}

TEST(NetHttp, DrainFinishesInFlightStreamsAndRefusesNew) {
  runtime::ServeFaultPlan plan;
  plan.worker_stall_prob = 1.0;
  plan.worker_stall_ms = 10.0;
  runtime::ServeFaultInjector fault(plan);
  serve::EngineConfig ecfg;
  ecfg.threads = 1;
  Harness h(ecfg, {}, &fault);
  const std::vector<int64_t> want = reference_greedy(h.model, {1, 2, 3}, 8);

  Client c(h.port());
  ASSERT_TRUE(c.connected());
  ASSERT_TRUE(c.post("/v1/completions", completion_body(5, {1, 2, 3}, 8)));
  ASSERT_TRUE(c.read_until("\"token\""));  // stream is live

  h.server->begin_drain();
  // The in-flight stream must complete — correctly — while new work is
  // refused at the (now closed) listener.
  const Client::Response r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(streamed_tokens(r.body), want);
  EXPECT_NE(final_line(r.body).find("\"status\": \"ok\""), std::string::npos);

  h.thread.join();
  h.engine->shutdown();
  Client late(h.port());
  EXPECT_FALSE(late.connected());

  const serve::EngineMetrics m = h.engine->metrics();
  EXPECT_EQ(m.completed, 1);
  const obs::MetricsSnapshot snap = h.engine->registry().snapshot();
  EXPECT_EQ(snap.counter("kv/acquired"), snap.counter("kv/released"));
}

TEST(NetHttp, PipelinedRequestsAnswerInOrder) {
  Harness h;
  Client c(h.port());
  ASSERT_TRUE(c.connected());
  // Two completions back to back in one write; responses must come back in
  // order, each a complete stream.
  std::string wire;
  for (int64_t id = 1; id <= 2; ++id) {
    const std::string body = completion_body(id, {3, 1}, 3);
    wire += "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
  }
  ASSERT_TRUE(c.send_raw(wire));
  for (int64_t id = 1; id <= 2; ++id) {
    const Client::Response r = c.response();
    ASSERT_TRUE(r.ok) << "pipelined response " << id;
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(final_line(r.body).find("\"id\": " + std::to_string(id)), std::string::npos);
  }
}

TEST(NetHttp, ExpectContinueInterjected) {
  Harness h;
  Client c(h.port());
  ASSERT_TRUE(c.connected());
  const std::string body = completion_body(9, {2, 2}, 2);
  ASSERT_TRUE(c.send_raw("POST /v1/completions HTTP/1.1\r\nExpect: 100-continue\r\n"
                         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n"));
  // Interim response first...
  Client::Response r100 = c.response();
  ASSERT_TRUE(r100.head.rfind("HTTP/1.1 100", 0) == 0) << r100.head;
  // ...then the body, then the real streamed response.
  ASSERT_TRUE(c.send_raw(body));
  const Client::Response r = c.response();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
}

}  // namespace
