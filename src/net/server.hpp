// The network front door: a single-threaded, poll-based HTTP/1.1 server in
// front of a serve::ServeEngine.
//
//   POST /v1/completions   JSON request body (the same schema as the JSONL
//                          wire format, validated by the same parser) ->
//                          chunked streaming response: one JSON line per
//                          token as the engine decodes it, then the final
//                          completion object. Sheds and rejects come back
//                          as structured 429/503 before any stream starts.
//   GET  /metrics          obs registry snapshot, JSON (default) or
//                          ?format=csv.
//   GET  /healthz          200 {"status":"ok"}, 503 {"status":"draining"}
//                          once drain has begun.
//
// Backpressure is end-to-end by construction:
//   - inbound: the engine's bounded queue + AdmissionController decide at
//     submit(); the server never buffers requests it cannot hand over —
//     the shed/reject reason goes straight back as a 429/503 body.
//   - outbound: each connection has a bounded write buffer. A slow client
//     pauses *its own* stream (tokens wait in a per-request deque of
//     int64s, capped by max_new_tokens); the decode batch never stalls.
//   - disconnects cancel: a mid-stream hangup cancels the request through
//     the engine's cancel path, freeing its KV at the next tick.
//   - overload at the socket: past max_connections new peers get an
//     immediate 503 and close, never an unbounded accept backlog.
//
// Graceful drain (SIGTERM / begin_drain()): stop accepting, finish every
// in-flight stream, answer anything else 503, then run() returns so the
// caller can engine.shutdown() and flush metrics. Abuse resistance:
// idle/slowloris request deadlines, hardened parsing (see http.hpp), and
// per-connection caps. All activity lands in the obs registry as net/*
// counters, gauges and latency histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/connection.hpp"
#include "net/listener.hpp"
#include "serve/engine.hpp"

namespace edgellm::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is HttpServer::port()
  int64_t max_connections = 64;
  HttpLimits limits;
  /// One deadline, three guards: keep-alive idle limit, max time for a
  /// request to finish arriving (slowloris), and max time a streaming
  /// client may stall with output pending before it is disconnected.
  double idle_timeout_ms = 30000.0;
  /// Per-connection write buffer cap; token chunks queue in StreamState
  /// beyond it.
  int64_t write_buffer_bytes = 64 * 1024;
  /// Metrics sink for net/* instruments and GET /metrics; null uses the
  /// engine's registry (the usual choice — one scrape sees both layers).
  obs::Registry* registry = nullptr;
  /// Optional fault injection (must outlive the server): disconnect_client
  /// draws fire through the *real* socket path — the server hard-closes
  /// the connection mid-stream exactly as a vanished client would.
  runtime::ServeFaultInjector* fault = nullptr;
};

class HttpServer {
 public:
  /// Binds and listens immediately (throws std::runtime_error on failure);
  /// serving starts when run() is called.
  HttpServer(serve::ServeEngine& engine, ServerConfig cfg);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  int port() const { return listener_.port(); }

  /// Runs the event loop on the calling thread. Returns after a drain
  /// completes: every accepted stream finished (or its client vanished and
  /// the request was cancelled *and observed resolving*), every socket
  /// closed. The engine is left running — callers shut it down after.
  void run();

  /// Thread-safe drain request (tests, embedders). Signal handlers should
  /// instead be routed via install_drain_signals(wake_fd()).
  void begin_drain();

  /// Write end of the self-pipe that wakes the poll loop; safe to write a
  /// byte to from a signal handler or any thread.
  int wake_fd() const { return wake_pipe_[1]; }

  /// Connections currently open (event-loop owned; approximate from other
  /// threads).
  int64_t open_connections() const { return n_open_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  void wake();
  void accept_new(Clock::time_point now);
  /// Returns false when the connection died and must be destroyed.
  bool handle_readable(Connection& c, Clock::time_point now);
  bool handle_writable(Connection& c, Clock::time_point now);
  bool dispatch_request(Connection& c, Clock::time_point now);
  void dispatch_completions(Connection& c, Clock::time_point now);
  /// Moves decoded tokens / the terminal into the write buffer. Returns
  /// false when the connection must close (injected disconnect).
  bool advance_stream(Connection& c, Clock::time_point now);
  void finish_response(Connection& c, int status, Clock::time_point now);
  void queue_error(Connection& c, int status, const std::string& message, bool keep_alive);
  bool check_deadlines(Connection& c, Clock::time_point now);
  /// Cancels any in-flight request and parks its future for reaping.
  void abandon_stream(Connection& c);
  void destroy(std::unique_ptr<Connection> c, Clock::time_point now);
  double next_deadline_ms(Clock::time_point now) const;

  serve::ServeEngine& engine_;
  ServerConfig cfg_;
  obs::Registry& reg_;
  Listener listener_;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  std::atomic<int64_t> n_open_{0};
  int64_t next_conn_id_ = 1;
  int64_t next_auto_req_id_ = 0;
  std::vector<std::unique_ptr<Connection>> conns_;
  /// Futures of requests whose connection died first; drained before run()
  /// returns so no engine callback can outlive the server.
  std::vector<std::future<serve::Completion>> zombies_;

  // net/* instruments (all in reg_).
  obs::Counter& c_accepted_;
  obs::Counter& c_over_capacity_;
  obs::Counter& c_requests_;
  obs::Counter& c_resp_2xx_;
  obs::Counter& c_resp_4xx_;
  obs::Counter& c_resp_5xx_;
  obs::Counter& c_shed_429_;
  obs::Counter& c_unavailable_503_;
  obs::Counter& c_disconnects_;
  obs::Counter& c_injected_disconnects_;
  obs::Counter& c_timeouts_;
  obs::Counter& c_bytes_in_;
  obs::Counter& c_bytes_out_;
  obs::Counter& c_tokens_streamed_;
  obs::Gauge& g_connections_;
  obs::Gauge& g_streams_;
  obs::Histogram& h_request_ms_;    ///< request parsed -> response flushed
  obs::Histogram& h_conn_life_ms_;  ///< accept -> close
};

}  // namespace edgellm::net
