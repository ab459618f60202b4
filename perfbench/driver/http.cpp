// `http_prefix`: drives `edgellm_cli serve --listen` on loopback from one
// single-threaded client over kConnections keep-alive connections, each a
// closed loop. Prompts are long — a few shared prefixes plus a suffix drawn
// anew for every request, so no prompt repeats — and outputs short. Paged
// KV runs under a byte budget small enough to force eviction, and
// GET /metrics is scraped every kScrapeEvery completions, while the other
// connections stream.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/http.hpp"
#include "nn/serialize.hpp"
#include "workloads.hpp"

namespace pb {

using namespace edgellm;

namespace {

constexpr int kConnections = 4;
constexpr int64_t kPrefixes = 4;
/// Requests per round. Every request needs a fresh reference decode (about
/// 30 ms, untimed) against about 6 ms of serving, so rounds are kept small
/// to give a run many of them.
constexpr int64_t kPool = 16;
constexpr int64_t kPrefixLen = 22;
constexpr int64_t kSuffixLen = 10;
constexpr int64_t kNewTokens = 6;
constexpr int64_t kBlockTokens = 4;
constexpr int64_t kKvBudget = 1 << 20;  ///< bytes; forces eviction of cached blocks
constexpr int64_t kScrapeEvery = 8;     ///< completions per GET /metrics; divides kPool

/// The launched server; killed and reaped on every exit path.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& err_path) {
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 2);
        close(fd);
      }
      const int devnull = open("/dev/null", O_RDWR);
      if (devnull >= 0) {
        dup2(devnull, 0);
        dup2(devnull, 1);
        close(devnull);
      }
      std::vector<char*> args;
      for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool alive() const {
    if (pid_ <= 0) return false;
    int status = 0;
    return waitpid(pid_, &status, WNOHANG) == 0;
  }

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; returns the exit
  /// status, or -1 when the process had to be killed.
  int stop() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }

 private:
  pid_t pid_ = -1;
};

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("http_prefix: send failed");
    off += static_cast<size_t>(n);
  }
}

/// Incremental parser for the responses this server sends: a status line,
/// headers, then a Content-Length or chunked body. Chunk payloads are
/// handed out as they complete.
class ResponseReader {
 public:
  void reset() {
    buf_.clear();
    state_ = kHead;
    status_ = 0;
    chunked_ = false;
    remaining_ = 0;
    body_.clear();
    chunks_.clear();
  }
  void feed(const char* data, size_t n) { buf_.append(data, n); }

  /// Advances over buffered bytes; returns true once the response is whole.
  bool advance() {
    for (;;) {
      if (state_ == kHead) {
        const size_t end = buf_.find("\r\n\r\n");
        if (end == std::string::npos) return false;
        const std::string head = buf_.substr(0, end);
        buf_.erase(0, end + 4);
        if (head.rfind("HTTP/1.1 ", 0) != 0) throw std::runtime_error("http_prefix: bad status line");
        status_ = std::stoi(head.substr(9, 3));
        std::string lower = head;
        std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
        chunked_ = lower.find("transfer-encoding: chunked") != std::string::npos;
        if (!chunked_) {
          const size_t cl = lower.find("content-length: ");
          if (cl == std::string::npos) throw std::runtime_error("http_prefix: no body framing");
          remaining_ = std::stoll(lower.substr(cl + 16));
        }
        state_ = chunked_ ? kChunkSize : kBody;
      } else if (state_ == kBody) {
        const size_t take = std::min<size_t>(buf_.size(), static_cast<size_t>(remaining_));
        body_.append(buf_, 0, take);
        buf_.erase(0, take);
        remaining_ -= static_cast<int64_t>(take);
        if (remaining_ > 0) return false;
        state_ = kDone;
        return true;
      } else if (state_ == kChunkSize) {
        const size_t eol = buf_.find("\r\n");
        if (eol == std::string::npos) return false;
        remaining_ = std::stoll(buf_.substr(0, eol), nullptr, 16);
        buf_.erase(0, eol + 2);
        state_ = remaining_ == 0 ? kTrailer : kChunkData;
      } else if (state_ == kChunkData) {
        if (static_cast<int64_t>(buf_.size()) < remaining_ + 2) return false;
        chunks_.push_back(buf_.substr(0, static_cast<size_t>(remaining_)));
        body_ += chunks_.back();
        buf_.erase(0, static_cast<size_t>(remaining_) + 2);
        state_ = kChunkSize;
      } else if (state_ == kTrailer) {
        if (buf_.size() < 2) return false;
        if (buf_.compare(0, 2, "\r\n") != 0) throw std::runtime_error("http_prefix: trailers unsupported");
        buf_.erase(0, 2);
        state_ = kDone;
        return true;
      } else {
        return true;
      }
    }
  }

  int status() const { return status_; }
  const std::string& body() const { return body_; }
  /// Chunks completed since the last call.
  std::vector<std::string> take_chunks() { return std::exchange(chunks_, {}); }
  bool leftover() const { return !buf_.empty(); }

 private:
  enum State { kHead, kBody, kChunkSize, kChunkData, kTrailer, kDone };
  std::string buf_;
  State state_ = kHead;
  int status_ = 0;
  bool chunked_ = false;
  int64_t remaining_ = 0;
  std::string body_;
  std::vector<std::string> chunks_;
};

/// Number after `"key": ` in a JSON text (searching from `from`); NaN if absent.
double json_num(const std::string& text, const std::string& key, size_t from = 0) {
  const std::string pat = "\"" + key + "\": ";
  const size_t at = text.find(pat, from);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + pat.size(), nullptr);
}

std::vector<int64_t> json_int_list(const std::string& text, const std::string& key) {
  std::vector<int64_t> out;
  const size_t at = text.find("\"" + key + "\": [");
  if (at == std::string::npos) return out;
  const char* p = text.c_str() + at + key.size() + 5;
  while (*p && *p != ']') {
    char* end = nullptr;
    const long long v = std::strtoll(p, &end, 10);
    if (end == p) break;
    out.push_back(v);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

std::string http_get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string http_post_completion(int64_t id, const std::vector<int64_t>& prompt) {
  std::string body = "{\"id\": " + std::to_string(id) + ", \"prompt\": [";
  for (size_t i = 0; i < prompt.size(); ++i) body += (i ? ", " : "") + std::to_string(prompt[i]);
  body += "], \"max_new_tokens\": " + std::to_string(kNewTokens) + "}";
  return "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Blocking request/response on one connection (set-up, scrapes).
ResponseReader round_trip(int fd, const std::string& request) {
  ResponseReader rr;
  send_all(fd, request);
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n <= 0) throw std::runtime_error("http_prefix: connection closed mid-response");
    rr.feed(buf, static_cast<size_t>(n));
    if (rr.advance()) return rr;
  }
}

std::vector<std::string> server_argv(const Options& opt, const std::string& model_path) {
  return {opt.cli, "serve", "--in", model_path, "--listen", "127.0.0.1:0", "--threads", "1",
          "--compute-threads", "1", "--batch", "8", "--queue", "64", "--kv-paged", "1",
          "--kv-block-tokens", std::to_string(kBlockTokens), "--kv-budget", std::to_string(kKvBudget),
          "--max-connections", "16"};
}

/// Waits until the server behind `err_path` (its standard error) prints its
/// port and answers GET /healthz with 200; returns that connection.
int wait_healthy(const ServerProcess& server, const std::string& err_path, int& port) {
  port = -1;
  int fd = -1;
  for (int attempt = 0; attempt < 60000; ++attempt) {
    if (!server.alive()) throw std::runtime_error("http_prefix: server exited during start-up");
    if (port < 0) {
      // The server prints "listening on host:port\n" in several writes: only
      // a line with its newline is whole.
      const std::string err = file_exists(err_path) ? read_file(err_path) : std::string();
      const size_t at = err.find("listening on ");
      const size_t eol = at == std::string::npos ? at : err.find('\n', at);
      if (eol != std::string::npos) port = std::stoi(err.substr(err.rfind(':', eol) + 1));
    }
    if (port > 0 && fd < 0) fd = connect_loopback(port);
    if (fd >= 0 && round_trip(fd, http_get("/healthz")).status() == 200) return fd;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("http_prefix: server never became healthy");
}

/// One cold set-up: a second server started until GET /healthz answers
/// 200 (timed), then stopped.
double time_server_start(const std::vector<std::string>& argv, const std::string& err_path) {
  std::filesystem::remove(err_path);  // never read an earlier server's port
  const Clock::time_point t0 = Clock::now();
  ServerProcess server(argv, err_path);
  int port = -1;
  const int fd = wait_healthy(server, err_path, port);
  const double ms = ms_between(t0, Clock::now());
  close(fd);
  if (server.stop() != 0) throw std::runtime_error("http_prefix: set-up server did not exit cleanly");
  return ms;
}

/// Length of the longest common prefix of `p` with any element of the
/// sorted set: one of its lexicographic neighbours attains it.
int64_t longest_shared_prefix(const std::set<std::vector<int64_t>>& sorted, const std::vector<int64_t>& p) {
  auto lcp = [&p](const std::vector<int64_t>& q) {
    int64_t k = 0;
    while (k < static_cast<int64_t>(std::min(p.size(), q.size())) && p[static_cast<size_t>(k)] == q[static_cast<size_t>(k)]) ++k;
    return k;
  };
  int64_t best = 0;
  const auto it = sorted.lower_bound(p);
  if (it != sorted.end()) best = lcp(*it);
  if (it != sorted.begin()) best = std::max(best, lcp(*std::prev(it)));
  return best;
}

struct Conn {
  int fd = -1;
  int64_t req = -1;  ///< pool index in flight, -1 when idle
  bool scraping = false;  ///< a GET /metrics is in flight instead
  Clock::time_point write_t;
  std::vector<Clock::time_point> token_t;
  ResponseReader rr;
};

}  // namespace

Result run_http_prefix(const Options& opt, LayerValues& layers) {
  Result r;
  Probe probe;
  const std::string path = ensure_serve_model(opt);
  const std::string scratch = opt.work_dir + "/scratch";
  std::filesystem::create_directories(scratch);
  const std::vector<std::string> argv = server_argv(opt, path);

  // The server the rounds drive. Its start is not timed: every round times
  // the start of a second server instead (see time_server_start).
  const std::string err_path = scratch + "/http_prefix_server.err";
  std::filesystem::remove(err_path);  // never read a previous run's port
  ServerProcess server(argv, err_path);
  int port = -1;
  const int first_fd = wait_healthy(server, err_path, port);
  const std::string setup_err_path = scratch + "/http_prefix_setup.err";
  std::vector<double> setup_ms;

  auto ref_model = nn::load_model_with_config(path);
  const data::MarkovChain domain = make_domain(kTargetShift);
  Rng rng(mix_seed(opt.seed, 6));
  std::vector<std::vector<int64_t>> prefixes;
  for (int64_t p = 0; p < kPrefixes; ++p) prefixes.push_back(domain.sample(kPrefixLen, rng));
  std::set<std::vector<int64_t>> sent;  // every prompt of the run so far, sorted
  std::vector<std::vector<int64_t>> prompts(kPool), expected;

  std::vector<Conn> conns(kConnections);
  conns[0].fd = first_fd;
  for (int c = 1; c < kConnections; ++c) {
    conns[static_cast<size_t>(c)].fd = connect_loopback(port);
    if (conns[static_cast<size_t>(c)].fd < 0) throw std::runtime_error("http_prefix: connect failed");
  }

  std::vector<double> ttft, itl, latency, per_token, scrape_ms, queue_ms;
  std::vector<double> ttft_all, latency_all;
  std::vector<std::string> sent_requests;  // one round's bytes, for net.parse_us
  int64_t client_tokens = 0, prompt_tokens = 0, shareable = 0;
  int64_t bad_status = 0, mismatches = 0, count_mismatch = 0;
  std::string last_metrics;
  char buf[65536];

  const Clock::time_point run_t0 = Clock::now();
  for (int64_t round = 0;; ++round) {
    if (round > 0 && ms_between(run_t0, Clock::now()) >= opt.seconds * 1000.0) break;
    // Untimed: this round's prompts — each shared prefix in turn plus a
    // fresh suffix, distinct from every prompt sent before — the prompt
    // tokens the prefix cache could share (each prompt's longest common
    // prefix with any earlier prompt), and the reference outputs.
    for (int64_t i = 0; i < kPool; ++i) {
      std::vector<int64_t> p;
      do {
        p = prefixes[static_cast<size_t>(i % kPrefixes)];
        const std::vector<int64_t> suffix = domain.sample(kSuffixLen, rng);
        p.insert(p.end(), suffix.begin(), suffix.end());
      } while (sent.contains(p));
      shareable += longest_shared_prefix(sent, p);
      prompt_tokens += static_cast<int64_t>(p.size());
      sent.insert(p);
      prompts[static_cast<size_t>(i)] = std::move(p);
    }
    {
      const Span span("reference.decode");
      expected = reference_greedy(*ref_model, prompts, kNewTokens, Policy::kFinal);
    }
    setup_ms.push_back(time_server_start(argv, setup_err_path));

    probe.run(kProbeReps);
    std::vector<double> r_ttft, r_itl, r_lat;
    int64_t next = 0, completed = 0, round_tokens = 0;
    const Clock::time_point round_t0 = Clock::now();
    auto dispatch = [&](Conn& c) {
      if (next >= kPool) return;
      const int64_t i = next++;
      const std::string req = http_post_completion(round * kPool + i + 1, prompts[static_cast<size_t>(i)]);
      if (round == 0) sent_requests.push_back(req);
      c.req = i;
      c.token_t.clear();
      c.rr.reset();
      c.write_t = Clock::now();
      send_all(c.fd, req);
    };
    auto scraping = [&] {
      return std::any_of(conns.begin(), conns.end(), [](const Conn& c) { return c.scraping; });
    };
    for (Conn& c : conns) dispatch(c);
    while (completed < kPool || scraping()) {
      std::vector<pollfd> pfds;
      for (const Conn& c : conns) pfds.push_back({c.fd, POLLIN, 0});
      if (poll(pfds.data(), pfds.size(), 30000) <= 0) throw std::runtime_error("http_prefix: response timeout");
      for (size_t k = 0; k < conns.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns[k];
        const ssize_t n = recv(c.fd, buf, sizeof buf, 0);
        if (n <= 0 || (c.req < 0 && !c.scraping)) throw std::runtime_error("http_prefix: connection closed by server");
        const Clock::time_point now = Clock::now();
        c.rr.feed(buf, static_cast<size_t>(n));
        const bool whole = c.rr.advance();
        if (c.scraping) {
          if (!whole) continue;
          scrape_ms.push_back(ms_between(c.write_t, now));
          if (spans().enabled()) spans().record("obs.metrics_scrape", c.write_t, now);
          r.check(c.rr.status() == 200, "http_prefix: GET /metrics did not answer 200");
          last_metrics = c.rr.body();
          c.scraping = false;
          dispatch(c);
          continue;
        }
        for (const std::string& chunk : c.rr.take_chunks()) {
          if (chunk.find("\"token\": ") != std::string::npos) c.token_t.push_back(now);
        }
        if (!whole) continue;
        // One response done: check it, then send this connection's next.
        const std::string& body = c.rr.body();
        const size_t done_at = body.find("\"status\": ");
        const bool ok = c.rr.status() == 200 && done_at != std::string::npos &&
                        body.compare(done_at + 10, 4, "\"ok\"") == 0 && !c.rr.leftover();
        if (!ok) {
          ++bad_status;
        } else {
          const std::string final_line = body.substr(body.rfind("{\"id\"", done_at));
          const std::vector<int64_t> toks = json_int_list(final_line, "tokens");
          if (toks != expected[static_cast<size_t>(c.req)]) ++mismatches;
          if (static_cast<int64_t>(c.token_t.size()) != static_cast<int64_t>(toks.size())) ++count_mismatch;
          queue_ms.push_back(json_num(final_line, "queue_ms"));
        }
        r.attempted += 1;
        client_tokens += static_cast<int64_t>(c.token_t.size());
        round_tokens += static_cast<int64_t>(c.token_t.size());
        if (!c.token_t.empty()) {
          r_ttft.push_back(ms_between(c.write_t, c.token_t.front()));
          r_lat.push_back(ms_between(c.write_t, c.token_t.back()));
          std::vector<double> gaps;
          for (size_t t = 1; t < c.token_t.size(); ++t) gaps.push_back(ms_between(c.token_t[t - 1], c.token_t[t]));
          r_itl.push_back(median(gaps));
        }
        ++completed;
        c.req = -1;
        if (completed % kScrapeEvery == 0) {
          // The round's last scrape starts once every response is in, so
          // the last round's last scrape sees the run's totals.
          c.scraping = true;
          c.rr.reset();
          c.write_t = Clock::now();
          send_all(c.fd, http_get("/metrics"));
        } else {
          dispatch(c);
        }
      }
    }
    const Clock::time_point round_t1 = Clock::now();
    probe.run(kProbeReps);

    ttft_all.insert(ttft_all.end(), r_ttft.begin(), r_ttft.end());
    latency_all.insert(latency_all.end(), r_lat.begin(), r_lat.end());
    ttft.push_back(median(r_ttft));
    itl.push_back(median(r_itl));
    latency.push_back(median(r_lat));
    per_token.push_back(ms_between(round_t0, round_t1) / static_cast<double>(std::max<int64_t>(1, round_tokens)));
  }

  // Totals from the last scrape, sent after every response had completed.
  const double hit_tokens = json_num(last_metrics, "kv/prefix_hit_tokens");
  const double generated = json_num(last_metrics, "serve/tokens_generated");
  const double committed = json_num(last_metrics, "kv/committed_bytes");
  const double blocks_in_use = json_num(last_metrics, "kv/blocks_in_use");
  const double blocks_cached = json_num(last_metrics, "kv/blocks_cached");
  const double streams = json_num(last_metrics, "net/active_streams");

  for (Conn& c : conns) close(c.fd);
  const int server_exit = server.stop();

  r.check(bad_status == 0, "http_prefix: " + std::to_string(bad_status) + " response(s) not a 200 with status ok");
  r.check(mismatches == 0,
          "http_prefix: " + std::to_string(mismatches) + " completion(s) differ from the reference decoder");
  r.check(count_mismatch == 0, "http_prefix: streamed token lines differ from the completion's tokens");
  r.check(static_cast<double>(client_tokens) == generated,
          "http_prefix: client token count differs from serve/tokens_generated");
  r.check(hit_tokens > 0 && hit_tokens <= static_cast<double>(shareable),
          "http_prefix: kv/prefix_hit_tokens not in (0, shareable prompt tokens]");
  // Paged KV keeps finished sequences' blocks as prefix cache: after drain
  // nothing may stay committed, and every block in use must be a cached one.
  r.check(committed == 0 && blocks_in_use == blocks_cached && streams == 0,
          "http_prefix: KV or streams still held after drain");
  r.check(server_exit == 0, "http_prefix: server did not drain and exit cleanly on SIGTERM");
  r.failed = bad_status;

  const double per_token_low = quantile(per_token, kLowQuantile);
  r.end_to_end(probe, quantile(setup_ms, kLowQuantile), quantile(ttft, kLowQuantile), quantile(itl, kLowQuantile),
               quantile(latency, kLowQuantile), per_token_low);

  r.detail("raw.setup_ms.p10", quantile(setup_ms, kLowQuantile));
  r.detail("raw.setup_ms.median", median(setup_ms));
  r.detail("raw.setups", static_cast<double>(setup_ms.size()));
  r.detail("raw.tokens_per_s.median", 1000.0 / median(per_token));
  r.detail("raw.ttft_ms.median", median(ttft_all));
  r.detail("raw.ttft_ms.p90", quantile(ttft_all, 0.9));
  r.detail("raw.latency_ms.median", median(latency_all));
  r.detail("raw.latency_ms.p90", quantile(latency_all, 0.9));
  r.detail("raw.latency_ms.p99", quantile(latency_all, 0.99));
  r.detail("raw.requests", static_cast<double>(latency_all.size()));
  r.detail("raw.itl_ms.median", median(itl));
  r.detail("raw.rounds", static_cast<double>(per_token.size()));
  r.detail("kv.prefix_hit_tokens", hit_tokens);
  r.detail("kv.shareable_prompt_tokens", static_cast<double>(shareable));
  r.detail("kv.prompt_tokens", static_cast<double>(prompt_tokens));
  r.detail("distinct_prompts", static_cast<double>(sent.size()));
  r.detail("probe_ms.p10", probe.low_ms());
  r.detail("probe_ms.median", median(probe.samples()));

  if (opt.trace) {
    layers["serve.queue_wait_ms"] = median(queue_ms);
    const size_t bs = last_metrics.find("\"serve/batch_size\": ");
    const double ticks = json_num(last_metrics, "count", bs);
    layers["serve.batch_occupancy"] = ticks > 0 ? json_num(last_metrics, "sum", bs) / ticks : 0.0;
    layers["serve.tokens_per_tick"] = ticks > 0 ? generated / ticks : 0.0;
    layers["serve.kv_high_water_bytes"] = json_num(last_metrics, "kv/high_water_bytes");
    layers["serve.kv_prefix_hit_share"] = hit_tokens / static_cast<double>(std::max<int64_t>(1, prompt_tokens));
    layers["serve.kv_evicted_blocks"] = json_num(last_metrics, "kv/evicted_blocks");
    layers["serve.kv_cow_forks"] = json_num(last_metrics, "kv/cow_forks");
    layers["obs.metrics_scrape_ms"] = median(scrape_ms);

    // The recorded request bytes through the server's own parser.
    sent_requests.push_back(http_get("/metrics"));
    net::HttpRequestParser parser;
    bool parsed = true;
    const double ms = time_per_call_ms(
        [&] {
          const Span span("net.parse_round");
          for (const std::string& req : sent_requests) {
            parser.reset();
            parser.feed(req.data(), req.size());
            parsed = parsed && parser.complete();
          }
        },
        20.0);
    r.check(parsed, "http_prefix: net::HttpRequestParser rejected a recorded request");
    layers["net.parse_us"] = ms * 1000.0 / static_cast<double>(sent_requests.size());
  }
  return r;
}

}  // namespace pb
