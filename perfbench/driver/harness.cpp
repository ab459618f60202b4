#include "harness.hpp"

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pb {

namespace {

const Clock::time_point kProcessStart = Clock::now();

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  // splitmix64 over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Probe::run_once() {
  constexpr int kN = 48;
  static std::array<float, kN * kN> a{}, b{}, c{};
  static bool init = false;
  if (!init) {
    for (int i = 0; i < kN * kN; ++i) {
      a[static_cast<size_t>(i)] = static_cast<float>((i * 7) % 13) * 0.01f;
      b[static_cast<size_t>(i)] = static_cast<float>((i * 5) % 11) * 0.01f;
    }
    init = true;
  }
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    c.fill(0.0f);
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float aik = a[static_cast<size_t>(i * kN + k)];
        for (int j = 0; j < kN; ++j) {
          c[static_cast<size_t>(i * kN + j)] += aik * b[static_cast<size_t>(k * kN + j)];
        }
      }
    }
    // Feed the result back so no repetition can be elided.
    a[static_cast<size_t>(rep)] = c[static_cast<size_t>(rep * 31)] * 1e-6f;
  }
  const double ms = ms_between(t0, Clock::now());
  samples_.push_back(ms);
  return ms;
}

Spans& spans() {
  static Spans s;
  return s;
}

void Spans::record(const char* name, Clock::time_point begin, Clock::time_point end) {
  const double ts = std::chrono::duration<double, std::micro>(begin - kProcessStart).count();
  const double dur = std::chrono::duration<double, std::micro>(end - begin).count();
  events_.push_back({name, ts, dur});
  by_name_[name].push_back(dur / 1000.0);
}

const std::vector<double>& Spans::durations(const std::string& name) const {
  static const std::vector<double> kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << "{\"name\": " << json_string(e.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        << "\"ts\": " << json_number(e.ts_us) << ", \"dur\": " << json_number(e.dur_us) << "}"
        << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double time_per_call_ms(const std::function<void()>& fn, double min_ms, int min_reps) {
  std::vector<double> times;
  double total = 0.0;
  while (static_cast<int>(times.size()) < min_reps || total < min_ms) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const double ms = ms_between(t0, Clock::now());
    times.push_back(ms);
    total += ms;
  }
  return median(times);
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

std::string Result::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].first) << ": " << json_number(metrics[i].second);
  }
  out << "}}";
  return out.str();
}

std::string Result::details_json() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < details.size(); ++i) {
    out << (i ? ", " : "") << json_string(details[i].first) << ": "
        << json_number(details[i].second);
  }
  out << "}";
  return out.str();
}

void Result::end_to_end(const Probe& probe, double setup_ms, double first_ms, double step_ms,
                        double latency_ms, double ms_per_token) {
  metric("setup_s", probe.normalise(setup_ms) / 1000.0);
  metric("first_ms", probe.normalise(first_ms));
  metric("step_ms", probe.normalise(step_ms));
  metric("latency_ms", probe.normalise(latency_ms));
  metric("tokens_per_s", 1000.0 / probe.normalise(ms_per_token));
}

double cold_setup_ms(const Options& opt) {
  const std::vector<std::string> argv = {opt.exe,      "--workload", opt.workload,
                                         "--seed",     std::to_string(opt.seed),
                                         "--seconds",  "1",
                                         "--trace",    "0",
                                         "--cli",      opt.cli,
                                         "--work-dir", opt.work_dir,
                                         "--setup-only", "1"};
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  const Clock::time_point t0 = Clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, opt.exe.c_str(), &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start a cold set-up child");
  }
  char byte = 0;
  const ssize_t n = read(fds[0], &byte, 1);
  const double ms = ms_between(t0, Clock::now());
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("cold set-up child failed");
  }
  return ms;
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) throw std::runtime_error("sched_getcpu failed");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_setaffinity failed");
  return cpu;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) { return static_cast<bool>(std::ifstream(path)); }

}  // namespace pb
