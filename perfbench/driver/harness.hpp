// Shared machinery of the benchmark driver: options, the same-CPU speed
// probe, order statistics, the span recorder of traced runs, and the result
// that main() prints as the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string exe;  ///< this driver's own path (cold set-ups re-run it)
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;       ///< edgellm_cli binary (http_prefix launches it)
  std::string work_dir;  ///< fixtures, traces and scratch files live here
  bool setup_only = false;  ///< run the workload's set-up, report it done, exit
};

/// Deterministic 64-bit mix of (seed, stream) for per-round RNG seeds.
uint64_t mix_seed(uint64_t seed, uint64_t stream);

// --- order statistics -------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v);

/// The low quantile every timing is estimated with: quiet phases of a
/// shared host are the ones that repeat from run to run.
inline constexpr double kLowQuantile = 0.10;

/// Probe repetitions run at each probe point between units of work.
inline constexpr int kProbeReps = 8;

// --- speed probe -------------------------------------------------------------

/// A fixed reference loop (an L1-resident 48^3 naive matmul) timed on the
/// same pinned CPU, interleaved with the workload. Every reported timing is
///   low_quantile(unit) / low_quantile(probe) * kNominalMs
/// so a host-wide slow phase that stretches both cancels out, while the
/// value still reads in ordinary units.
class Probe {
 public:
  /// The probe's low-quantile time on the reference host (see README.md).
  static constexpr double kNominalMs = 0.070;

  /// Times one probe repetition and keeps the sample.
  double run_once();
  void run(int reps) {
    for (int i = 0; i < reps; ++i) run_once();
  }
  double low_ms() const { return quantile(samples_, kLowQuantile); }
  const std::vector<double>& samples() const { return samples_; }

  /// Converts a raw low-quantile time into probe-normalised units.
  double normalise(double raw) const { return raw / low_ms() * kNominalMs; }

 private:
  std::vector<double> samples_;
};

// --- spans of traced runs ---------------------------------------------------

/// In-memory span recorder for traced runs; written as a Chrome trace at
/// exit. Disabled recorders cost one branch per span.
class Spans {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void record(const char* name, Clock::time_point begin, Clock::time_point end);
  /// Durations (ms) recorded under `name`.
  const std::vector<double>& durations(const std::string& name) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    double ts_us, dur_us;
  };
  bool enabled_ = false;
  std::vector<Event> events_;
  std::map<std::string, std::vector<double>> by_name_;
};

Spans& spans();

/// RAII span over a call into one layer of the program.
class Span {
 public:
  explicit Span(const char* name) : name_(name), t0_(Clock::now()) {}
  ~Span() {
    if (spans().enabled()) spans().record(name_, t0_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  Clock::time_point t0_;
};

/// Runs fn repeatedly for at least `min_ms` (and `min_reps` times) and
/// returns the median time per call in ms.
double time_per_call_ms(const std::function<void()>& fn, double min_ms, int min_reps = 3);

// --- result -------------------------------------------------------------------

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  /// name -> value, printed in insertion order. Units live in
  /// BENCHMARK.json; run.py attaches them.
  std::vector<std::pair<std::string, double>> metrics;
  /// Reference-only figures (raw times, tails, counts) for standard error.
  std::vector<std::pair<std::string, double>> details;

  /// Records a correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value) { metrics.emplace_back(name, value); }
  void detail(const std::string& name, double value) { details.emplace_back(name, value); }
  /// Records the five end-to-end metrics from raw low-quantile times (ms),
  /// normalised by the probe; `ms_per_token` gives tokens_per_s.
  /// `setup_ms` is the low quantile of the run's cold set-ups.
  void end_to_end(const Probe& probe, double setup_ms, double first_ms, double step_ms,
                  double latency_ms, double ms_per_token);
  bool correct() const { return check_failures.empty(); }

  std::string to_json() const;
  std::string details_json() const;
};

/// Per-layer values a traced workload measured. run.py reports the
/// per-layer metrics of BENCHMARK.json it does not find here as 0.
using LayerValues = std::map<std::string, double>;

/// One cold set-up: starts this driver again with `--setup-only 1` (a fresh
/// process on the same pinned CPU) and returns the time from the spawn to
/// the child's report that the workload's set-up is done. The child must
/// exit 0 afterwards.
double cold_setup_ms(const Options& opt);

/// Pins the calling thread (and so every process it later starts) to the
/// CPU it is running on. Returns that CPU.
int pin_to_current_cpu();

/// File helpers for fixture handling.
std::string read_file(const std::string& path);
bool file_exists(const std::string& path);

}  // namespace pb
