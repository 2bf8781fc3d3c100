// Harness for the perfbench binary: run options, clocks, the percentile
// rule, operation accounting and the result document each workload fills.
//
// Every workload returns a Result: whether its outputs checked out, how
// many operations it attempted and how many failed, its metrics (name,
// value, unit) and the sample files the Python checkers re-verify after
// the process exits. run.py merges those checks into the final line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "obs/runtime.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for sample files and the Chrome trace (created by run.py).
  std::string out_dir = ".";
};

// --- clocks -------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }
/// Process user+sys CPU time, all threads.
double cpu_seconds();
/// Peak resident set of the process so far, MB (2^20 bytes).
double peak_rss_mb();

// --- statistics -----------------------------------------------------------

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]): the
/// program's own analysis routines, wrapped below by the percentile rule.
using p2pdrm::analysis::median;
using p2pdrm::analysis::quantile;

/// The percentile rule: a tail percentile q is reported only when at least
/// ten samples lie beyond it, and with fewer than forty samples only the
/// median is reported.
bool percentile_supported(std::size_t n, double q);
std::optional<double> supported_quantile(const std::vector<double>& values,
                                         double q);

/// Mixes a run seed with a stream label into an independent 64-bit seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t lane);

/// Lower-case hex of a byte string (sample files for the checkers).
std::string hex(const std::vector<std::uint8_t>& bytes);

// --- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operation accounting: every attempt ends as exactly one of ok/failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok() const { return attempted - failed; }
};

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Add `name` only if no metric of that name is present yet.
  void metric_if_absent(const std::string& name, double value,
                        const std::string& unit);
  bool has_metric(const std::string& name) const;
  /// A correctness check failed: the run's outputs are wrong.
  void violation(const std::string& what);
  /// Record a file a Python checker re-verifies (kind -> path).
  void artifact(const std::string& kind, const std::string& path);
  /// Human-readable line printed before the result (stdout).
  void note(const std::string& line);
  /// Merge another section's metrics (first writer wins), violations,
  /// artifacts and notes; operation counts are not merged.
  void absorb(const Result& other);

  OpCount ops;
  bool correct() const { return violations_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& violations() const { return violations_; }
  const std::vector<std::string>& notes() const { return notes_; }

  /// One-line JSON document read by run.py.
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  std::map<std::string, std::string> artifacts_;
  std::vector<std::string> notes_;
};

/// Format helper for notes.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// A benchmark-side span around a call into one layer: recorded into the
/// global Profiler (and so into the merged Chrome trace) only while the
/// profiler is enabled, i.e. in traced runs. `name` must be a literal.
using Span = p2pdrm::obs::Profiler::Scope;
inline p2pdrm::obs::Profiler& profiler() {
  return p2pdrm::obs::Profiler::global();
}

/// Runs the harness's own checks (percentile rule, accounting, JSON);
/// returns the number of failures and prints each.
int self_test();

}  // namespace perfbench
