#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>

namespace perfbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool percentile_supported(std::size_t n, double q) {
  if (n < 40) return false;
  // Ten samples strictly beyond the percentile: n * (1 - q) >= 10, with a
  // small tolerance so 1000 samples support p99 despite rounding.
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

std::optional<double> supported_quantile(const std::vector<double>& values,
                                         double q) {
  if (!percentile_supported(values.size(), q)) return std::nullopt;
  return quantile(values, q);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t lane) {
  // splitmix64 over (seed, lane).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t v : bytes) {
    out += digits[v >> 4];
    out += digits[v & 15];
  }
  return out;
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::metric_if_absent(const std::string& name, double value,
                              const std::string& unit) {
  if (!has_metric(name)) metrics_.push_back({name, value, unit});
}

bool Result::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::violation(const std::string& what) { violations_.push_back(what); }

void Result::artifact(const std::string& kind, const std::string& path) {
  artifacts_[kind] = path;
}

void Result::note(const std::string& line) { notes_.push_back(line); }

void Result::absorb(const Result& other) {
  for (const Metric& m : other.metrics_) metric_if_absent(m.name, m.value, m.unit);
  violations_.insert(violations_.end(), other.violations_.begin(),
                     other.violations_.end());
  for (const auto& [kind, path] : other.artifacts_) {
    artifacts_.emplace(kind, path);
  }
  notes_.insert(notes_.end(), other.notes_.begin(), other.notes_.end());
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    append_escaped(out, metrics_[i].name);
    out += ": {\"value\": " + number(metrics_[i].value) + ", \"unit\": ";
    append_escaped(out, metrics_[i].unit);
    out += "}";
  }
  out += "}, \"violations\": [";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    if (i > 0) out += ", ";
    append_escaped(out, violations_[i]);
  }
  out += "], \"artifacts\": {";
  bool first = true;
  for (const auto& [kind, path] : artifacts_) {
    if (!first) out += ", ";
    first = false;
    append_escaped(out, kind);
    out += ": ";
    append_escaped(out, path);
  }
  out += "}}";
  return out;
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("selftest FAIL: %s\n", what);
      ++failures;
    }
  };
  const auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
  };

  // Percentile rule.
  expect(!percentile_supported(39, 0.5), "n=39 reports no percentile beyond the median");
  expect(percentile_supported(40, 0.75), "n=40 supports p75 (10 beyond)");
  expect(!percentile_supported(40, 0.9), "n=40 does not support p90");
  expect(!percentile_supported(999, 0.99), "n=999 does not support p99");
  expect(percentile_supported(1000, 0.99), "n=1000 supports p99");
  expect(!percentile_supported(9999, 0.999), "n=9999 does not support p99.9");
  expect(percentile_supported(10000, 0.999), "n=10000 supports p99.9");
  expect(!supported_quantile(ramp(999), 0.99).has_value(), "p99 withheld at n=999");
  const std::optional<double> p99 = supported_quantile(ramp(1000), 0.99);
  expect(p99.has_value() && std::fabs(*p99 - 990.01) < 1e-9,
         "p99 of 1..1000 interpolates to 990.01");
  expect(median(ramp(5)) == 3, "median of 1..5 is 3");
  expect(median({}) == 0, "median of nothing is 0");
  expect(quantile({2, 4}, 0.5) == 3, "quantile interpolates");

  // Operation accounting.
  OpCount ops;
  ops.attempted = 10;
  ops.failed = 3;
  expect(ops.ok() == 7, "ok = attempted - failed");
  Result r;
  r.ops = ops;
  r.metric("a.b", 1.5, "ms");
  r.metric("a.b", 2.5, "ms");
  r.metric_if_absent("a.b", 9, "ms");
  expect(r.metrics().size() == 1 && r.metrics()[0].value == 2.5,
         "metric() overwrites, metric_if_absent() does not");
  expect(r.correct(), "no violation means correct");
  Result other;
  other.metric("a.b", 7, "ms");
  other.metric("c", 1, "count");
  other.violation("bad output");
  r.absorb(other);
  expect(r.metrics().size() == 2 && r.metrics()[0].value == 2.5,
         "absorb keeps the first writer");
  expect(!r.correct(), "absorbed violation makes the result incorrect");
  const std::string json = r.to_json();
  expect(json.find("\"attempted\": 10, \"failed\": 3") != std::string::npos,
         "JSON carries attempted/failed");
  expect(json.find("\"a.b\": {\"value\": 2.5, \"unit\": \"ms\"}") != std::string::npos,
         "JSON carries metric value and unit");
  expect(mix_seed(1, 2) == mix_seed(1, 2) && mix_seed(1, 2) != mix_seed(1, 3),
         "mix_seed is deterministic and lane-separated");
  expect(hex({0x00, 0xab, 0x7f}) == "00ab7f", "hex encodes bytes in order");
  std::printf("harness selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
