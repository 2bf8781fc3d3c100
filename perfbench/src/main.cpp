// perfbench: runs one workload and prints its result document.
//
//   perfbench --workload <session_churn|live_broadcast|macro_day>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//   perfbench --selftest
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 reports the per-layer metrics: the named workload's traced
// section runs for --seconds, and the layers it does not exercise come
// from a short traced section of the workload that does, so every traced
// run reports every layer. The last stdout line is the result JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

/// Length of each companion section in a traced run.
constexpr double kCompanionSeconds = 1.5;

struct Workload {
  const char* name;
  Result (*run)(const Options&);
  Result (*layers)(const Options&, double);
};

constexpr Workload kWorkloads[] = {
    {"session_churn", session_churn, session_churn_layers},
    {"live_broadcast", live_broadcast, live_broadcast_layers},
    {"macro_day", macro_day, macro_day_layers},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <session_churn|live_broadcast|macro_day> "
               "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir>\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") opts.workload = value();
      else if (arg == "--seed") opts.seed = std::stoull(value());
      else if (arg == "--seconds") opts.seconds = std::stod(value());
      else if (arg == "--trace") opts.trace = value() != "0";
      else if (arg == "--out-dir") opts.out_dir = value();
      else if (arg == "--selftest") selftest = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (selftest) return self_test() == 0 ? 0 : 1;
  if (!(opts.seconds > 0)) return usage();

  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opts.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return usage();

  try {
    Result result;
    if (!opts.trace) {
      result = chosen->run(opts);
    } else {
      result = chosen->layers(opts, opts.seconds);
      for (const Workload& w : kWorkloads) {
        if (&w != chosen) result.absorb(w.layers(opts, kCompanionSeconds));
      }
    }
    for (const std::string& line : result.notes()) std::printf("# %s\n", line.c_str());
    for (const std::string& v : result.violations()) {
      std::printf("# VIOLATION: %s\n", v.c_str());
    }
    std::printf("%s\n", result.to_json().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", chosen->name, e.what());
    return 1;
  }
  return 0;
}
