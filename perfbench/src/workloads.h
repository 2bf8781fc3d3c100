// The three workloads. Each has an untraced run, which measures the
// end-to-end metrics and checks the outputs, and a traced section, which
// reports the per-layer metrics of the layers that workload exercises.
#pragma once

#include "harness.h"

namespace perfbench {

Result session_churn(const Options& opts);
Result session_churn_layers(const Options& opts, double seconds);

Result live_broadcast(const Options& opts);
Result live_broadcast_layers(const Options& opts, double seconds);

Result macro_day(const Options& opts);
Result macro_day_layers(const Options& opts, double seconds);

}  // namespace perfbench
