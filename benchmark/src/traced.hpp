// The traced pass: run_fleet's pipeline recomposed, one shard and one
// UE at a time, from the layers' own entry points, with every call
// timed from outside. Its outputs (and so its digests) equal run_fleet's;
// its timings give the per-layer metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fleet/engine.hpp"
#include "json.hpp"
#include "util/expected.hpp"

namespace tlc::bench {

/// Spans kept in memory and written once, as Chrome trace-event JSON
/// (opens in Perfetto or chrome://tracing).
class TraceLog {
 public:
  /// `start` and `end` in seconds on the wall_now() clock.
  void span(std::string name, double start, double end, Json::Object args = {});

  [[nodiscard]] Status write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    Json::Object args;
  };
  std::vector<Span> spans_;
};

struct TracedPass {
  fleet::FleetResult result;
  /// Per-layer metric values of this pass (metrics.hpp kLayers names,
  /// except the percentiles and the overhead ratio, which the caller
  /// computes over passes).
  std::map<std::string, double> metrics;
  /// In-process settle time of each UE divided by its cycles, ms.
  std::vector<double> settle_ms_per_ue_cycle;
};

/// Runs `config` serially through the recomposed pipeline. `log`
/// (nullable) receives a span per call, with counts in its args.
[[nodiscard]] TracedPass run_traced(const fleet::FleetConfig& config,
                                    TraceLog* log);

}  // namespace tlc::bench
