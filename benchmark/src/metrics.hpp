// The benchmark's metric catalogue: every number it reports, with its
// unit, direction and regression bound. README.md explains each one and
// which end-to-end metric each layer metric should move.
#pragma once

namespace tlc::bench {

enum class Better { Higher, Lower };

struct MetricDef {
  const char* name;
  const char* unit;
  Better better;
  /// Share of the base median by which an end-to-end metric may worsen
  /// before `--compare` calls it a regression. Deterministic metrics
  /// carry 0: any change to them is a change in output, not noise.
  double bound;
  /// Deterministic for a given (workload, seed): compared exactly.
  bool deterministic;
};

/// End-to-end metrics, measured only on untraced `fleet::run_fleet`
/// calls (plus the set-up builds for `setup_s`).
inline constexpr MetricDef kEndToEnd[] = {
    {"ue_cycles_per_s", "1/s", Better::Higher, 0.25, false},
    {"cpu_us_per_ue_cycle", "us", Better::Lower, 0.25, false},
    {"setup_s", "s", Better::Lower, 0.25, false},
    {"peak_rss_mb", "MB", Better::Lower, 0.05, false},
    {"legacy_fallback_ratio", "ratio", Better::Lower, 0.0, true},
    {"wire_bytes_per_ue_cycle", "B", Better::Lower, 0.0, true},
};

/// Per-layer metrics from the traced pass. No bounds: they explain an
/// end-to-end change, they do not gate one.
inline constexpr MetricDef kLayers[] = {
    {"fleet.traced_wall_s", "s", Better::Lower, 0.0, false},
    {"fleet.keygen_s", "s", Better::Lower, 0.0, false},
    {"fleet.shard_build_s", "s", Better::Lower, 0.0, false},
    {"fleet.shard_run_p50_s", "s", Better::Lower, 0.0, false},
    {"fleet.shard_run_max_s", "s", Better::Lower, 0.0, false},
    {"fleet.shard_teardown_s", "s", Better::Lower, 0.0, false},
    {"fleet.merge_s", "s", Better::Lower, 0.0, false},
    {"fleet.digest_s", "s", Better::Lower, 0.0, false},
    {"fleet.unattributed_s", "s", Better::Lower, 0.0, false},
    {"sim.run_s", "s", Better::Lower, 0.0, false},
    {"sim.events", "count", Better::Lower, 0.0, true},
    {"sim.events_per_ue_cycle", "count", Better::Lower, 0.0, true},
    {"sim.ns_per_event", "ns", Better::Lower, 0.0, false},
    {"epc.pkts_delivered", "count", Better::Higher, 0.0, true},
    {"epc.drop_ratio", "ratio", Better::Lower, 0.0, true},
    {"testbed.gap_eval_s", "s", Better::Lower, 0.0, false},
    {"core.settle_s", "s", Better::Lower, 0.0, false},
    {"core.settle_p50_ms", "ms", Better::Lower, 0.0, false},
    {"core.settle_p99_ms", "ms", Better::Lower, 0.0, false},
    {"core.rounds_mean", "count", Better::Lower, 0.0, true},
    {"core.fallback_cycles", "count", Better::Lower, 0.0, true},
    {"core.fallback_settle_share", "ratio", Better::Lower, 0.0, false},
    {"transport.s", "s", Better::Lower, 0.0, false},
    {"transport.packets_per_ue_cycle", "count", Better::Lower, 0.0, true},
    {"transport.innovative_ratio", "ratio", Better::Higher, 0.0, true},
    {"transport.corrupt_rejects", "count", Better::Lower, 0.0, true},
    {"transport.ladder_fallbacks", "count", Better::Lower, 0.0, true},
    {"transport.bytes_on_wire", "B", Better::Lower, 0.0, true},
    {"ofcs.aggregate_s", "s", Better::Lower, 0.0, false},
    {"ofcs.us_per_cdr", "us", Better::Lower, 0.0, false},
    {"ingest.batches_sealed", "count", Better::Lower, 0.0, true},
    {"trace.attributed_ratio", "ratio", Better::Higher, 0.0, false},
    {"trace.overhead_ratio", "ratio", Better::Lower, 0.0, false},
};

}  // namespace tlc::bench
