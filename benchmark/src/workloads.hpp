// The benchmark's workloads: four fleet configurations that put the
// cost of settling a charging cycle in different layers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "fleet/fleet_config.hpp"
#include "util/bytes.hpp"

namespace tlc::bench {

struct Workload {
  std::string_view name;
  /// Why the workload exists: which layer it loads, and which it spares.
  std::string_view why;
  /// Full-size population; `--smoke` runs one eighth of it.
  int ue_count;
  int ues_per_cell;
  unsigned threads;
  /// Everything but population size, shard count and seed.
  void (*shape)(fleet::FleetConfig& config);
};

[[nodiscard]] std::span<const Workload> workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// The workload's fleet at full size, or at 1/8 scale for `smoke`. The
/// seed is the only source of randomness in the inputs.
[[nodiscard]] fleet::FleetConfig make_config(const Workload& workload,
                                             std::uint64_t seed, bool smoke);

/// Settled (UE, cycle) pairs one `run_fleet` call of `config` produces.
[[nodiscard]] std::uint64_t ue_cycles(const fleet::FleetConfig& config);

/// The key generated for streaming ingest: the same derivation
/// `run_fleet` uses, so set-up builds exactly the key material a run
/// builds (and the checks compare it with the run's `ingest_key`).
[[nodiscard]] std::uint64_t ingest_key_seed(const fleet::FleetConfig& config);

}  // namespace tlc::bench
