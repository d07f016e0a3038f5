// Correctness gate. Every check runs outside the timed region.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_settlement.hpp"
#include "fleet/engine.hpp"

namespace tlc::bench {

/// The five FleetResult digests, hex-encoded.
struct Digests {
  static constexpr std::array<const char*, 5> kNames = {
      "measurement", "cdf", "poc", "anomaly", "ingest"};
  std::array<std::string, 5> hex;

  [[nodiscard]] bool operator==(const Digests&) const = default;
};

[[nodiscard]] Digests digests_of(const fleet::FleetResult& result);

/// The pinned seed-1 digests of a workload at full or smoke size
/// (goldens.hpp); nullopt when none is pinned.
[[nodiscard]] std::optional<Digests> golden_digests(std::string_view workload,
                                                    bool smoke);

struct CheckReport {
  std::uint64_t receipts_verified = 0;
  std::uint64_t batches_verified = 0;
  /// UE-cycles whose receipt or bill failed a check.
  std::uint64_t failed_ue_cycles = 0;
  std::vector<std::string> errors;
};

/// Checks one run's outputs:
///  - every completed receipt passes core::verify_poc (Algorithm 2)
///    against `keys`, with `charged` equal to the verified x;
///  - every bill line bills the receipt's x, or the gateway volume when
///    the cycle fell back to legacy billing;
///  - every sealed ingest batch passes charging::verify_batch_poc, and
///    the run's ingest key is the one set-up derives.
[[nodiscard]] CheckReport check_outputs(const fleet::FleetConfig& config,
                                        const fleet::FleetResult& result,
                                        const core::RsaKeyCache& keys,
                                        const crypto::RsaPublicKey* ingest_key);

}  // namespace tlc::bench
