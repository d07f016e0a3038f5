// Seeded property soak (DESIGN.md §13): ~100 tiny byzantine fleets
// across bypass kind × adversary fraction × radio-loss condition ×
// seed, asserting the catch-or-bound invariant on every record. The
// point is breadth: no corner of the parameter lattice may produce an
// unflagged, unbounded leak.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/engine.hpp"
#include "workloads/adversarial.hpp"

namespace tlc::fleet {
namespace {

using workloads::AdversaryKind;

constexpr SimTime kCycleLength = 2 * kSecond;
constexpr int kCycles = 1;

// The shard simulates cycles × cycle_length plus a bounded tail
// (cycle_length / 2 + 1 s — see run_tail in shard.cpp), and generators
// emit until that horizon; bounds below must cover the full span.
constexpr SimTime kEmitHorizon =
    kCycles * kCycleLength + kCycleLength / 2 + kSecond;

FleetConfig soak_fleet(AdversaryKind kind, double fraction, double weak,
                       std::uint64_t seed) {
  FleetConfig config;
  config.base.cycle_length = kCycleLength;
  config.base.cycles = kCycles;
  config.base.background_mbps = 0.5;
  config.ue_count = 4;
  config.shards = 2;
  config.threads = 2;
  config.seed = seed;
  config.settle = false;
  config.weak_signal_fraction = weak;
  config.adversary.fraction = fraction;
  config.adversary.kinds = {kind};
  return config;
}

// Catch-or-bound per record: either a detector flagged the adversary,
// or its leak is inside the documented bound for its kind.
void check_record(const UeRecord& record, const std::string& label) {
  const epc::AnomalyCounters& a = record.anomaly;
  const auto windows =
      static_cast<std::uint64_t>(kEmitHorizon / epc::kAnomalyWindow) + 1;
  switch (record.adversary) {
    case AdversaryKind::kNone:
      // Honest members are never flagged and never leak.
      EXPECT_EQ(a.flags, 0u) << label;
      EXPECT_EQ(a.uncharged_bytes(), 0u) << label;
      break;
    case AdversaryKind::kIcmpTunnel:
    case AdversaryKind::kDnsTunnel: {
      // Tunnel payloads carry entropy ≥ the threshold on every packet,
      // so an unflagged tunnel can only mean the gateway saw less
      // free-class volume than the entropy heuristic's minimum (heavy
      // radio loss) — the leak is bounded either way.
      const bool caught =
          (a.flags & (epc::kAnomalySmallPacketFlood |
                      epc::kAnomalyHighEntropyFreeClass)) != 0;
      EXPECT_TRUE(caught || a.free_bytes < epc::kEntropyMinFreeBytes)
          << label << " free_bytes=" << a.free_bytes;
      break;
    }
    case AdversaryKind::kZeroRatedAbuse: {
      // Unflagged means every window stayed at or under the cap.
      const bool caught = (a.flags & epc::kAnomalyZeroRatedVolume) != 0;
      EXPECT_TRUE(caught ||
                  a.zero_rated_bytes <=
                      windows * epc::kZeroRatedBytesPerWindow)
          << label << " zero_rated=" << a.zero_rated_bytes;
      break;
    }
    case AdversaryKind::kFreeRider: {
      // Any replayed packet raises the flag immediately.
      const bool caught = (a.flags & epc::kAnomalyFlowReplay) != 0;
      EXPECT_TRUE(caught || a.replayed_bytes == 0u)
          << label << " replayed=" << a.replayed_bytes;
      break;
    }
    case AdversaryKind::kVolumeShaper: {
      // Designed to evade; its leak is capped by the emission bound.
      EXPECT_LE(a.free_bytes, workloads::shaper_leakage_bound(kEmitHorizon))
          << label;
      break;
    }
  }
}

TEST(AdversarialSoakTest, CatchOrBoundHoldsAcrossTheLattice) {
  const std::vector<AdversaryKind> kinds = {
      AdversaryKind::kIcmpTunnel, AdversaryKind::kDnsTunnel,
      AdversaryKind::kZeroRatedAbuse, AdversaryKind::kFreeRider,
      AdversaryKind::kVolumeShaper};
  const std::vector<double> fractions = {0.3, 1.0};
  const std::vector<double> weak_fractions = {0.0, 0.6};
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14, 15};

  int configs = 0;
  for (AdversaryKind kind : kinds) {
    for (double fraction : fractions) {
      for (double weak : weak_fractions) {
        for (std::uint64_t seed : seeds) {
          const FleetResult result =
              run_fleet(soak_fleet(kind, fraction, weak, seed));
          ++configs;
          const std::string label =
              std::string(workloads::adversary_name(kind)) + " f" +
              std::to_string(fraction) + " w" + std::to_string(weak) +
              " s" + std::to_string(seed);
          ASSERT_EQ(result.records.size(), 4u) << label;
          for (const UeRecord& record : result.records) {
            check_record(record, label + " ue" +
                                     std::to_string(record.ue_index));
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 100);
}

}  // namespace
}  // namespace tlc::fleet
