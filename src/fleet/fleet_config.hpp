// Fleet run configuration.
//
// A fleet is N subscribers (UEs) partitioned over S deterministic
// testbed shards. Each shard is a self-contained world — its own
// discrete-event simulator, small cell, gateway counter set and UE
// population — so shards can run on any number of worker threads
// without sharing mutable state. The determinism contract: fleet
// results are a pure function of this config; the thread count only
// changes wall-clock time, never a byte of output.
#pragma once

#include <cstdint>
#include <vector>

#include "testbed/scenario.hpp"
#include "transport/lossy_settlement.hpp"
#include "workloads/adversarial.hpp"

namespace tlc::fleet {

/// Byzantine population spec (DESIGN.md §13). Whether a UE is an
/// adversary — and which bypass it runs — is drawn from a dedicated
/// per-member seed stream, so a zero fraction leaves every other draw
/// in the fleet untouched and the run byte-identical to a fleet that
/// predates this struct.
struct AdversaryMix {
  /// Fraction of UEs carrying a bypass overlay in [0, 1].
  double fraction = 0.0;
  /// Kinds drawn uniformly per adversarial UE (repeat to weight).
  std::vector<workloads::AdversaryKind> kinds = {
      workloads::AdversaryKind::kIcmpTunnel,
      workloads::AdversaryKind::kDnsTunnel,
      workloads::AdversaryKind::kZeroRatedAbuse,
      workloads::AdversaryKind::kFreeRider,
      workloads::AdversaryKind::kVolumeShaper};

  [[nodiscard]] bool enabled() const {
    return fraction > 0.0 && !kinds.empty();
  }
};

/// Mean RSS of a weak-signal fleet member (cell edge, Fig 12).
inline constexpr double kWeakSignalRssDbm = -102.0;

struct FleetConfig {
  /// Shared knobs every member inherits (cycle structure, cell
  /// parameters, plan, clock discipline, background congestion per
  /// shard cell). Per-UE fields (app, rss, disconnect, seed) are drawn
  /// per member and applied via testbed::lift_scenario.
  testbed::ScenarioConfig base;

  /// Fleet population size.
  int ue_count = 32;

  /// Shard count. Fixed independently of the worker count — results
  /// depend on it (each shard is one cell), so scaling threads up or
  /// down must not change it.
  int shards = 8;

  /// Worker threads for the shard runs and batch settlement.
  unsigned threads = 1;

  /// Master seed; every shard / UE / settlement stream derives from it
  /// through sim::stream_seed.
  std::uint64_t seed = 1;

  /// Workload mix the per-shard RNG stream draws each UE's app from
  /// (uniform over the entries; repeat an entry to weight it).
  std::vector<testbed::AppKind> app_mix = {
      testbed::AppKind::WebcamRtsp, testbed::AppKind::WebcamUdp,
      testbed::AppKind::VrGvsp, testbed::AppKind::GamingQci7};

  /// Population heterogeneity: fraction of UEs in weak signal (at
  /// `kWeakSignalRssDbm`), and fraction with intermittent connectivity
  /// (Figs 12-14 conditions).
  double weak_signal_fraction = 0.25;
  double intermittent_fraction = 0.25;
  double intermittent_eta = 0.10;

  /// Batch TLC settlement of every (UE, cycle) pair after the runs.
  bool settle = true;
  /// RSA modulus for settlement sessions (tests/benches use 512 for
  /// speed; the paper's prototype uses 1024).
  std::size_t rsa_bits = 512;
  /// Precomputed key-cache slots shared by all sessions.
  std::size_t key_cache_slots = 4;

  /// Settle over the fault-injected transport ladder (§8, §17) instead
  /// of in-process. With all-zero fault rates the receipts equal the
  /// lossless path's through each UE's first failed cycle; after it the
  /// in-process and coded rungs leave that UE's remaining cycles
  /// un-negotiated, while stop-and-wait negotiates them.
  bool lossy_transport = false;
  /// Fault rates, retry policy and transport seed when lossy_transport
  /// is on. Fault schedules derive from (transport.seed, ue, message
  /// index) — never wall clock — so lossy fleets keep the bit-identity
  /// contract at any thread count.
  transport::TransportConfig transport;

  /// Byzantine population (DESIGN.md §13). Default: no adversaries,
  /// and a run bit-identical to pre-§13 fleets.
  AdversaryMix adversary;

  /// Streaming ingest front (DESIGN.md §16): route the synthetic
  /// gateway CDRs through charging::StreamingIngest, sealing one
  /// Merkle-aggregated batch PoC per ingest_batch_size records instead
  /// of paying a signature per record. Bills, totals and every digest
  /// except ingest_digest are byte-identical with this on or off — the
  /// front forwards each CDR to the OFCS unchanged before batching.
  bool streaming_ingest = false;
  /// CDR leaves per sealed batch (bench points: 64 / 256 / 1024).
  std::size_t ingest_batch_size = 256;

  /// Members per shard (ceiling division; the last shard may be short).
  [[nodiscard]] std::size_t ues_per_shard() const {
    if (shards <= 0 || ue_count <= 0) return 0;
    return (static_cast<std::size_t>(ue_count) +
            static_cast<std::size_t>(shards) - 1) /
           static_cast<std::size_t>(shards);
  }
};

}  // namespace tlc::fleet
