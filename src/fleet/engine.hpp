// Fleet engine: runs every shard, merges their results, settles every
// (UE, cycle) pair via the batch TLC API and aggregates the fleet
// through the OFCS.
//
// This is the top of the determinism contract: `run_fleet` output is a
// pure function of the FleetConfig. Shards and settlement groups fan
// out over util::parallel_for but write pre-allocated, disjoint result
// slots; merging walks those slots in shard (and UE) order, settlement
// derives all randomness from seed streams, and every floating-point
// accumulation happens in a sorted, thread-independent order. The
// digests exist so tests (and benches) can assert bit-identity across
// thread counts with one comparison.
#pragma once

#include <map>
#include <vector>

#include "charging/ingest.hpp"
#include "core/batch_settlement.hpp"
#include "epc/ofcs.hpp"
#include "fleet/fleet_config.hpp"
#include "fleet/shard.hpp"
#include "util/stats.hpp"

namespace tlc::fleet {

struct FleetResult {
  /// Every member's record, ordered by global ue_index.
  std::vector<UeRecord> records;

  /// Fleet-wide gap CDF inputs per scheme: one gap_mb_per_hr sample per
  /// (UE, cycle), appended in (ue_index, cycle) order.
  std::map<testbed::Scheme, Samples> gap_samples;

  /// Batch TLC settlement receipts, in (ue_index, cycle) order. Empty
  /// when config.settle is false.
  std::vector<core::SettlementReceipt> receipts;

  /// OFCS output: bills[cycle] holds one line per subscriber (ascending
  /// IMSI), rated with the TLC hook backed by the receipts (legacy
  /// gateway volume where settlement is disabled or incomplete).
  std::vector<std::vector<std::pair<epc::Imsi, epc::BillLine>>> bills;
  epc::Ofcs::FleetTotals totals;

  /// Settlement outcome census (§8), counted from `receipts`: one entry
  /// per cycle (none when config.settle is false) and their sum. On a
  /// lossless run only a cycle that fails to negotiate is Degraded;
  /// Retried and RejectedTamper appear once config.lossy_transport
  /// injects faults.
  std::vector<epc::SettlementCounters> settlement_by_cycle;
  epc::SettlementCounters settlement_totals;

  /// Coded-transport census (§17), summed over UE groups in order.
  /// All-zero unless config.lossy_transport is on and
  /// config.transport.coding selects RLNC; bit-identical across
  /// thread counts like every other field here.
  transport::CodedCounters coded_totals;

  /// Streaming ingest artifacts (DESIGN.md §16): sealed batch PoCs in
  /// seal order. Empty when config.streaming_ingest is off. A pure
  /// function of the CDR stream, so bit-identical across thread counts
  /// like everything else here.
  std::vector<charging::BatchPoc> ingest_batches;
  /// Verification key for the batch signatures (derived from its own
  /// seed stream). Zero-valued when streaming is off.
  crypto::RsaPublicKey ingest_key;

  /// SHA-256 digests for bit-identity assertions.
  Bytes measurement_digest;  // all merged CycleMeasurements
  Bytes cdf_digest;          // per-scheme gap CDF point series
  Bytes poc_digest;          // all settlement receipts incl. PoC wire
  Bytes anomaly_digest;      // §13 adversary kinds + gateway detectors
  Bytes ingest_digest;       // §16 batch PoC wires, seal order
};

/// Runs the whole fleet: shards on `config.threads` workers, then
/// merge, settlement (UE groups on `config.threads` workers) and OFCS
/// aggregation. The same pipeline `run_supervised_fleet` drives, with
/// durability off.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

}  // namespace tlc::fleet
