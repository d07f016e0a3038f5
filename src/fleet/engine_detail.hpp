// Internal fleet-engine building blocks.
//
// One pipeline, one driver: `run_incarnation` runs shard → settle →
// aggregate → digest once. `run_supervised_fleet` calls it in a loop
// of incarnations with checkpoints, journals and crash-injection
// points; `run_fleet` calls it once with durability off (empty
// state_dir, no crash plan). Everything else here is a pure function
// of its inputs, which is what makes a supervised run's
// splice-and-resume bit-identical to the detached run — durability
// only ever substitutes a helper's output with that same output
// recovered from disk.
#pragma once

#include <functional>
#include <vector>

#include "fleet/engine.hpp"
#include "fleet/supervisor.hpp"

namespace tlc::fleet::detail {

/// One contiguous range of global UE indices owned by one shard. The
/// partition depends only on (ue_count, shards), never thread count.
struct ShardSlice {
  int shard_index = 0;
  std::uint64_t first_ue = 0;
  std::size_t ue_count = 0;
};

/// The shard checkpoint codec: every UeRecord field exact (doubles as
/// bits), so a reused checkpoint is indistinguishable from a re-run.
[[nodiscard]] Bytes encode_shard_records(const std::vector<UeRecord>& records);
[[nodiscard]] Expected<std::vector<UeRecord>> decode_shard_records(
    const Bytes& data);

[[nodiscard]] std::vector<ShardSlice> partition_shards(
    const FleetConfig& config);

/// Runs one shard world to completion. Pure function of
/// (config, slice) — a re-run after a crash reproduces the records
/// byte for byte.
[[nodiscard]] std::vector<UeRecord> run_shard_slice(const FleetConfig& config,
                                                    const ShardSlice& slice);

/// Appends the fleet gap CDF inputs in (ue_index, cycle) order.
void collect_gap_samples(const std::vector<UeRecord>& records,
                         std::map<testbed::Scheme, Samples>& gap_samples);

[[nodiscard]] core::BatchConfig make_batch_config(const FleetConfig& config);

[[nodiscard]] std::uint64_t key_cache_seed(const FleetConfig& config);

/// Settlement inputs in (ue_index, cycle) order; each UE's items are
/// contiguous, so any chunking along whole-UE boundaries settles to
/// identical receipts.
[[nodiscard]] std::vector<core::SettlementItem> settlement_items(
    const std::vector<UeRecord>& records, const FleetConfig& config);

/// OFCS aggregation: folds the settlement census from
/// `result.receipts`, installs the TLC charge hook over them, ingests
/// the synthetic gateway CDRs and closes every cycle; fills
/// bills/totals/settlement fields of `result` (records/gap_samples/
/// receipts must already be there). `ofcs` is caller-constructed — the
/// supervisor attaches its recovery log first — and `after_cycle`
/// (nullable) runs after each cycle closes, which is where checkpoints
/// go. Idempotent against a recovered `ofcs`: re-ingested CDRs and
/// re-closed cycles dedupe, and the census is a pure function of the
/// receipts.
void aggregate_fleet(const FleetConfig& config, epc::Ofcs& ofcs,
                     FleetResult& result,
                     const std::function<void(int cycle)>& after_cycle);

/// The data plan the fleet OFCS rates against.
[[nodiscard]] charging::DataPlan fleet_plan(const FleetConfig& config);

/// Fills the five SHA-256 digests from the result's own fields.
void compute_digests(FleetResult& result);

/// One incarnation of the whole pipeline: shards on
/// `config.fleet.threads` workers, then settlement, OFCS aggregation
/// and digests. With a non-empty `state_dir` every phase resumes from
/// and persists durable state; with an empty one no file is read or
/// written, and settlement is one settler call over every item.
/// Throws recovery::CrashException / WedgeException when
/// `config.plan` fires one outside a shard's watchdog.
[[nodiscard]] Expected<FleetResult> run_incarnation(
    const SupervisorConfig& config, SupervisionStats& stats);

}  // namespace tlc::fleet::detail
