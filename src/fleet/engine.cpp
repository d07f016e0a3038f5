#include "fleet/engine.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "charging/ingest.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "fleet/engine_detail.hpp"
#include "sim/rng_stream.hpp"

namespace tlc::fleet {
namespace {

void count_outcome(epc::SettlementCounters& counters,
                   core::SettleOutcome outcome) {
  switch (outcome) {
    case core::SettleOutcome::Converged:
      ++counters.converged;
      return;
    case core::SettleOutcome::Retried:
      ++counters.retried;
      return;
    case core::SettleOutcome::Degraded:
      ++counters.degraded;
      return;
    case core::SettleOutcome::RejectedTamper:
      ++counters.rejected_tamper;
      return;
  }
}

// Fleet-level seed streams (disjoint from per-shard streams, which are
// derived as stream_seed(seed, shard_index) and so live in the small
// integers).
constexpr std::uint64_t kKeyCacheStream = 0x6b657963ULL;    // "keyc"
constexpr std::uint64_t kSettleSaltStream = 0x73616c74ULL;  // "salt"
constexpr std::uint64_t kIngestKeyStream = 0x696e6773ULL;   // "ings"

constexpr std::uint32_t kGatewayAddress = 0x0a000001;  // 10.0.0.1

void append_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void append_double(Bytes& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

Bytes digest_measurements(const std::vector<UeRecord>& records) {
  Bytes buf;
  for (const UeRecord& record : records) {
    append_u64(buf, record.ue_index);
    append_u64(buf, record.imsi.value);
    for (const testbed::CycleMeasurements& cycle : record.cycles) {
      append_u64(buf, cycle.true_sent);
      append_u64(buf, cycle.true_received);
      append_u64(buf, cycle.edge_sent);
      append_u64(buf, cycle.edge_received);
      append_u64(buf, cycle.op_sent);
      append_u64(buf, cycle.op_received);
      append_u64(buf, cycle.gateway_volume);
    }
  }
  return crypto::sha256(buf);
}

// §13: the byzantine overlay's entire observable footprint — who ran
// which bypass, what the gateway's detectors accumulated, and the
// uncharged volume forwarded per cycle. Kept separate from the
// measurement digest so zero-adversary fleets hash identically to
// pre-§13 builds.
Bytes digest_anomalies(const std::vector<UeRecord>& records) {
  Bytes buf;
  for (const UeRecord& record : records) {
    append_u64(buf, record.ue_index);
    append_u64(buf, static_cast<std::uint64_t>(record.adversary));
    const epc::AnomalyCounters& a = record.anomaly;
    for (std::uint64_t v : a.protocol_bytes) append_u64(buf, v);
    for (std::uint64_t v : a.qci_bytes) append_u64(buf, v);
    append_u64(buf, a.free_bytes);
    append_u64(buf, a.free_packets);
    append_u64(buf, a.free_small_packets);
    append_u64(buf, a.entropy_millis_sum);
    append_u64(buf, a.zero_rated_bytes);
    append_u64(buf, a.replayed_bytes);
    append_u64(buf, a.replayed_packets);
    append_u64(buf, a.flags);
    append_u64(buf, record.uncharged_per_cycle.size());
    for (std::uint64_t v : record.uncharged_per_cycle) append_u64(buf, v);
  }
  return crypto::sha256(buf);
}

Bytes digest_cdfs(const std::map<testbed::Scheme, Samples>& gap_samples) {
  Bytes buf;
  for (const auto& [scheme, samples] : gap_samples) {
    append_u64(buf, static_cast<std::uint64_t>(scheme));
    append_u64(buf, samples.count());
    for (const auto& [value, fraction] : samples.cdf()) {
      append_double(buf, value);
      append_double(buf, fraction);
    }
  }
  return crypto::sha256(buf);
}

Bytes digest_receipts(const std::vector<core::SettlementReceipt>& receipts) {
  Bytes buf;
  for (const core::SettlementReceipt& receipt : receipts) {
    append_u64(buf, receipt.ue_id);
    append_u64(buf, receipt.cycle);
    append_u64(buf, receipt.completed ? 1 : 0);
    append_u64(buf, receipt.charged);
    append_u64(buf, static_cast<std::uint64_t>(receipt.rounds));
    append_u64(buf, receipt.poc_wire.size());
    append(buf, receipt.poc_wire);
  }
  return crypto::sha256(buf);
}

Bytes digest_ingest(const std::vector<charging::BatchPoc>& batches) {
  Bytes buf;
  for (const charging::BatchPoc& poc : batches) {
    const Bytes wire = charging::encode_batch_poc(poc);
    append_u64(buf, wire.size());
    append(buf, wire);
  }
  return crypto::sha256(buf);
}

}  // namespace

namespace detail {

std::vector<ShardSlice> partition_shards(const FleetConfig& config) {
  std::vector<ShardSlice> slices;
  const std::size_t per_shard = config.ues_per_shard();
  const auto total_ues =
      static_cast<std::uint64_t>(std::max(0, config.ue_count));
  if (per_shard == 0 || total_ues == 0) return slices;
  for (int s = 0; s < config.shards; ++s) {
    const std::uint64_t first = static_cast<std::uint64_t>(s) * per_shard;
    if (first >= total_ues) break;
    const std::size_t count = static_cast<std::size_t>(
        std::min<std::uint64_t>(per_shard, total_ues - first));
    slices.push_back(ShardSlice{s, first, count});
  }
  return slices;
}

std::vector<UeRecord> run_shard_slice(const FleetConfig& config,
                                      const ShardSlice& slice) {
  FleetShard shard(config, slice.shard_index, slice.first_ue, slice.ue_count);
  return shard.run();
}

void collect_gap_samples(const std::vector<UeRecord>& records,
                         std::map<testbed::Scheme, Samples>& gap_samples) {
  for (const UeRecord& record : records) {
    for (const auto& [scheme, outcomes] : record.outcomes) {
      Samples& samples = gap_samples[scheme];
      for (const testbed::CycleOutcome& outcome : outcomes) {
        samples.add(outcome.gap_mb_per_hr);
      }
    }
  }
}

core::BatchConfig make_batch_config(const FleetConfig& config) {
  core::BatchConfig batch;
  batch.c = config.base.plan_c;
  batch.cycle_length = config.base.cycle_length;
  batch.first_cycle_start = 0;
  batch.rng_salt = sim::stream_seed(config.seed, kSettleSaltStream);
  return batch;
}

std::uint64_t key_cache_seed(const FleetConfig& config) {
  return sim::stream_seed(config.seed, kKeyCacheStream);
}

std::vector<core::SettlementItem> settlement_items(
    const std::vector<UeRecord>& records, const FleetConfig& config) {
  std::vector<core::SettlementItem> items;
  items.reserve(records.size() * static_cast<std::size_t>(config.base.cycles));
  for (const UeRecord& record : records) {
    for (const testbed::CycleMeasurements& cycle : record.cycles) {
      core::SettlementItem item;
      item.ue_id = record.ue_index;
      item.edge_view = {cycle.edge_sent, cycle.edge_received};
      item.op_view = {cycle.op_sent, cycle.op_received};
      items.push_back(item);
    }
  }
  return items;
}

charging::DataPlan fleet_plan(const FleetConfig& config) {
  charging::DataPlan plan;
  plan.lost_data_weight_c = config.base.plan_c;
  plan.cycle_length = config.base.cycle_length;
  return plan;
}

void aggregate_fleet(const FleetConfig& config, epc::Ofcs& ofcs,
                     FleetResult& result,
                     const std::function<void(int cycle)>& after_cycle) {
  // Flat (ue_index * cycles + cycle) receipt index: O(1) hook lookups
  // instead of a tree walk per rated CDR, which matters at 10k UEs.
  // The same pass folds the settlement outcome census (§8). A receipt
  // at or past config.base.cycles (only a damaged recovered chunk can
  // carry one) stays out of the census, as it stays out of the bill.
  const auto cycles = static_cast<std::size_t>(std::max(config.base.cycles, 0));
  std::vector<const core::SettlementReceipt*> by_ue_cycle(
      result.records.size() * cycles, nullptr);
  result.settlement_by_cycle.assign(result.receipts.empty() ? 0 : cycles, {});
  result.settlement_totals = {};
  for (const core::SettlementReceipt& receipt : result.receipts) {
    if (receipt.cycle >= cycles) continue;
    count_outcome(result.settlement_by_cycle[receipt.cycle], receipt.outcome);
    count_outcome(result.settlement_totals, receipt.outcome);
    if (receipt.ue_id < result.records.size()) {
      by_ue_cycle[receipt.ue_id * cycles + receipt.cycle] = &receipt;
    }
  }

  std::unordered_map<std::uint64_t, std::uint64_t> ue_by_imsi;
  ue_by_imsi.reserve(result.records.size());
  for (const UeRecord& record : result.records) {
    ue_by_imsi[record.imsi.value] = record.ue_index;
  }
  ofcs.set_charge_hook([&by_ue_cycle, &ue_by_imsi, cycles](
                           epc::Imsi imsi, std::uint32_t cycle_index,
                           std::uint64_t gateway_volume) {
    const auto ue = ue_by_imsi.find(imsi.value);
    if (ue == ue_by_imsi.end() || cycle_index >= cycles) return gateway_volume;
    const core::SettlementReceipt* receipt =
        by_ue_cycle[ue->second * cycles + cycle_index];
    if (receipt == nullptr || !receipt->completed) {
      return gateway_volume;  // legacy fallback
    }
    return receipt->charged;
  });

  // Streaming front (§16): one ingest key per fleet, derived from its
  // own seed stream so enabling streaming perturbs no other draw. The
  // pipeline forwards every CDR to the OFCS before batching, so the
  // ledger below is byte-identical with streaming on or off; the
  // batches themselves are a pure function of the serial CDR stream.
  std::unique_ptr<charging::StreamingIngest> streaming;
  crypto::RsaKeyPair ingest_key;
  if (config.streaming_ingest) {
    Rng rng(sim::stream_seed(config.seed, kIngestKeyStream));
    ingest_key = crypto::rsa_generate(config.rsa_bits, rng);
    result.ingest_key = ingest_key.public_key;
    charging::IngestConfig ingest_config;
    ingest_config.batch_size = config.ingest_batch_size;
    ingest_config.retain_batches = false;  // the BatchPoc is the artifact
    streaming = std::make_unique<charging::StreamingIngest>(
        ingest_config, &ingest_key.private_key, &ofcs);
  }

  // Synthetic gateway CDRs per (UE, cycle), rated with the TLC hook
  // substituting each cycle's negotiated x. All closes are
  // cycle-indexed so a recovered ledger re-executes this loop as pure
  // no-ops up to the crash point.
  result.bills.clear();
  result.bills.reserve(static_cast<std::size_t>(config.base.cycles));
  for (int cycle = 0; cycle < config.base.cycles; ++cycle) {
    for (const UeRecord& record : result.records) {
      const testbed::CycleMeasurements& m =
          record.cycles[static_cast<std::size_t>(cycle)];
      const bool uplink = testbed::app_direction(record.member.app) ==
                          sim::Direction::Uplink;
      epc::ChargingDataRecord cdr;
      cdr.served_imsi = record.imsi;
      cdr.gateway_address = kGatewayAddress;
      cdr.charging_id = static_cast<std::uint16_t>(record.ue_index);
      cdr.sequence_number = static_cast<std::uint32_t>(cycle);
      cdr.time_of_first_usage =
          static_cast<SimTime>(cycle) * config.base.cycle_length;
      cdr.time_of_last_usage =
          static_cast<SimTime>(cycle + 1) * config.base.cycle_length;
      cdr.datavolume_uplink = uplink ? m.gateway_volume : 0;
      cdr.datavolume_downlink = uplink ? 0 : m.gateway_volume;
      // §13 audit fields: uncharged leak for this cycle (bypass
      // overlays are uplink by construction) plus the member's
      // cumulative anomaly flags. Zero for honest fleets, so legacy
      // ingest behaviour is unchanged.
      const auto c = static_cast<std::size_t>(cycle);
      cdr.uncharged_uplink = c < record.uncharged_per_cycle.size()
                                 ? record.uncharged_per_cycle[c]
                                 : 0;
      cdr.anomaly_flags = record.anomaly.flags;
      if (streaming != nullptr) {
        streaming->submit(cdr);
      } else {
        ofcs.ingest(cdr);
      }
    }
    // Seal the partial batch at the cycle edge so every batch PoC's
    // time range stays within one cycle (and batch boundaries never
    // depend on how many cycles follow).
    if (streaming != nullptr) streaming->flush();
    result.bills.push_back(
        ofcs.close_cycle_all(static_cast<std::uint32_t>(cycle)));
    if (after_cycle) after_cycle(cycle);
  }
  result.ingest_batches =
      streaming != nullptr ? streaming->batches() : std::vector<charging::BatchPoc>{};
  result.totals = ofcs.totals();
}

void compute_digests(FleetResult& result) {
  result.measurement_digest = digest_measurements(result.records);
  result.cdf_digest = digest_cdfs(result.gap_samples);
  result.poc_digest = digest_receipts(result.receipts);
  result.anomaly_digest = digest_anomalies(result.records);
  result.ingest_digest = digest_ingest(result.ingest_batches);
}

}  // namespace detail

FleetResult run_fleet(const FleetConfig& config) {
  // The detached run is one supervised incarnation with durability
  // off: no state_dir and no crash plan. Only durable-state I/O can
  // fail, so the result is always present.
  SupervisorConfig detached;
  detached.fleet = config;
  SupervisionStats stats;
  return std::move(detail::run_incarnation(detached, stats)).value();
}

}  // namespace tlc::fleet
