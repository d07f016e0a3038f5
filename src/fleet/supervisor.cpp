#include "fleet/supervisor.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <utility>
#include <vector>

#include "core/batch_settlement.hpp"
#include "fleet/engine_detail.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/state_log.hpp"
#include "transport/lossy_settlement.hpp"
#include "transport/settlement_journal.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/serde.hpp"

namespace tlc::fleet {
namespace {

// Incarnation budget: total process (re)starts before giving up.
constexpr int kMaxIncarnations = 64;
// Watchdog budget: wedge restarts of one shard within one incarnation
// before the incarnation is declared failed.
constexpr int kMaxShardRetries = 4;
// OFCS checkpoint cadence: snapshot + journal rotation every N closed
// cycles.
constexpr int kCheckpointEveryCycles = 1;

// ---------------------------------------------------------------------
// Shard checkpoint codec: the full UeRecord vector, every field exact
// (doubles as bits) so a reused checkpoint is indistinguishable from a
// re-run.
// ---------------------------------------------------------------------

// v2 appends the §13 byzantine fields (adversary kind, gateway anomaly
// counters, uncharged-per-cycle samples). Old-version checkpoints are
// rejected, which just forces a clean re-run of that shard.
constexpr std::uint8_t kShardRecordVersion = 2;

// Smallest encodings behind each count: a damaged count then fails as
// truncation instead of sizing an allocation or a loop.
constexpr std::size_t kCycleSize = 7 * 8;
constexpr std::size_t kSchemeSize = 1 + 4;
constexpr std::size_t kOutcomeSize = 6 * 8 + 1;
constexpr std::size_t kMinRecordSize =
    8 + 8 + 1 + 3 * 8 + 8 + 4 + 4 + 1 +
    sizeof(epc::AnomalyCounters::protocol_bytes) +
    sizeof(epc::AnomalyCounters::qci_bytes) + 7 * 8 + 4 + 4;

void write_record(ByteWriter& w, const UeRecord& record) {
  w.u64(record.ue_index);
  w.u64(record.imsi.value);
  w.u8(static_cast<std::uint8_t>(record.member.app));
  w.f64(record.member.mean_rss_dbm);
  w.f64(record.member.disconnect_ratio);
  w.f64(record.member.mobility_speed_mps);
  w.u64(record.member.seed);
  w.u32(static_cast<std::uint32_t>(record.cycles.size()));
  for (const testbed::CycleMeasurements& m : record.cycles) {
    w.u64(m.true_sent);
    w.u64(m.true_received);
    w.u64(m.edge_sent);
    w.u64(m.edge_received);
    w.u64(m.op_sent);
    w.u64(m.op_received);
    w.u64(m.gateway_volume);
  }
  w.u32(static_cast<std::uint32_t>(record.outcomes.size()));
  for (const auto& [scheme, outcomes] : record.outcomes) {
    w.u8(static_cast<std::uint8_t>(scheme));
    w.u32(static_cast<std::uint32_t>(outcomes.size()));
    for (const testbed::CycleOutcome& o : outcomes) {
      w.u64(o.expected);
      w.u64(o.charged);
      w.f64(o.gap_mb);
      w.f64(o.gap_mb_per_hr);
      w.f64(o.gap_ratio);
      w.i64(o.rounds);
      w.u8(o.completed ? 1 : 0);
    }
  }
  w.u8(static_cast<std::uint8_t>(record.adversary));
  const epc::AnomalyCounters& a = record.anomaly;
  for (std::uint64_t v : a.protocol_bytes) w.u64(v);
  for (std::uint64_t v : a.qci_bytes) w.u64(v);
  w.u64(a.free_bytes);
  w.u64(a.free_packets);
  w.u64(a.free_small_packets);
  w.u64(a.entropy_millis_sum);
  w.u64(a.zero_rated_bytes);
  w.u64(a.replayed_bytes);
  w.u64(a.replayed_packets);
  w.u32(a.flags);
  w.u32(static_cast<std::uint32_t>(record.uncharged_per_cycle.size()));
  for (std::uint64_t v : record.uncharged_per_cycle) w.u64(v);
}

UeRecord read_record(ByteReader& r) {
  UeRecord record;
  record.ue_index = r.u64();
  record.imsi = epc::Imsi{r.u64()};
  const std::uint8_t app = r.u8();
  if (app > static_cast<std::uint8_t>(testbed::AppKind::GamingQci9)) {
    r.fail("shard checkpoint: unknown app kind");
  }
  record.member.app = static_cast<testbed::AppKind>(app);
  record.member.mean_rss_dbm = r.f64();
  record.member.disconnect_ratio = r.f64();
  record.member.mobility_speed_mps = r.f64();
  record.member.seed = r.u64();

  record.cycles.resize(r.count(kCycleSize));
  for (testbed::CycleMeasurements& m : record.cycles) {
    for (std::uint64_t* field :
         {&m.true_sent, &m.true_received, &m.edge_sent, &m.edge_received,
          &m.op_sent, &m.op_received, &m.gateway_volume}) {
      *field = r.u64();
    }
  }

  // Schemes arrive in the ascending order the map iterates, so every
  // accepted record re-encodes to its bytes.
  const std::uint32_t nschemes = r.count(kSchemeSize);
  for (std::uint32_t i = 0; i < nschemes; ++i) {
    const std::uint8_t raw_scheme = r.u8();
    if (raw_scheme > static_cast<std::uint8_t>(testbed::Scheme::TlcRandom)) {
      r.fail("shard checkpoint: unknown scheme");
    }
    const auto scheme = static_cast<testbed::Scheme>(raw_scheme);
    if (!record.outcomes.empty() &&
        scheme <= record.outcomes.rbegin()->first) {
      r.fail("shard checkpoint: schemes out of order");
    }
    std::vector<testbed::CycleOutcome> outcomes(r.count(kOutcomeSize));
    for (testbed::CycleOutcome& o : outcomes) {
      o.expected = r.u64();
      o.charged = r.u64();
      o.gap_mb = r.f64();
      o.gap_mb_per_hr = r.f64();
      o.gap_ratio = r.f64();
      const std::int64_t rounds = r.i64();
      const std::uint8_t completed = r.u8();
      if (rounds != static_cast<int>(rounds) || completed > 1) {
        r.fail("shard checkpoint: outcome field out of range");
      }
      o.rounds = static_cast<int>(rounds);
      o.completed = completed == 1;
    }
    record.outcomes.emplace_hint(record.outcomes.end(), scheme,
                                 std::move(outcomes));
  }

  const std::uint8_t adversary = r.u8();
  if (adversary >
      static_cast<std::uint8_t>(workloads::AdversaryKind::kVolumeShaper)) {
    r.fail("shard checkpoint: unknown adversary kind");
  }
  record.adversary = static_cast<workloads::AdversaryKind>(adversary);
  epc::AnomalyCounters& a = record.anomaly;
  std::vector<std::uint64_t*> counter_fields;
  for (std::uint64_t& v : a.protocol_bytes) counter_fields.push_back(&v);
  for (std::uint64_t& v : a.qci_bytes) counter_fields.push_back(&v);
  for (std::uint64_t* field :
       {&a.free_bytes, &a.free_packets, &a.free_small_packets,
        &a.entropy_millis_sum, &a.zero_rated_bytes, &a.replayed_bytes,
        &a.replayed_packets}) {
    counter_fields.push_back(field);
  }
  for (std::uint64_t* field : counter_fields) *field = r.u64();
  a.flags = r.u32();
  record.uncharged_per_cycle.resize(r.count(8));
  for (std::uint64_t& v : record.uncharged_per_cycle) v = r.u64();
  return record;
}

}  // namespace

namespace detail {

// tlclint: codec(fleet_shard_checkpoint, encode, version=kShardRecordVersion)
Bytes encode_shard_records(const std::vector<UeRecord>& records) {
  ByteWriter w;
  w.u8(kShardRecordVersion);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const UeRecord& record : records) write_record(w, record);
  return w.take();
}

// tlclint: codec(fleet_shard_checkpoint, decode, version=kShardRecordVersion)
Expected<std::vector<UeRecord>> decode_shard_records(const Bytes& data) {
  ByteReader r(data);
  if (r.u8() != kShardRecordVersion) {
    r.fail("shard checkpoint: unknown version");
  }
  std::vector<UeRecord> records(r.count(kMinRecordSize));
  for (UeRecord& record : records) record = read_record(r);
  if (!r.ok()) return r.error_or("shard checkpoint: truncated");
  if (!r.exhausted()) return Err("shard checkpoint: trailing bytes");
  return records;
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------
// State-file layout under config.state_dir. An empty state_dir turns
// durability off: nothing below reads or writes a file.
// ---------------------------------------------------------------------

bool durable(const SupervisorConfig& config) {
  return !config.state_dir.empty();
}

std::string shard_checkpoint_path(const SupervisorConfig& config, int shard) {
  return config.state_dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string settle_journal_path(const SupervisorConfig& config) {
  return config.state_dir + "/settle.wal";
}

// ---------------------------------------------------------------------
// Shard phase: run (or reuse) every shard under a per-shard wedge
// watchdog. Workers never touch shared state — each fills its own
// SliceOutcome slot, and the slots fold in shard order after the
// fan-out so records and stats are deterministic at any thread count.
// ---------------------------------------------------------------------

struct SliceOutcome {
  std::vector<UeRecord> records;
  int wedges = 0;
  int restarts = 0;
  bool reused_checkpoint = false;
  Status error = Status::Ok();
};

/// A CrashException escapes to the fan-out, which rethrows it on the
/// supervisor's thread once the other workers stop.
SliceOutcome run_one_shard(const SupervisorConfig& config,
                           const detail::ShardSlice& slice) {
  SliceOutcome out;
  const auto scope = static_cast<std::uint64_t>(slice.shard_index);
  const std::string ckpt_path =
      shard_checkpoint_path(config, slice.shard_index);
  for (int attempt = 0;; ++attempt) {
    try {
      if (durable(config)) {
        auto existing = recovery::read_checkpoint_if_present(ckpt_path);
        if (!existing) {
          out.error = Err(existing.error());
          return out;
        }
        if (existing->has_value()) {
          auto records = detail::decode_shard_records(**existing);
          if (!records) {
            // The rename protocol never leaves a torn checkpoint, so a
            // corrupt one means the storage lied — surface it.
            out.error = Err(records.error());
            return out;
          }
          out.records = std::move(*records);
          out.reused_checkpoint = true;
          return out;
        }
      }
      if (config.plan != nullptr) {
        config.plan->fire(recovery::kCrashShardRun, scope);
      }
      std::vector<UeRecord> records =
          detail::run_shard_slice(config.fleet, slice);
      if (config.plan != nullptr) {
        config.plan->fire(recovery::kCrashShardWedge, scope);
      }
      if (durable(config)) {
        Status wrote = recovery::write_checkpoint(
            ckpt_path, detail::encode_shard_records(records), config.plan, scope);
        if (!wrote.ok()) {
          out.error = wrote;
          return out;
        }
      }
      out.records = std::move(records);
      return out;
    } catch (const recovery::WedgeException& wedge) {
      // Watchdog deadline: the shard hung, restart it from its last
      // checkpoint (i.e. from scratch — shards checkpoint only whole).
      ++out.wedges;
      ++out.restarts;
      TLC_WARN("fleet") << "shard " << slice.shard_index << " wedged at "
                        << wedge.site.point << ", restarting (attempt "
                        << (attempt + 1) << ")";
      if (attempt + 1 >= kMaxShardRetries) {
        out.error = Err("supervisor: shard wedged past the watchdog budget");
        return out;
      }
    }
  }
}

Status run_shard_phase(const SupervisorConfig& config,
                       const std::vector<detail::ShardSlice>& slices,
                       SupervisionStats& stats, FleetResult& result) {
  std::vector<SliceOutcome> slots(slices.size());
  util::parallel_for(slices.size(), config.fleet.threads, [&](std::size_t i) {
    slots[i] = run_one_shard(config, slices[i]);
  });

  result.records.reserve(
      static_cast<std::size_t>(std::max(0, config.fleet.ue_count)));
  for (SliceOutcome& slot : slots) {
    stats.wedges += slot.wedges;
    stats.shard_restarts += slot.restarts;
    if (slot.reused_checkpoint) ++stats.shard_checkpoints_reused;
    if (!slot.error.ok()) return slot.error;
    for (UeRecord& record : slot.records) {
      result.records.push_back(std::move(record));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Settlement phase. Durable runs settle chunks of whole UE groups,
// journaled as they finish, with recovered chunks spliced back
// byte-for-byte. Chunks exist only as journal keys, so with durability
// off one settler call covers the whole item list.
// ---------------------------------------------------------------------

/// The fleet's one settler choice: the in-process BatchSettler, or the
/// transport ladder, whose first rung TransportConfig::coding picks.
/// Both run core::settle_by_ue with the same crash plan and `threads`.
transport::LossyBatchReport settle_items(
    const SupervisorConfig& config, const core::RsaKeyCache& keys,
    const std::vector<core::SettlementItem>& items) {
  const FleetConfig& fleet = config.fleet;
  const core::BatchConfig batch = detail::make_batch_config(fleet);
  if (fleet.lossy_transport) {
    transport::LossySettler settler(batch, fleet.transport, keys);
    settler.set_crash_plan(config.plan);
    return settler.settle(items, fleet.threads);
  }
  core::BatchSettler settler(batch, keys);
  settler.set_crash_plan(config.plan);
  transport::LossyBatchReport report;
  report.receipts = settler.settle(items, fleet.threads);
  return report;
}

Status run_settle_phase(const SupervisorConfig& config,
                        SupervisionStats& stats, FleetResult& result) {
  const std::vector<core::SettlementItem> items =
      detail::settlement_items(result.records, config.fleet);
  const core::RsaKeyCache keys(config.fleet.rsa_bits,
                               config.fleet.key_cache_slots,
                               detail::key_cache_seed(config.fleet));

  if (!durable(config)) {
    transport::LossyBatchReport report = settle_items(config, keys, items);
    result.receipts = std::move(report.receipts);
    result.coded_totals = report.coded;
    return Status::Ok();
  }

  auto journal = transport::SettlementJournal::open(
      settle_journal_path(config), config.plan, /*scope=*/0);
  if (!journal) return Err(journal.error());
  stats.settle_chunks_recovered += journal->recovered().size();

  // Chunk boundaries: groups of `settle_chunk_ues` consecutive whole
  // UE groups, derived from the (pure) item list — identical in every
  // incarnation, which is what makes chunk indices stable journal keys.
  const std::size_t chunk_ues = std::max<std::size_t>(1, config.settle_chunk_ues);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t i = 0; i < items.size();) {
    std::size_t j = i;
    for (std::size_t ues = 0; j < items.size() && ues < chunk_ues; ++ues) {
      const std::uint64_t ue = items[j].ue_id;
      while (j < items.size() && items[j].ue_id == ue) ++j;
    }
    chunks.emplace_back(i, j);
    i = j;
  }

  result.receipts.reserve(items.size());
  for (std::size_t chunk_index = 0; chunk_index < chunks.size();
       ++chunk_index) {
    const auto recovered =
        journal->recovered().find(static_cast<std::uint32_t>(chunk_index));
    if (recovered != journal->recovered().end()) {
      result.receipts.insert(result.receipts.end(),
                             recovered->second.receipts.begin(),
                             recovered->second.receipts.end());
      result.coded_totals += recovered->second.coded;
      continue;
    }
    const auto [begin, end] = chunks[chunk_index];
    const std::vector<core::SettlementItem> chunk_items(
        items.begin() + static_cast<std::ptrdiff_t>(begin),
        items.begin() + static_cast<std::ptrdiff_t>(end));
    transport::LossyBatchReport report =
        settle_items(config, keys, chunk_items);
    Status journaled = journal->record_chunk(
        static_cast<std::uint32_t>(chunk_index), report.receipts,
        report.coded);
    if (!journaled.ok()) return journaled;
    result.receipts.insert(result.receipts.end(),
                           std::make_move_iterator(report.receipts.begin()),
                           std::make_move_iterator(report.receipts.end()));
    result.coded_totals += report.coded;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Aggregation phase, durable flavour: the OFCS ledger runs write-ahead
// over a StateLog and checkpoints every `kCheckpointEveryCycles`.
// ---------------------------------------------------------------------

Status aggregate_durably(const SupervisorConfig& config,
                         SupervisionStats& stats, FleetResult& result) {
  auto log = recovery::StateLog::open(config.state_dir, "ofcs", config.plan,
                                      /*scope=*/0);
  if (!log) return Err(log.error());
  epc::Ofcs ofcs(detail::fleet_plan(config.fleet));
  Status attached = ofcs.attach_recovery(&*log);
  if (!attached.ok()) return attached;

  Status checkpoint_error = Status::Ok();
  detail::aggregate_fleet(config.fleet, ofcs, result,
                          [&ofcs, &checkpoint_error](int cycle) {
                            if ((cycle + 1) % kCheckpointEveryCycles != 0) {
                              return;
                            }
                            Status s = ofcs.checkpoint();
                            if (!s.ok() && checkpoint_error.ok()) {
                              checkpoint_error = s;
                            }
                          });
  if (!ofcs.recovery_error().ok()) return ofcs.recovery_error();
  if (!checkpoint_error.ok()) return checkpoint_error;
  stats.duplicate_ops_dropped += ofcs.duplicate_ops_dropped();
  return Status::Ok();
}

void remove_state_files(const SupervisorConfig& config,
                        const std::vector<detail::ShardSlice>& slices) {
  auto drop = [](const std::string& path) {
    (void)util::remove_file(path);
    (void)util::remove_file(path + ".tmp");
  };
  for (const detail::ShardSlice& slice : slices) {
    drop(shard_checkpoint_path(config, slice.shard_index));
  }
  drop(settle_journal_path(config));
  drop(config.state_dir + "/ofcs.ckpt");
  drop(config.state_dir + "/ofcs.wal");
}

}  // namespace

namespace detail {

Expected<FleetResult> run_incarnation(const SupervisorConfig& config,
                                      SupervisionStats& stats) {
  FleetResult result;
  const std::vector<ShardSlice> slices = partition_shards(config.fleet);
  if (slices.empty()) return result;

  Status shard_status = run_shard_phase(config, slices, stats, result);
  if (!shard_status.ok()) return Err(shard_status.error());

  collect_gap_samples(result.records, result.gap_samples);

  if (config.fleet.settle) {
    Status settle_status = run_settle_phase(config, stats, result);
    if (!settle_status.ok()) return Err(settle_status.error());
  }

  if (durable(config)) {
    Status aggregated = aggregate_durably(config, stats, result);
    if (!aggregated.ok()) return Err(aggregated.error());
  } else {
    epc::Ofcs ofcs(fleet_plan(config.fleet));
    aggregate_fleet(config.fleet, ofcs, result, nullptr);
  }

  compute_digests(result);
  return result;
}

}  // namespace detail

Expected<SupervisedResult> run_supervised_fleet(
    const SupervisorConfig& config) {
  if (config.state_dir.empty()) {
    return Err("supervisor: state_dir must be set");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.state_dir, ec);
  if (ec) return Err("supervisor: cannot create state_dir: " + ec.message());

  SupervisionStats stats;
  for (int incarnation = 0; incarnation < kMaxIncarnations;
       ++incarnation) {
    ++stats.incarnations;
    if (config.plan != nullptr) config.plan->begin_incarnation();
    try {
      auto result = detail::run_incarnation(config, stats);
      if (!result) return Err(result.error());
      remove_state_files(config, detail::partition_shards(config.fleet));
      return SupervisedResult{std::move(*result), stats};
    } catch (const recovery::CrashException& crash) {
      ++stats.crashes;
      TLC_WARN("fleet") << "incarnation " << incarnation << " died at "
                        << crash.site.point << " scope " << crash.site.scope
                        << " hit " << crash.site.hit << "; restarting";
    } catch (const recovery::WedgeException& wedge) {
      // A wedge outside any shard (journal/checkpoint write hung):
      // the supervisor-level deadline fires and the incarnation
      // restarts wholesale.
      ++stats.wedges;
      TLC_WARN("fleet") << "incarnation " << incarnation << " wedged at "
                        << wedge.site.point << "; restarting";
    }
  }
  return Err("supervisor: incarnation budget exhausted");
}

}  // namespace tlc::fleet
