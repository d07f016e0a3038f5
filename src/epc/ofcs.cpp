#include "epc/ofcs.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"
#include "util/serde.hpp"

namespace tlc::epc {
namespace {

// Journal op encoding (the OFCS StateLog payloads). CDRs get a
// full-width codec here — the 34-byte compact wire form truncates
// volumes to u32 and times to seconds, which would make replayed state
// diverge from the live ledger.
constexpr std::uint8_t kOpIngest = 1;
constexpr std::uint8_t kOpClose = 2;

// Version 2 extends the CDR codec with the §13 audit fields
// (uncharged volumes + anomaly flags); journals and snapshots written
// by version 1 are no longer readable, which is fine — supervisor state
// directories never outlive a binary in this repo.
// v3: bill amounts moved from f64 currency units to u64 micro-units.
// v4: the settlement census and settled keys left the snapshot, and the
// settle op (tag 3) left the journal; the census is folded from the
// settlement receipts instead.
constexpr std::uint8_t kSnapshotVersion = 4;

// Smallest encodings behind each snapshot count: a bill line, a
// subscriber with an empty archive and no lines, and a seen-CDR key.
constexpr std::size_t kBillLineSize = 29;
constexpr std::size_t kMinSubscriberSize = 65;
constexpr std::size_t kSeenCdrSize = 14;

/// A u8 flag: 0 or 1, anything else is not a canonical encoding.
bool read_flag(ByteReader& r) {
  const std::uint8_t flag = r.u8();
  if (flag > 1) r.fail("ofcs: flag byte past 1");
  return flag == 1;
}

// tlclint: codec(ofcs_bill_line, encode, version=kSnapshotVersion)
void write_line(ByteWriter& w, const BillLine& line) {
  w.u32(line.cycle_index);
  w.u64(line.gateway_volume);
  w.u64(line.billed_volume);
  w.u64(line.amount_micro);
  w.u8(line.throttled ? 1 : 0);
}

// tlclint: codec(ofcs_bill_line, decode, version=kSnapshotVersion)
BillLine read_line(ByteReader& r) {
  BillLine line;
  line.cycle_index = r.u32();
  line.gateway_volume = r.u64();
  line.billed_volume = r.u64();
  line.amount_micro = r.u64();
  line.throttled = read_flag(r);
  return line;
}

// tlclint: codec(ofcs_op_ingest, encode, version=kSnapshotVersion)
Bytes encode_ingest_op(const ChargingDataRecord& cdr) {
  ByteWriter w;
  w.u8(kOpIngest);
  write_cdr(w, cdr);
  return w.take();
}

// tlclint: codec(ofcs_op_close, encode, version=kSnapshotVersion)
Bytes encode_close_op(Imsi imsi, const BillLine& line) {
  ByteWriter w;
  w.u8(kOpClose);
  w.u64(imsi.value);
  write_line(w, line);
  return w.take();
}

}  // namespace

Ofcs::Ofcs(charging::DataPlan plan) : plan_(plan) {}

void Ofcs::ingest(const ChargingDataRecord& cdr) {
  if (log_ != nullptr) {
    const CdrKey key{cdr.served_imsi.value, cdr.charging_id,
                     cdr.sequence_number};
    if (seen_cdrs_.contains(key)) {
      ++duplicate_ops_dropped_;
      return;
    }
    if (!journal_op(encode_ingest_op(cdr))) return;
  }
  apply_ingest(cdr);
}

void Ofcs::apply_ingest(const ChargingDataRecord& cdr) {
  if (log_ != nullptr) {
    seen_cdrs_.insert(
        CdrKey{cdr.served_imsi.value, cdr.charging_id, cdr.sequence_number});
  }
  State& state = subscribers_[cdr.served_imsi];
  state.archive.push_back(cdr);
  state.pending_ul += cdr.datavolume_uplink;
  state.pending_dl += cdr.datavolume_downlink;
  state.uncharged_bytes += cdr.uncharged_uplink + cdr.uncharged_downlink;
  state.anomaly_flags |= cdr.anomaly_flags;
  ++ingested_;
}

BillLine Ofcs::close_cycle(Imsi imsi) {
  return close_cycle(imsi, subscribers_[imsi].next_cycle);
}

BillLine Ofcs::close_cycle(Imsi imsi, std::uint32_t cycle_index) {
  State& state = subscribers_[imsi];
  if (cycle_index < state.next_cycle) {
    // Already rated (post-recovery re-execution): hand back the stored
    // line, bit for bit. Nothing is re-billed.
    ++duplicate_ops_dropped_;
    return state.billing.lines[cycle_index];
  }

  BillLine line;
  line.cycle_index = state.next_cycle;
  line.gateway_volume = state.pending_ul + state.pending_dl;
  line.billed_volume =
      hook_ ? hook_(imsi, line.cycle_index, line.gateway_volume)
            : line.gateway_volume;
  // Fixed-point rating: bytes x micro-price per MB, floor division at
  // the final step only (no float round-trip anywhere in the bill).
  line.amount_micro =
      line.billed_volume * plan_.price_micro_per_mb / 1'000'000;
  // Quota check for "unlimited" plans: beyond the quota the subscriber
  // keeps service but is throttled (§2.1: e.g. 128 kbps after 15 GB).
  line.throttled = state.billing.total_billed_bytes + line.billed_volume >
                   plan_.quota_bytes;

  // The journaled op carries the fully-rated line (not the inputs), so
  // replay restores the exact amount bits without re-running the hook.
  if (log_ != nullptr && !journal_op(encode_close_op(imsi, line))) {
    return line;
  }
  apply_close(imsi, line);
  return line;
}

void Ofcs::apply_close(Imsi imsi, const BillLine& line) {
  State& state = subscribers_[imsi];
  state.pending_ul = 0;
  state.pending_dl = 0;
  state.next_cycle = line.cycle_index + 1;
  state.billing.total_billed_bytes += line.billed_volume;
  state.billing.total_amount_micro += line.amount_micro;
  state.billing.throttled = line.throttled;
  state.billing.lines.push_back(line);
}

std::vector<Imsi> Ofcs::subscribers() const {
  std::vector<Imsi> imsis;
  imsis.reserve(subscribers_.size());
  // tlclint: ordered — key collection, sorted on the next line
  for (const auto& [imsi, state] : subscribers_) imsis.push_back(imsi);
  std::sort(imsis.begin(), imsis.end());
  return imsis;
}

std::vector<std::pair<Imsi, BillLine>> Ofcs::close_cycle_all() {
  std::vector<std::pair<Imsi, BillLine>> lines;
  for (Imsi imsi : subscribers()) {
    lines.emplace_back(imsi, close_cycle(imsi));
  }
  return lines;
}

std::vector<std::pair<Imsi, BillLine>> Ofcs::close_cycle_all(
    std::uint32_t cycle_index) {
  std::vector<std::pair<Imsi, BillLine>> lines;
  for (Imsi imsi : subscribers()) {
    lines.emplace_back(imsi, close_cycle(imsi, cycle_index));
  }
  return lines;
}

Ofcs::FleetTotals Ofcs::totals() const {
  FleetTotals totals;
  totals.subscribers = subscribers_.size();
  // Ascending-IMSI accumulation keeps the rollup order-stable across
  // runs (unordered_map iteration order is not part of the fleet
  // determinism contract); integer micro-units make the sum exact.
  for (Imsi imsi : subscribers()) {
    const State& state = subscribers_.at(imsi);
    totals.billed_bytes += state.billing.total_billed_bytes;
    totals.amount_micro += state.billing.total_amount_micro;
    if (state.billing.throttled) ++totals.throttled;
    totals.uncharged_bytes += state.uncharged_bytes;
    if (state.anomaly_flags != 0) ++totals.flagged_subscribers;
  }
  return totals;
}

std::uint64_t Ofcs::uncharged_bytes(Imsi imsi) const {
  auto it = subscribers_.find(imsi);
  return it == subscribers_.end() ? 0 : it->second.uncharged_bytes;
}

std::uint32_t Ofcs::anomaly_flags(Imsi imsi) const {
  auto it = subscribers_.find(imsi);
  return it == subscribers_.end() ? 0 : it->second.anomaly_flags;
}

const SubscriberBilling* Ofcs::billing(Imsi imsi) const {
  auto it = subscribers_.find(imsi);
  return it == subscribers_.end() ? nullptr : &it->second.billing;
}

const std::vector<ChargingDataRecord>* Ofcs::archive(Imsi imsi) const {
  auto it = subscribers_.find(imsi);
  return it == subscribers_.end() ? nullptr : &it->second.archive;
}

// ---- Crash recovery -------------------------------------------------

Status Ofcs::attach_recovery(recovery::StateLog* log) {
  log_ = log;
  recovery_error_ = Status::Ok();
  duplicate_ops_dropped_ = 0;
  if (log == nullptr) return Status::Ok();

  auto recovered = log->recover();
  if (!recovered) return Err(recovered.error());
  if (recovered->snapshot.has_value()) {
    if (Status restored = restore_state(*recovered->snapshot);
        !restored.ok()) {
      return restored;
    }
  }
  // Re-apply the op suffix. Ops already folded into the snapshot (the
  // crash-between-checkpoint-and-rotate window) are dropped by their
  // record IDs.
  for (const Bytes& op : recovered->ops) {
    if (Status applied = apply_journal_op(op); !applied.ok()) return applied;
  }
  if (recovered->journal_stats.torn_tail()) {
    TLC_WARN("ofcs") << "journal had a torn tail; dropped "
                     << recovered->journal_stats.truncated_bytes
                     << " unacknowledged bytes";
  }
  return Status::Ok();
}

Status Ofcs::checkpoint() {
  if (log_ == nullptr) return Err("ofcs: checkpoint without recovery log");
  return log_->checkpoint(serialize_state());
}

bool Ofcs::journal_op(const Bytes& op) {
  if (Status appended = log_->append(op); !appended.ok()) {
    // WAL discipline: no durable op, no apply. Drop the mutation and
    // surface the failure through recovery_error().
    if (recovery_error_.ok()) recovery_error_ = Err(appended.error());
    TLC_WARN("ofcs") << "journal append failed, op dropped: "
                     << appended.error();
    return false;
  }
  return true;
}

// Switch-multiplexed replay decoder: each branch's layout is pinned by
// the encode-only ofcs_op_* schemas, so no single codec shape fits here.
// tlclint: allow(schema-coverage) multiplexed decoder, see ofcs_op_* schemas
Status Ofcs::apply_journal_op(const Bytes& op) {
  ByteReader r(op);
  const std::uint8_t tag = r.u8();
  if (!r.ok()) return Err("ofcs: empty journal op");
  switch (tag) {
    case kOpIngest: {
      const ChargingDataRecord cdr = read_cdr(r);
      if (!r.ok()) return Err("ofcs: truncated cdr");
      if (!r.exhausted()) return Err("ofcs: trailing bytes in ingest op");
      const CdrKey key{cdr.served_imsi.value, cdr.charging_id,
                       cdr.sequence_number};
      if (seen_cdrs_.contains(key)) {
        ++duplicate_ops_dropped_;
        return Status::Ok();
      }
      apply_ingest(cdr);
      return Status::Ok();
    }
    case kOpClose: {
      const Imsi imsi{r.u64()};
      const BillLine line = read_line(r);
      if (!r.ok()) return r.error_or("ofcs: truncated close op");
      if (!r.exhausted()) return Err("ofcs: trailing bytes in close op");
      const std::uint32_t next_cycle = subscribers_[imsi].next_cycle;
      if (line.cycle_index < next_cycle) {
        ++duplicate_ops_dropped_;
        return Status::Ok();
      }
      // Bill lines are indexed by cycle, so a close may not skip one.
      if (line.cycle_index > next_cycle) {
        return Err("ofcs: close op skips a cycle");
      }
      apply_close(imsi, line);
      return Status::Ok();
    }
    default:
      return Err("ofcs: unknown journal op tag");
  }
}

// tlclint: codec(ofcs_snapshot, encode, version=kSnapshotVersion)
Bytes Ofcs::serialize_state() const {
  ByteWriter w;
  w.u8(kSnapshotVersion);
  w.u64(ingested_);
  w.u32(static_cast<std::uint32_t>(subscribers_.size()));
  for (Imsi imsi : subscribers()) {
    const State& state = subscribers_.at(imsi);
    w.u64(imsi.value);
    w.u32(static_cast<std::uint32_t>(state.archive.size()));
    for (const ChargingDataRecord& cdr : state.archive) write_cdr(w, cdr);
    w.u64(state.pending_ul);
    w.u64(state.pending_dl);
    w.u32(state.next_cycle);
    w.u32(static_cast<std::uint32_t>(state.billing.lines.size()));
    for (const BillLine& line : state.billing.lines) write_line(w, line);
    w.u64(state.billing.total_billed_bytes);
    w.u64(state.billing.total_amount_micro);
    w.u8(state.billing.throttled ? 1 : 0);
    w.u64(state.uncharged_bytes);
    w.u32(state.anomaly_flags);
  }
  w.u32(static_cast<std::uint32_t>(seen_cdrs_.size()));
  for (const auto& [imsi, charging_id, sequence] : seen_cdrs_) {
    w.u64(imsi);
    w.u16(charging_id);
    w.u32(sequence);
  }
  return w.take();
}

// tlclint: codec(ofcs_snapshot, decode, version=kSnapshotVersion)
Status Ofcs::restore_state(const Bytes& snapshot) {
  subscribers_.clear();
  seen_cdrs_.clear();

  // Keys must arrive in the strictly ascending order serialize_state()
  // writes, so that every accepted snapshot re-serializes to its bytes.
  ByteReader r(snapshot);
  if (r.u8() != kSnapshotVersion) {
    r.fail("ofcs snapshot: unsupported version");
  }
  ingested_ = r.u64();
  const std::uint32_t subscriber_count = r.count(kMinSubscriberSize);
  std::uint64_t last_imsi = 0;
  for (std::uint32_t i = 0; i < subscriber_count; ++i) {
    const Imsi imsi{r.u64()};
    if (i > 0 && imsi.value <= last_imsi) {
      r.fail("ofcs snapshot: subscribers out of order");
    }
    last_imsi = imsi.value;
    State& state = subscribers_[imsi];
    state.archive.resize(r.count(kFullCdrSize));
    for (ChargingDataRecord& cdr : state.archive) {
      cdr = read_cdr(r);
    }
    state.pending_ul = r.u64();
    state.pending_dl = r.u64();
    state.next_cycle = r.u32();
    state.billing.lines.resize(r.count(kBillLineSize));
    // Bill lines are indexed by cycle, with next_cycle one past them.
    std::uint32_t cycle = 0;
    for (BillLine& line : state.billing.lines) {
      line = read_line(r);
      if (line.cycle_index != cycle++) {
        r.fail("ofcs snapshot: bill line out of cycle order");
      }
    }
    if (state.next_cycle != state.billing.lines.size()) {
      r.fail("ofcs snapshot: next cycle is not the line count");
    }
    state.billing.total_billed_bytes = r.u64();
    state.billing.total_amount_micro = r.u64();
    state.billing.throttled = read_flag(r);
    state.uncharged_bytes = r.u64();
    state.anomaly_flags = r.u32();
  }
  const std::uint32_t seen_count = r.count(kSeenCdrSize);
  for (std::uint32_t i = 0; i < seen_count; ++i) {
    const std::uint64_t imsi = r.u64();
    const std::uint16_t charging_id = r.u16();
    const std::uint32_t sequence = r.u32();
    const CdrKey key{imsi, charging_id, sequence};
    if (!seen_cdrs_.empty() && key <= *seen_cdrs_.rbegin()) {
      r.fail("ofcs snapshot: seen CDRs out of order");
    }
    seen_cdrs_.insert(seen_cdrs_.end(), key);
  }
  if (!r.ok()) return r.error_or("ofcs snapshot: truncated");
  if (!r.exhausted()) return Err("ofcs snapshot: trailing bytes");
  return Status::Ok();
}

}  // namespace tlc::epc
