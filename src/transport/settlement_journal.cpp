#include "transport/settlement_journal.hpp"

#include "util/serde.hpp"

namespace tlc::transport {

/// Wire version of the receipt and chunk records below. Bump on any
/// field order/width change — tools/schemas/settlement_*.schema pins
/// the layout and `ctest -L static` fails on drift. v2 appended the
/// coded-path counters to the chunk record (§17).
constexpr std::uint32_t kSettlementWireVersion = 2;
static_assert(kSettlementWireVersion >= 1);

// tlclint: codec(settlement_receipt, encode, version=kSettlementWireVersion)
void write_receipt(ByteWriter& w, const core::SettlementReceipt& receipt) {
  w.u64(receipt.ue_id);
  w.u32(receipt.cycle);
  w.u8(receipt.completed ? 1 : 0);
  w.u64(receipt.charged);
  w.i64(receipt.rounds);
  w.blob(receipt.poc_wire);
  w.u8(static_cast<std::uint8_t>(receipt.outcome));
  w.i64(receipt.retransmits);
  w.str(receipt.failure_reason);
}

// tlclint: codec(settlement_receipt, decode, version=kSettlementWireVersion)
core::SettlementReceipt read_receipt(ByteReader& r) {
  core::SettlementReceipt receipt;
  receipt.ue_id = r.u64();
  receipt.cycle = r.u32();
  const std::uint8_t completed = r.u8();
  receipt.charged = r.u64();
  const std::int64_t rounds = r.i64();
  receipt.poc_wire = r.blob();
  const std::uint8_t outcome = r.u8();
  const std::int64_t retransmits = r.i64();
  receipt.failure_reason = r.str();
  constexpr auto kLastOutcome =
      static_cast<std::uint8_t>(core::SettleOutcome::RejectedTamper);
  if (outcome > kLastOutcome) {
    r.fail("settlement journal: unknown receipt outcome");
  }
  if (completed > 1 || rounds != static_cast<int>(rounds) ||
      retransmits != static_cast<int>(retransmits)) {
    r.fail("settlement journal: receipt field out of range");
  }
  receipt.completed = completed == 1;
  receipt.rounds = static_cast<int>(rounds);
  receipt.outcome = static_cast<core::SettleOutcome>(outcome);
  receipt.retransmits = static_cast<int>(retransmits);
  return receipt;
}

Expected<SettlementJournal> SettlementJournal::open(const std::string& path,
                                                   recovery::CrashPlan* plan,
                                                   std::uint64_t scope) {
  auto journal = recovery::Journal::open(path, plan, scope);
  if (!journal) return Err(journal.error());
  SettlementJournal settlement(std::move(*journal), plan, scope);

  Status decode_error = Status::Ok();
  auto stats = recovery::Journal::replay(path, [&](const Bytes& record) {
    if (!decode_error.ok()) return;
    // tlclint: codec(settlement_chunk, decode, version=kSettlementWireVersion)
    ByteReader r(record);
    const std::uint32_t chunk_index = r.u32();
    RecoveredChunk chunk;
    chunk.receipts.resize(r.count(kMinEncodedReceiptSize));
    for (core::SettlementReceipt& receipt : chunk.receipts) {
      receipt = read_receipt(r);
    }
    chunk.coded.generations = r.u64();
    chunk.coded.generations_decoded = r.u64();
    chunk.coded.packets_sent = r.u64();
    chunk.coded.packets_delivered = r.u64();
    chunk.coded.packets_dependent = r.u64();
    chunk.coded.packets_corrupt = r.u64();
    chunk.coded.acks_sent = r.u64();
    chunk.coded.cycles_coded = r.u64();
    chunk.coded.fallbacks = r.u64();
    chunk.coded.bytes_on_wire = r.u64();
    if (!r.ok()) {
      decode_error = r.error_or("settlement journal: truncated receipt");
      return;
    }
    if (!r.exhausted()) {
      decode_error = Err("settlement journal: trailing bytes in chunk");
      return;
    }
    // Duplicate chunk records (post-append crash, chunk re-recorded by
    // an over-cautious caller) are idempotent: the receipts are
    // identical by the purity argument, keep the first.
    settlement.recovered_.emplace(chunk_index, std::move(chunk));
  });
  if (!stats) return Err(stats.error());
  if (!decode_error.ok()) return Err(decode_error.error());
  return settlement;
}

Status SettlementJournal::record_chunk(
    std::uint32_t chunk_index,
    const std::vector<core::SettlementReceipt>& receipts,
    const CodedCounters& coded) {
  if (plan_ != nullptr) plan_->fire(recovery::kCrashSettleChunkPre, scope_);
  // tlclint: codec(settlement_chunk, encode, version=kSettlementWireVersion)
  ByteWriter w;
  w.u32(chunk_index);
  w.u32(static_cast<std::uint32_t>(receipts.size()));
  for (const core::SettlementReceipt& receipt : receipts) {
    write_receipt(w, receipt);
  }
  w.u64(coded.generations);
  w.u64(coded.generations_decoded);
  w.u64(coded.packets_sent);
  w.u64(coded.packets_delivered);
  w.u64(coded.packets_dependent);
  w.u64(coded.packets_corrupt);
  w.u64(coded.acks_sent);
  w.u64(coded.cycles_coded);
  w.u64(coded.fallbacks);
  w.u64(coded.bytes_on_wire);
  if (Status appended = journal_.append(w.data()); !appended.ok()) {
    return appended;
  }
  if (plan_ != nullptr) plan_->fire(recovery::kCrashSettleChunkPost, scope_);
  return Status::Ok();
}

Status SettlementJournal::reset() {
  recovered_.clear();
  return journal_.rotate();
}

}  // namespace tlc::transport
