#include "transport/settlement_journal.hpp"

#include <algorithm>

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
Expected<core::SettlementReceipt> read_receipt(ByteReader& r) {
  core::SettlementReceipt receipt;
  auto ue_id = r.u64();
  auto cycle = r.u32();
  auto completed = r.u8();
  auto charged = r.u64();
  auto rounds = r.i64();
  if (!ue_id || !cycle || !completed || !charged || !rounds) {
    return Err("settlement journal: truncated receipt");
  }
  receipt.ue_id = *ue_id;
  receipt.cycle = *cycle;
  receipt.completed = *completed != 0;
  receipt.charged = *charged;
  receipt.rounds = static_cast<int>(*rounds);
  auto poc_wire = r.blob();
  if (!poc_wire) return Err("settlement journal: " + poc_wire.error());
  receipt.poc_wire = std::move(*poc_wire);
  auto outcome = r.u8();
  auto retransmits = r.i64();
  if (!outcome || !retransmits) {
    return Err("settlement journal: truncated receipt");
  }
  constexpr auto kLastOutcome =
      static_cast<std::uint8_t>(core::SettleOutcome::RejectedTamper);
  if (*outcome > kLastOutcome) {
    return Err("settlement journal: unknown receipt outcome");
  }
  receipt.outcome = static_cast<core::SettleOutcome>(*outcome);
  receipt.retransmits = static_cast<int>(*retransmits);
  auto failure_reason = r.str();
  if (!failure_reason) {
    return Err("settlement journal: " + failure_reason.error());
  }
  receipt.failure_reason = std::move(*failure_reason);
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
    auto chunk_index = r.u32();
    auto count = r.u32();
    if (!chunk_index || !count) {
      decode_error = Err("settlement journal: truncated chunk record");
      return;
    }
    RecoveredChunk chunk;
    chunk.receipts.reserve(
        std::min<std::size_t>(*count, r.remaining() / kMinEncodedReceiptSize));
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto receipt = read_receipt(r);
      if (!receipt) {
        decode_error = Err(receipt.error());
        return;
      }
      chunk.receipts.push_back(std::move(*receipt));
    }
    auto generations = r.u64();
    auto generations_decoded = r.u64();
    auto packets_sent = r.u64();
    auto packets_delivered = r.u64();
    auto packets_dependent = r.u64();
    auto packets_corrupt = r.u64();
    auto acks_sent = r.u64();
    auto cycles_coded = r.u64();
    auto fallbacks = r.u64();
    auto bytes_on_wire = r.u64();
    if (!generations || !generations_decoded || !packets_sent ||
        !packets_delivered || !packets_dependent || !packets_corrupt ||
        !acks_sent || !cycles_coded || !fallbacks || !bytes_on_wire) {
      decode_error = Err("settlement journal: truncated coded counters");
      return;
    }
    chunk.coded.generations = *generations;
    chunk.coded.generations_decoded = *generations_decoded;
    chunk.coded.packets_sent = *packets_sent;
    chunk.coded.packets_delivered = *packets_delivered;
    chunk.coded.packets_dependent = *packets_dependent;
    chunk.coded.packets_corrupt = *packets_corrupt;
    chunk.coded.acks_sent = *acks_sent;
    chunk.coded.cycles_coded = *cycles_coded;
    chunk.coded.fallbacks = *fallbacks;
    chunk.coded.bytes_on_wire = *bytes_on_wire;
    // Duplicate chunk records (post-append crash, chunk re-recorded by
    // an over-cautious caller) are idempotent: the receipts are
    // identical by the purity argument, keep the first.
    settlement.recovered_.emplace(*chunk_index, std::move(chunk));
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
