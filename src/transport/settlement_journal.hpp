// Durable settlement progress: receipts journaled per chunk so a
// crashed settlement pass resumes instead of re-negotiating.
//
// The supervised fleet splits a settlement pass into chunks of whole
// UE groups. Each chunk's receipts are journaled as one record the
// moment the chunk finishes; a process that dies mid-pass replays the
// journal, keeps the finished chunks' receipts byte-for-byte, and
// re-runs only the unfinished chunks. That is sound because a UE
// group is a pure function of its inputs (batch_settlement.hpp /
// lossy_settlement.hpp determinism contracts): re-running a chunk in a
// new incarnation yields the receipts the dead incarnation would have
// produced, so the spliced result is bit-identical to a crash-free
// pass — including every PoC byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/batch_settlement.hpp"
#include "recovery/crash_plan.hpp"
#include "recovery/journal.hpp"
#include "transport/transport_config.hpp"
#include "util/expected.hpp"
#include "util/serde.hpp"

namespace tlc::transport {

/// Full-fidelity receipt codec (every field round-trips exactly,
/// poc_wire included) — shared by the chunk records here and by tests.
void write_receipt(ByteWriter& w, const core::SettlementReceipt& receipt);
/// Reads one receipt; a short read or an unknown outcome latches on `r`.
[[nodiscard]] core::SettlementReceipt read_receipt(ByteReader& r);

/// Encoded size of the smallest receipt (empty PoC and failure reason):
/// ue_id, cycle, completed, charged, rounds, PoC length, outcome,
/// retransmits, reason length. The receipt count is read through
/// ByteReader::count() with it.
inline constexpr std::size_t kMinEncodedReceiptSize =
    8 + 4 + 1 + 8 + 8 + 4 + 1 + 8 + 4;

/// One journaled settlement chunk: the receipts plus the coded-path
/// census the chunk's transfers accumulated (all-zero when the chunk
/// settled stop-and-wait or in-process). Splicing the counters back
/// keeps supervised coded runs byte-identical to detached ones.
struct RecoveredChunk {
  std::vector<core::SettlementReceipt> receipts;
  CodedCounters coded;
};

class SettlementJournal {
 public:
  /// Opens `path`, replaying any chunks a previous incarnation left
  /// behind into `recovered()`.
  [[nodiscard]] static Expected<SettlementJournal> open(
      const std::string& path, recovery::CrashPlan* plan = nullptr,
      std::uint64_t scope = 0);

  /// Chunks recovered at open, keyed by chunk index.
  [[nodiscard]] const std::map<std::uint32_t, RecoveredChunk>& recovered()
      const {
    return recovered_;
  }

  /// Journals one finished chunk. Crash points bracket the append
  /// (settle-chunk-pre: work lost, chunk re-runs; settle-chunk-post:
  /// work durable, replay must not double-count it).
  [[nodiscard]] Status record_chunk(
      std::uint32_t chunk_index,
      const std::vector<core::SettlementReceipt>& receipts,
      const CodedCounters& coded = CodedCounters{});

  /// Empties the journal once the pass's receipts are consumed
  /// downstream (the OFCS ledger journals its own ops from here on).
  [[nodiscard]] Status reset();

 private:
  SettlementJournal(recovery::Journal journal, recovery::CrashPlan* plan,
                    std::uint64_t scope)
      : journal_(std::move(journal)), plan_(plan), scope_(scope) {}

  recovery::Journal journal_;
  recovery::CrashPlan* plan_ = nullptr;
  std::uint64_t scope_ = 0;
  std::map<std::uint32_t, RecoveredChunk> recovered_;
};

}  // namespace tlc::transport
