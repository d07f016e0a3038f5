// Network-coded settlement transport (§17): rateless RLNC sessions
// that survive lossy edge links.
//
// The stop-and-wait path (§8) pays a full RTT per loss. Here the
// sealed settlement batch of one UE group — every cycle's receipt,
// PoC wire included — is split into generations of fixed-size chunks
// and streamed through the same FaultyChannel as GF(2^8) random
// linear combinations: the sender keeps emitting coded packets until
// the receiver's Gaussian elimination reaches full rank and answers
// with a single end-of-generation ACK. No per-packet ACKs, so k
// losses cost k extra coded packets instead of k RTTs.
//
// Degradation ladder (lossy_settlement.hpp): when a generation
// exhausts its packet budget (generation_size × max_overhead), the
// transfer its tick budget, or the payload is not the group's, the
// whole group falls back one rung to stop-and-wait — which itself
// degrades unconvergeable cycles to the legacy CDR bill.
//
// Determinism contract: coefficient draws come from the dedicated
// kCodedCoeffStream seed stream keyed by (transport.seed, ue,
// generation); fault schedules reuse the stop-and-wait rung's per-UE
// channel stream. A group's coded transfer is a pure function of its
// inputs wherever it runs — receipts, counters and every wire byte
// are bit-identical at any thread count, and with coding off nothing
// here executes at all.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_settlement.hpp"
#include "recovery/crash_plan.hpp"
#include "recovery/journal.hpp"
#include "transport/faulty_channel.hpp"
#include "transport/rlnc.hpp"
#include "transport/transport_config.hpp"
#include "util/expected.hpp"

namespace tlc::transport {

/// Named seed stream for RLNC coefficient draws ("coef"). Keyed under
/// TransportConfig::seed; per-group children are keyed by UE id, so a
/// fleet's coefficient randomness never collides with the fault or
/// jitter streams.
inline constexpr std::uint64_t kCodedCoeffStream = 0x636f6566ULL;

/// One coded packet on the wire (codec: transport_coded_packet).
struct CodedPacket {
  std::uint64_t transfer_id = 0;
  std::uint32_t generation = 0;
  /// Chunks in this packet's generation (the tail generation of a
  /// transfer may be shorter than CodedConfig::generation_size).
  std::uint16_t generation_size = 0;
  std::uint16_t chunk_bytes = 0;
  /// Exact sealed-payload length of the whole transfer; the decoder
  /// trims the zero-padded tail chunk back to this.
  std::uint32_t payload_len = 0;
  Bytes coefficients;  // generation_size GF(2^8) entries
  Bytes body;          // chunk_bytes combined bytes
};

/// End-of-generation acknowledgement (codec: transport_generation_ack).
struct GenerationAck {
  std::uint64_t transfer_id = 0;
  std::uint32_t generation = 0;
  /// Receiver rank for that generation; == generation_size means
  /// decoded, anything less is advisory.
  std::uint16_t rank = 0;
};

/// Wire codecs. Both messages end with a CRC32C over every byte
/// before it, so channel corruption and truncation are screened
/// before any field is trusted (a corrupt packet must never reach the
/// decoder's row set — Gaussian elimination would happily absorb it).
[[nodiscard]] Bytes encode_coded_packet(const CodedPacket& packet);
[[nodiscard]] Expected<CodedPacket> decode_coded_packet(const Bytes& wire);
[[nodiscard]] Bytes encode_generation_ack(const GenerationAck& ack);
[[nodiscard]] Expected<GenerationAck> decode_generation_ack(const Bytes& wire);

/// Receiving endpoint of one coded transfer. Owns a GenerationDecoder
/// per generation and, when a journal is attached, appends every
/// innovative packet's raw wire before acknowledging it — so a
/// restarted endpoint replays the journal through `restore()` and
/// resumes mid-generation at its journaled rank instead of starting
/// the generation over (DESIGN.md §17.4).
class CodedReceiver {
 public:
  explicit CodedReceiver(CodedConfig config);

  /// Journal for innovative packets; crash points kCrashCodedPacketPre
  /// (packet dies with the process) and kCrashCodedPacketPost (packet
  /// durable) bracket each append when `plan` is armed.
  void attach_journal(recovery::Journal* journal);
  void set_crash_plan(recovery::CrashPlan* plan, std::uint64_t scope);

  struct Intake {
    enum class Kind : std::uint8_t { Innovative, Dependent, Corrupt };
    Kind kind = Kind::Corrupt;
    /// An end-of-generation ACK should be sent (set on completion and
    /// again on any packet for an already-complete generation — the
    /// lost-ACK recovery path).
    bool ack_due = false;
    GenerationAck ack;
  };

  /// Feeds one raw wire message through CRC screening, geometry
  /// checks and the decoder; journals innovative packets.
  [[nodiscard]] Intake on_wire(const Bytes& wire);

  /// Replays one journaled packet record (recovery path: rank is
  /// rebuilt, nothing is re-journaled, no crash points fire).
  void restore(const Bytes& wire);

  /// Decoded generations so far / total (total known after the first
  /// accepted packet).
  [[nodiscard]] std::uint32_t generations_complete() const;
  [[nodiscard]] std::uint32_t generation_count() const {
    return generation_count_;
  }
  [[nodiscard]] std::uint16_t rank(std::uint32_t generation) const;
  [[nodiscard]] bool complete() const;

  /// The reassembled sealed payload, trimmed to the transfer's exact
  /// length. Fails below full rank — never partial plaintext.
  [[nodiscard]] Expected<Bytes> payload() const;

 private:
  [[nodiscard]] bool accept_geometry(const CodedPacket& packet);
  Intake ingest(const Bytes& wire, bool journal_and_fire);

  CodedConfig config_;
  recovery::Journal* journal_ = nullptr;
  recovery::CrashPlan* plan_ = nullptr;
  std::uint64_t scope_ = 0;

  bool geometry_known_ = false;
  std::uint64_t transfer_id_ = 0;
  std::uint16_t chunk_bytes_known_ = 0;
  std::uint32_t payload_len_ = 0;
  std::uint32_t chunk_count_ = 0;
  std::uint32_t generation_count_ = 0;
  std::vector<GenerationDecoder> decoders_;
};

/// Everything the sender learned from driving one transfer.
struct TransferOutcome {
  /// Receiver reached full rank on every generation and the sender
  /// saw the final ACK. False means a budget ran out — the caller
  /// takes the next rung on the degradation ladder.
  bool delivered = false;
  CodedCounters counters;
  std::uint64_t end_tick = 0;
};

/// Drives one sealed payload through a FaultyChannel: systematic
/// first burst, redundancy-adaptive top-ups on ACK timeout, single
/// end-of-generation ACKs. Virtual-clock event loop in the style of
/// SettlementRunner — every iteration advances to the next delivery
/// or deadline, so the loop is structurally never stuck.
class CodedTransfer {
 public:
  /// Packets travel Dir::ToOperator, ACKs Dir::ToEdge. `coeff_seed`
  /// roots the per-generation coefficient streams.
  CodedTransfer(CodedConfig config, FaultyChannel& channel,
                std::uint64_t transfer_id, Bytes payload,
                std::uint64_t coeff_seed, std::uint64_t start_tick = 0);

  /// Runs to delivery or budget exhaustion. The receiver may already
  /// hold journaled rank (crash resume): completed generations are
  /// re-ACKed off the first packet they see and cost one burst, not a
  /// re-receive of their rank.
  [[nodiscard]] TransferOutcome run(CodedReceiver& receiver);

 private:
  CodedConfig config_;
  FaultyChannel& channel_;
  std::uint64_t transfer_id_;
  Bytes payload_;
  std::uint64_t coeff_seed_;
  std::uint64_t now_;
};

/// Seals a group's receipts into the coded-transfer payload (u32
/// count + full-fidelity receipts) / parses it back. Shared with the
/// property tests so "decoded == sent" is asserted on real bytes.
[[nodiscard]] Bytes seal_receipts(
    const std::vector<core::SettlementReceipt>& receipts);
[[nodiscard]] Expected<std::vector<core::SettlementReceipt>> unseal_receipts(
    const Bytes& payload);

/// unseal_receipts, plus a typed error unless the receipts are exactly
/// (ue_id, 0..cycles-1) in order: CRC32C does not authenticate the
/// peer, and these fields key the OFCS ledger.
[[nodiscard]] Expected<std::vector<core::SettlementReceipt>>
unseal_group_receipts(const Bytes& payload, std::uint64_t ue_id,
                      std::size_t cycles);

}  // namespace tlc::transport
