#include "transport/coded_session.hpp"

#include <algorithm>
#include <cmath>

#include "recovery/crc32c.hpp"
#include "sim/rng_stream.hpp"
#include "transport/settlement_journal.hpp"
#include "util/serde.hpp"

namespace tlc::transport {
namespace {

/// Wire version of the coded-transport messages below. Bump on any
/// field order/width change — tools/schemas/transport_*.schema pins
/// the layout and `ctest -L static` fails on drift.
constexpr std::uint32_t kCodedWireVersion = 1;
static_assert(kCodedWireVersion >= 1);

/// The first burst of a transfer is the systematic pass only: no extra
/// coded packets until a generation has measured the link's loss.
constexpr double kInitialRedundancy = 0.0;
/// Virtual ticks between consecutive packet submissions in a burst.
constexpr std::uint64_t kPacketIntervalTicks = 1;

/// Ceiling division for packet/chunk geometry.
std::uint32_t div_ceil(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

/// A CodedConfig with the degenerate zeroes clamped away, so geometry
/// arithmetic never divides by zero.
CodedConfig sanitized(CodedConfig config) {
  if (config.generation_size == 0) config.generation_size = 1;
  if (config.chunk_bytes == 0) config.chunk_bytes = 1;
  if (config.ack_timeout_ticks == 0) config.ack_timeout_ticks = 1;
  return config;
}

}  // namespace

// ---------------------------------------------------------------------
// Wire codecs. The trailing CRC32C covers every byte before it; both
// decoders verify it only after the field walk consumed the buffer
// exactly, so a corrupted length prefix can never smuggle unchecked
// bytes past the screen.
// ---------------------------------------------------------------------

// tlclint: codec(transport_coded_packet, encode, version=kCodedWireVersion)
Bytes encode_coded_packet(const CodedPacket& packet) {
  ByteWriter w;
  w.u64(packet.transfer_id);
  w.u32(packet.generation);
  w.u16(packet.generation_size);
  w.u16(packet.chunk_bytes);
  w.u32(packet.payload_len);
  w.blob(packet.coefficients);
  w.blob(packet.body);
  const std::uint32_t crc = recovery::crc32c(w.data());
  w.u32(crc);
  return w.take();
}

// tlclint: codec(transport_coded_packet, decode, version=kCodedWireVersion)
Expected<CodedPacket> decode_coded_packet(const Bytes& wire) {
  ByteReader r(wire);
  CodedPacket packet;
  packet.transfer_id = r.u64();
  packet.generation = r.u32();
  packet.generation_size = r.u16();
  packet.chunk_bytes = r.u16();
  packet.payload_len = r.u32();
  packet.coefficients = r.blob();
  packet.body = r.blob();
  const std::uint32_t crc = r.u32();
  if (!r.ok()) return Err("coded packet: " + r.error());
  if (!r.exhausted()) return Err("coded packet: trailing bytes");
  if (crc != recovery::crc32c_extend(0, wire.data(), wire.size() - 4)) {
    return Err("coded packet: crc mismatch");
  }
  return packet;
}

// tlclint: codec(transport_generation_ack, encode, version=kCodedWireVersion)
Bytes encode_generation_ack(const GenerationAck& ack) {
  ByteWriter w;
  w.u64(ack.transfer_id);
  w.u32(ack.generation);
  w.u16(ack.rank);
  const std::uint32_t crc = recovery::crc32c(w.data());
  w.u32(crc);
  return w.take();
}

// tlclint: codec(transport_generation_ack, decode, version=kCodedWireVersion)
Expected<GenerationAck> decode_generation_ack(const Bytes& wire) {
  ByteReader r(wire);
  GenerationAck ack;
  ack.transfer_id = r.u64();
  ack.generation = r.u32();
  ack.rank = r.u16();
  const std::uint32_t crc = r.u32();
  if (!r.ok()) return Err("generation ack: truncated");
  if (!r.exhausted()) return Err("generation ack: trailing bytes");
  if (crc != recovery::crc32c_extend(0, wire.data(), wire.size() - 4)) {
    return Err("generation ack: crc mismatch");
  }
  return ack;
}

// ---------------------------------------------------------------------
// CodedReceiver
// ---------------------------------------------------------------------

CodedReceiver::CodedReceiver(CodedConfig config)
    : config_(sanitized(config)) {}

void CodedReceiver::attach_journal(recovery::Journal* journal) {
  journal_ = journal;
}

void CodedReceiver::set_crash_plan(recovery::CrashPlan* plan,
                                   std::uint64_t scope) {
  plan_ = plan;
  scope_ = scope;
}

bool CodedReceiver::accept_geometry(const CodedPacket& packet) {
  if (!geometry_known_) {
    if (packet.payload_len == 0 || packet.chunk_bytes == 0) return false;
    transfer_id_ = packet.transfer_id;
    payload_len_ = packet.payload_len;
    chunk_count_ = div_ceil(payload_len_, packet.chunk_bytes);
    generation_count_ = div_ceil(chunk_count_, config_.generation_size);
    decoders_.reserve(generation_count_);
    for (std::uint32_t g = 0; g < generation_count_; ++g) {
      const std::uint32_t first = g * config_.generation_size;
      const std::uint16_t size = static_cast<std::uint16_t>(
          std::min<std::uint32_t>(config_.generation_size,
                                  chunk_count_ - first));
      decoders_.emplace_back(size, packet.chunk_bytes);
    }
    chunk_bytes_known_ = packet.chunk_bytes;
    geometry_known_ = true;
  }
  if (packet.transfer_id != transfer_id_ ||
      packet.payload_len != payload_len_ ||
      packet.chunk_bytes != chunk_bytes_known_ ||
      packet.generation >= generation_count_) {
    return false;
  }
  const GenerationDecoder& decoder = decoders_[packet.generation];
  return packet.generation_size == decoder.generation_size() &&
         packet.coefficients.size() == decoder.generation_size() &&
         packet.body.size() == chunk_bytes_known_;
}

CodedReceiver::Intake CodedReceiver::ingest(const Bytes& wire,
                                            bool journal_and_fire) {
  Intake intake;
  auto packet = decode_coded_packet(wire);
  if (!packet || !accept_geometry(*packet)) {
    intake.kind = Intake::Kind::Corrupt;
    return intake;
  }
  GenerationDecoder& decoder = decoders_[packet->generation];
  const bool was_complete = decoder.complete();
  CodedSymbol symbol;
  symbol.coefficients = std::move(packet->coefficients);
  symbol.body = std::move(packet->body);
  const bool innovative = decoder.add(symbol);
  if (innovative && journal_and_fire) {
    // The packet's rank is only durable once the raw wire is framed
    // in the journal — the pre point models dying with it in memory,
    // the post point dying right after it became replayable.
    if (plan_ != nullptr) plan_->fire(recovery::kCrashCodedPacketPre, scope_);
    if (journal_ != nullptr) (void)journal_->append(wire);
    if (plan_ != nullptr) plan_->fire(recovery::kCrashCodedPacketPost, scope_);
  }
  intake.kind =
      innovative ? Intake::Kind::Innovative : Intake::Kind::Dependent;
  // Single end-of-generation ACK — re-sent whenever a straggler or
  // top-up packet lands on an already-complete generation, which is
  // what recovers a lost ACK without any receiver-side timer.
  if (decoder.complete() && (innovative || was_complete)) {
    intake.ack_due = true;
    intake.ack.transfer_id = transfer_id_;
    intake.ack.generation = packet->generation;
    intake.ack.rank = decoder.rank();
  }
  return intake;
}

CodedReceiver::Intake CodedReceiver::on_wire(const Bytes& wire) {
  return ingest(wire, /*journal_and_fire=*/true);
}

void CodedReceiver::restore(const Bytes& wire) {
  (void)ingest(wire, /*journal_and_fire=*/false);
}

std::uint32_t CodedReceiver::generations_complete() const {
  std::uint32_t complete = 0;
  for (const GenerationDecoder& decoder : decoders_) {
    if (decoder.complete()) ++complete;
  }
  return complete;
}

std::uint16_t CodedReceiver::rank(std::uint32_t generation) const {
  if (generation >= decoders_.size()) return 0;
  return decoders_[generation].rank();
}

bool CodedReceiver::complete() const {
  return geometry_known_ && generations_complete() == generation_count_;
}

Expected<Bytes> CodedReceiver::payload() const {
  if (!complete()) return Err("coded receiver: transfer not decoded");
  Bytes out;
  out.reserve(static_cast<std::size_t>(chunk_count_) * chunk_bytes_known_);
  for (const GenerationDecoder& decoder : decoders_) {
    for (const Bytes& chunk : decoder.chunks()) {
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
  }
  out.resize(payload_len_);  // trim the zero-padded tail chunk
  return out;
}

// ---------------------------------------------------------------------
// CodedTransfer
// ---------------------------------------------------------------------

CodedTransfer::CodedTransfer(CodedConfig config, FaultyChannel& channel,
                             std::uint64_t transfer_id, Bytes payload,
                             std::uint64_t coeff_seed,
                             std::uint64_t start_tick)
    : config_(sanitized(config)),
      channel_(channel),
      transfer_id_(transfer_id),
      payload_(std::move(payload)),
      coeff_seed_(coeff_seed),
      now_(start_tick) {}

TransferOutcome CodedTransfer::run(CodedReceiver& receiver) {
  TransferOutcome out;
  CodedCounters& counters = out.counters;
  if (payload_.empty()) {
    out.delivered = true;
    out.end_tick = now_;
    return out;
  }
  const std::uint64_t transfer_start = now_;
  const std::vector<Bytes> chunks =
      chunk_payload(payload_, config_.chunk_bytes);
  const std::uint32_t generation_count = div_ceil(
      static_cast<std::uint32_t>(chunks.size()), config_.generation_size);

  // Loss estimate carried across generations: the first burst of
  // generation n pre-pays the redundancy generation n-1 turned out to
  // need, so a steadily lossy link converges in one burst per
  // generation instead of one timeout round per loss.
  double loss_estimate = kInitialRedundancy;

  for (std::uint32_t gen = 0; gen < generation_count; ++gen) {
    const std::size_t first =
        static_cast<std::size_t>(gen) * config_.generation_size;
    const std::size_t gen_size = std::min<std::size_t>(
        config_.generation_size, chunks.size() - first);
    GenerationEncoder encoder(std::vector<Bytes>(
        chunks.begin() + static_cast<std::ptrdiff_t>(first),
        chunks.begin() + static_cast<std::ptrdiff_t>(first + gen_size)));
    const std::uint64_t generation_stream = gen;
    Rng coeff_rng = sim::stream_rng(coeff_seed_, generation_stream);
    ++counters.generations;

    const std::size_t budget = std::max<std::size_t>(
        gen_size + 2,
        static_cast<std::size_t>(
            std::ceil(static_cast<double>(gen_size) * config_.max_overhead)));
    std::size_t sent_this_gen = 0;
    std::size_t innovative_this_gen = 0;

    auto send_symbol = [&](CodedSymbol symbol) {
      CodedPacket packet;
      packet.transfer_id = transfer_id_;
      packet.generation = gen;
      packet.generation_size = static_cast<std::uint16_t>(gen_size);
      packet.chunk_bytes = config_.chunk_bytes;
      packet.payload_len = static_cast<std::uint32_t>(payload_.size());
      packet.coefficients = std::move(symbol.coefficients);
      packet.body = std::move(symbol.body);
      const Bytes wire = encode_coded_packet(packet);
      channel_.send(FaultyChannel::Dir::ToOperator, wire, now_);
      now_ += kPacketIntervalTicks;
      ++counters.packets_sent;
      ++sent_this_gen;
      counters.bytes_on_wire += wire.size();
    };

    // Systematic-first burst: on a clean link the generation decodes
    // from exactly gen_size unit-vector packets, zero coding tax.
    for (std::size_t i = 0; i < gen_size; ++i) {
      send_symbol(encoder.systematic(static_cast<std::uint16_t>(i)));
    }
    const std::size_t prepay = std::min(
        gen_size,
        static_cast<std::size_t>(std::ceil(static_cast<double>(gen_size) *
                                           loss_estimate /
                                           (1.0 - loss_estimate))));
    for (std::size_t i = 0; i < prepay; ++i) {
      send_symbol(encoder.coded(coeff_rng));
    }

    std::uint64_t ack_deadline = now_ + config_.ack_timeout_ticks;
    bool acked = false;
    while (!acked) {
      for (const Bytes& wire :
           channel_.deliver_due(FaultyChannel::Dir::ToOperator, now_)) {
        const CodedReceiver::Intake intake = receiver.on_wire(wire);
        switch (intake.kind) {
          case CodedReceiver::Intake::Kind::Innovative:
            ++counters.packets_delivered;
            ++innovative_this_gen;
            break;
          case CodedReceiver::Intake::Kind::Dependent:
            ++counters.packets_delivered;
            ++counters.packets_dependent;
            break;
          case CodedReceiver::Intake::Kind::Corrupt:
            ++counters.packets_corrupt;
            break;
        }
        if (intake.ack_due) {
          const Bytes ack_wire = encode_generation_ack(intake.ack);
          channel_.send(FaultyChannel::Dir::ToEdge, ack_wire, now_);
          ++counters.acks_sent;
          counters.bytes_on_wire += ack_wire.size();
        }
      }
      for (const Bytes& wire :
           channel_.deliver_due(FaultyChannel::Dir::ToEdge, now_)) {
        auto ack = decode_generation_ack(wire);
        if (!ack) {
          ++counters.packets_corrupt;
          continue;
        }
        if (ack->transfer_id == transfer_id_ && ack->generation == gen &&
            ack->rank == gen_size) {
          acked = true;
        }
      }
      if (acked) break;
      if (now_ - transfer_start > config_.max_ticks) {
        out.end_tick = now_;
        return out;  // tick budget spent: next rung of the ladder
      }
      // Advance to the next delivery or the ACK deadline — the
      // never-stuck invariant (an idle channel jumps straight to the
      // deadline and tops the generation up).
      const std::uint64_t next_due = channel_.earliest_due();
      const std::uint64_t target = std::min(next_due, ack_deadline);
      now_ = std::max(now_ + 1, target);
      if (now_ >= ack_deadline) {
        if (sent_this_gen >= budget) {
          out.end_tick = now_;
          return out;  // packet budget spent: fall back
        }
        // Redundancy-adaptive top-up: at least one packet, more when
        // the link has been eating them.
        const std::size_t topup = std::min(
            budget - sent_this_gen,
            std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::ceil(static_cast<double>(gen_size) *
                                 std::max(loss_estimate, 0.125)))));
        for (std::size_t i = 0; i < topup; ++i) {
          send_symbol(encoder.coded(coeff_rng));
        }
        ack_deadline = now_ + config_.ack_timeout_ticks;
      }
    }
    ++counters.generations_decoded;
    if (sent_this_gen > 0) {
      const double waste =
          1.0 - static_cast<double>(std::min(innovative_this_gen,
                                             sent_this_gen)) /
                    static_cast<double>(sent_this_gen);
      loss_estimate = std::clamp(waste, kInitialRedundancy, 0.9);
    }
  }
  out.delivered = true;
  out.end_tick = now_;
  return out;
}

// ---------------------------------------------------------------------
// Sealed-batch codec (receipts <-> transfer payload)
// ---------------------------------------------------------------------

// tlclint: codec(transport_sealed_batch, encode, version=kCodedWireVersion)
Bytes seal_receipts(const std::vector<core::SettlementReceipt>& receipts) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(receipts.size()));
  for (const core::SettlementReceipt& receipt : receipts) {
    write_receipt(w, receipt);
  }
  return w.take();
}

// tlclint: codec(transport_sealed_batch, decode, version=kCodedWireVersion)
Expected<std::vector<core::SettlementReceipt>> unseal_receipts(
    const Bytes& payload) {
  ByteReader r(payload);
  std::vector<core::SettlementReceipt> receipts(
      r.count(kMinEncodedReceiptSize));
  for (core::SettlementReceipt& receipt : receipts) receipt = read_receipt(r);
  if (!r.ok()) return r.error_or("settlement journal: truncated receipt");
  if (!r.exhausted()) return Err("sealed batch: trailing bytes");
  return receipts;
}

Expected<std::vector<core::SettlementReceipt>> unseal_group_receipts(
    const Bytes& payload, std::uint64_t ue_id, std::size_t cycles) {
  auto receipts = unseal_receipts(payload);
  if (!receipts) return receipts;
  bool own = receipts->size() == cycles;
  for (std::size_t cycle = 0; own && cycle < cycles; ++cycle) {
    const core::SettlementReceipt& receipt = (*receipts)[cycle];
    own = receipt.ue_id == ue_id && receipt.cycle == cycle;
  }
  if (!own) return Err("sealed batch: not the group's receipts");
  return receipts;
}

}  // namespace tlc::transport
