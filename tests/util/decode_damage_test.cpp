// Damage sweep over every decode entry point.
//
// Each codec below starts from a valid encoding and takes two damages:
// every truncation length, and every 4-byte window overwritten with
// 0xFFFFFFFF. Each damaged input must come back as a typed error or
// round-trip exactly: decode, re-encode, and get the damaged bytes
// back. Overwriting with 0xff only ever raises a length or a count, so
// the windows drive every length prefix and count past the bytes
// behind it, and a decoder whose loops keep reading after a failed
// read runs them here. Run under the asan preset, a crash or an
// unbounded allocation on the way is a failure too.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "charging/ingest.hpp"
#include "core/messages.hpp"
#include "core/poc_store.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "epc/cdr.hpp"
#include "epc/ofcs.hpp"
#include "epc/rrc.hpp"
#include "fleet/engine_detail.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/journal.hpp"
#include "recovery/state_log.hpp"
#include "transport/coded_session.hpp"
#include "transport/settlement_journal.hpp"
#include "util/fileio.hpp"
#include "util/serde.hpp"
#include "workloads/trace.hpp"

namespace tlc {
namespace {

/// Decodes `wire` and re-encodes what it decoded, or returns the
/// decoder's error.
using RoundTrip = std::function<Expected<Bytes>(const Bytes& wire)>;

struct Codec {
  std::string name;
  Bytes valid;
  RoundTrip round_trip;
  /// Offsets of enum bytes in `valid`: 0xff is no value of those enums,
  /// so a window over one must be rejected.
  std::vector<std::size_t> enum_bytes = {};
};

/// Offsets where two encodings of the same length differ.
std::vector<std::size_t> differing_bytes(const Bytes& a, const Bytes& b) {
  EXPECT_EQ(a.size(), b.size());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) out.push_back(i);
  }
  return out;
}

/// A fresh, empty scratch directory for one file-backed decode, keyed
/// by the running test so parallel ctest cases never share one.
std::string scratch_dir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/decode_damage_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + 37 * i);
  }
  return out;
}

template <typename T, typename Encode>
Expected<Bytes> reencode(const Expected<T>& decoded, Encode encode) {
  if (!decoded) return Err(decoded.error());
  return encode(*decoded);
}

/// The HMAC keys of the archive and the trace are public, so a forger
/// re-tags damaged bytes: the sweep damages the body and re-tags it.
Bytes tagged(const Bytes& body, const char* key) {
  Bytes out = body;
  append(out, crypto::hmac_sha256(bytes_of(key), body));
  return out;
}

Bytes untagged(const Bytes& data) {
  return Bytes(data.begin(), data.end() - 32);
}

// --- messages, RRC, CDR and RSA key ------------------------------------

core::PlanRef plan() { return core::PlanRef{0, kHour, 0.5}; }

std::vector<Codec> message_codecs() {
  core::SignedCdr cdr;
  cdr.body = core::CdrMessage{plan(), core::PartyRole::EdgeVendor, 3, 77,
                              123456};
  cdr.signature = pattern(64, 1);
  core::SignedCda cda;
  cda.body = core::CdaMessage{plan(), core::PartyRole::Operator, 4, 78,
                              654321, core::encode_signed_cdr(cdr)};
  cda.signature = pattern(64, 2);
  core::SignedPoc poc;
  poc.body = core::PocMessage{plan(), core::PartyRole::EdgeVendor, 5, 99999,
                              core::encode_signed_cda(cda)};
  poc.signature = pattern(64, 3);
  poc.nonce_edge = 11;
  poc.nonce_operator = 12;

  return {
      {"signed_cdr", core::encode_signed_cdr(cdr),
       [](const Bytes& w) {
         return reencode(core::decode_signed_cdr(w), core::encode_signed_cdr);
       }},
      {"signed_cda", core::encode_signed_cda(cda),
       [](const Bytes& w) {
         return reencode(core::decode_signed_cda(w), core::encode_signed_cda);
       }},
      {"signed_poc", core::encode_signed_poc(poc),
       [](const Bytes& w) {
         return reencode(core::decode_signed_poc(w), core::encode_signed_poc);
       }},
  };
}

std::vector<Codec> small_codecs() {
  epc::ChargingDataRecord record;
  record.served_imsi = epc::Imsi{310170000000001};
  record.gateway_address = 0xc0a8020b;
  record.charging_id = 7;
  record.sequence_number = 1001;
  record.time_of_first_usage = 10 * kSecond;
  record.time_of_last_usage = 3600 * kSecond;
  record.datavolume_uplink = 274841;
  record.datavolume_downlink = 33604032;
  record.uncharged_uplink = 5;
  record.uncharged_downlink = 6;
  record.anomaly_flags = epc::kAnomalyFlowReplay;

  crypto::RsaPublicKey key;
  Bytes modulus = pattern(64, 0xc3);
  modulus.front() = 0xc3;
  modulus.back() |= 1;
  key.n = crypto::BigUInt::from_bytes(modulus);
  key.e = crypto::BigUInt{65537};

  return {
      {"rrc_counter_check", epc::RrcCounterCheck{42}.encode(),
       [](const Bytes& w) {
         return reencode(epc::RrcCounterCheck::decode(w),
                         [](const auto& m) { return m.encode(); });
       }},
      {"rrc_counter_check_response",
       epc::RrcCounterCheckResponse{43, 1000, 2000}.encode(),
       [](const Bytes& w) {
         return reencode(epc::RrcCounterCheckResponse::decode(w),
                         [](const auto& m) { return m.encode(); });
       }},
      {"cdr_compact", record.encode_compact(),
       [](const Bytes& w) {
         return reencode(epc::ChargingDataRecord::decode_compact(w),
                         [](const auto& c) { return c.encode_compact(); });
       }},
      {"cdr_leaf", charging::encode_cdr_leaf(record),
       [](const Bytes& w) {
         return reencode(charging::decode_cdr_leaf(w),
                         charging::encode_cdr_leaf);
       }},
      {"rsa_public_key", key.serialize(),
       [](const Bytes& w) {
         return reencode(crypto::RsaPublicKey::deserialize(w),
                         [](const auto& k) { return k.serialize(); });
       }},
  };
}

// --- streaming ingest ----------------------------------------------------

std::vector<Codec> ingest_codecs() {
  charging::BatchPoc batch;
  batch.batch_seq = 9;
  batch.leaf_count = 5;
  batch.first_usage = kSecond;
  batch.last_usage = kHour;
  for (std::size_t i = 0; i < batch.root.size(); ++i) {
    batch.root[i] = static_cast<std::uint8_t>(i);
  }
  batch.signature = pattern(64, 4);
  charging::InclusionProof proof;
  proof.batch_seq = 9;
  proof.merkle.leaf_index = 3;
  proof.merkle.leaf_count = 5;
  proof.merkle.path.resize(3);
  for (std::size_t level = 0; level < 3; ++level) {
    proof.merkle.path[level].fill(static_cast<std::uint8_t>(level + 1));
  }
  return {
      {"batch_poc", charging::encode_batch_poc(batch),
       [](const Bytes& w) {
         return reencode(charging::decode_batch_poc(w),
                         charging::encode_batch_poc);
       }},
      {"inclusion_proof", charging::encode_inclusion_proof(proof),
       [](const Bytes& w) {
         return reencode(charging::decode_inclusion_proof(w),
                         charging::encode_inclusion_proof);
       }},
  };
}

// --- coded transport and settlement journal ------------------------------

std::vector<core::SettlementReceipt> receipts() {
  std::vector<core::SettlementReceipt> out(3);
  for (std::uint32_t cycle = 0; cycle < out.size(); ++cycle) {
    core::SettlementReceipt& r = out[cycle];
    r.ue_id = 7;
    r.cycle = cycle;
    r.completed = cycle != 1;
    r.charged = 1000 * (cycle + 1);
    r.rounds = static_cast<int>(cycle) + 2;
    r.poc_wire = pattern(12 + cycle, static_cast<std::uint8_t>(cycle));
    r.outcome = cycle == 1 ? core::SettleOutcome::Degraded
                           : core::SettleOutcome::Converged;
    r.retransmits = static_cast<int>(cycle);
    r.failure_reason = cycle == 1 ? "retry-budget-exhausted" : "";
  }
  return out;
}

transport::CodedCounters coded_counters() {
  transport::CodedCounters c;
  c.generations = 1;
  c.generations_decoded = 2;
  c.packets_sent = 3;
  c.packets_delivered = 4;
  c.packets_dependent = 5;
  c.packets_corrupt = 6;
  c.acks_sent = 7;
  c.cycles_coded = 8;
  c.fallbacks = 9;
  c.bytes_on_wire = 10;
  return c;
}

/// The settlement chunk record exactly as SettlementJournal writes it.
Bytes chunk_record(std::uint32_t chunk_index,
                   const transport::RecoveredChunk& chunk) {
  ByteWriter w;
  w.u32(chunk_index);
  w.u32(static_cast<std::uint32_t>(chunk.receipts.size()));
  for (const core::SettlementReceipt& r : chunk.receipts) {
    transport::write_receipt(w, r);
  }
  const transport::CodedCounters& c = chunk.coded;
  for (std::uint64_t v :
       {c.generations, c.generations_decoded, c.packets_sent,
        c.packets_delivered, c.packets_dependent, c.packets_corrupt,
        c.acks_sent, c.cycles_coded, c.fallbacks, c.bytes_on_wire}) {
    w.u64(v);
  }
  return w.take();
}

Expected<Bytes> settlement_chunk_round_trip(const Bytes& record) {
  const std::string path = scratch_dir("chunk") + "/settle.wal";
  {
    auto journal = recovery::Journal::open(path);
    if (!journal) return Err(journal.error());
    if (Status s = journal->append(record); !s.ok()) return Err(s.error());
  }
  auto reopened = transport::SettlementJournal::open(path);
  if (!reopened) return Err(reopened.error());
  if (reopened->recovered().size() != 1) return Err("no chunk recovered");
  const auto& [index, chunk] = *reopened->recovered().begin();
  return chunk_record(index, chunk);
}

std::vector<Codec> transport_codecs() {
  transport::CodedPacket packet;
  packet.transfer_id = 0x1122334455667788;
  packet.generation = 2;
  packet.generation_size = 4;
  packet.chunk_bytes = 8;
  packet.payload_len = 29;
  packet.coefficients = pattern(4, 5);
  packet.body = pattern(8, 6);
  transport::RecoveredChunk chunk{receipts(), coded_counters()};
  return {
      {"coded_packet", transport::encode_coded_packet(packet),
       [](const Bytes& w) {
         return reencode(transport::decode_coded_packet(w),
                         transport::encode_coded_packet);
       }},
      {"generation_ack",
       transport::encode_generation_ack(transport::GenerationAck{5, 6, 3}),
       [](const Bytes& w) {
         return reencode(transport::decode_generation_ack(w),
                         transport::encode_generation_ack);
       }},
      {"sealed_batch", transport::seal_receipts(receipts()),
       [](const Bytes& w) {
         return reencode(transport::unseal_receipts(w),
                         transport::seal_receipts);
       }},
      {"settlement_chunk", chunk_record(4, chunk),
       settlement_chunk_round_trip},
  };
}

// --- OFCS snapshot and journal ops ---------------------------------------

charging::DataPlan ofcs_plan() {
  charging::DataPlan plan;
  plan.price_micro_per_mb = 10'000;
  plan.quota_bytes = 10 * 1000 * 1000;
  return plan;
}

epc::ChargingDataRecord cdr_for(std::uint64_t imsi, std::uint32_t seq) {
  epc::ChargingDataRecord cdr;
  cdr.served_imsi = epc::Imsi{imsi};
  cdr.sequence_number = seq;
  cdr.datavolume_uplink = 1000 * seq;
  cdr.datavolume_downlink = 3000 * seq;
  cdr.uncharged_uplink = seq;
  return cdr;
}

/// A snapshot with two subscribers, closed cycles and the seen-CDR set
/// (kept only while a log is attached).
Bytes ofcs_snapshot() {
  const std::string dir = scratch_dir("ofcs_snapshot");
  auto log = recovery::StateLog::open(dir, "ofcs");
  EXPECT_TRUE(log.has_value());
  epc::Ofcs ofcs(ofcs_plan());
  EXPECT_TRUE(ofcs.attach_recovery(&*log).ok());
  for (std::uint64_t imsi : {1001u, 1002u}) {
    ofcs.ingest(cdr_for(imsi, 1));
    ofcs.ingest(cdr_for(imsi, 2));
    (void)ofcs.close_cycle(epc::Imsi{imsi});
  }
  return ofcs.serialize_state();
}

Expected<Bytes> ofcs_snapshot_round_trip(const Bytes& snapshot) {
  epc::Ofcs ofcs(ofcs_plan());
  if (Status s = ofcs.restore_state(snapshot); !s.ok()) return Err(s.error());
  return ofcs.serialize_state();
}

void write_line(ByteWriter& w, const epc::BillLine& line) {
  w.u32(line.cycle_index);
  w.u64(line.gateway_volume);
  w.u64(line.billed_volume);
  w.u64(line.amount_micro);
  w.u8(line.throttled ? 1 : 0);
}

/// Applies one journal op through crash recovery, then re-encodes the
/// op from the ledger it left.
Expected<Bytes> ofcs_op_round_trip(const Bytes& op) {
  const std::string dir = scratch_dir("ofcs_op");
  {
    auto log = recovery::StateLog::open(dir, "ofcs");
    if (!log) return Err(log.error());
    if (Status s = log->append(op); !s.ok()) return Err(s.error());
  }
  auto log = recovery::StateLog::open(dir, "ofcs");
  if (!log) return Err(log.error());
  epc::Ofcs ofcs(ofcs_plan());
  if (Status s = ofcs.attach_recovery(&*log); !s.ok()) return Err(s.error());

  ByteWriter w;
  w.u8(op.at(0));
  const std::vector<epc::Imsi> imsis = ofcs.subscribers();
  if (op[0] == 1) {
    epc::write_cdr(w, ofcs.archive(imsis.at(0))->back());
  } else {
    w.u64(imsis.at(0).value);
    write_line(w, ofcs.billing(imsis.at(0))->lines.back());
  }
  return w.take();
}

std::vector<Codec> ofcs_codecs() {
  ByteWriter ingest;
  ingest.u8(1);
  epc::write_cdr(ingest, cdr_for(1001, 5));
  ByteWriter close;
  close.u8(2);
  close.u64(1001);
  write_line(close, epc::BillLine{0, 4000, 3000, 30, false});
  return {
      {"ofcs_snapshot", ofcs_snapshot(), ofcs_snapshot_round_trip},
      {"ofcs_op_ingest", ingest.take(), ofcs_op_round_trip},
      {"ofcs_op_close", close.take(), ofcs_op_round_trip},
  };
}

// --- shard checkpoint, PoC archive, trace ----------------------------------

/// `other_enums` changes every enum byte and nothing else: app,
/// adversary, and each scheme one step up.
std::vector<fleet::UeRecord> shard_records(bool other_enums = false) {
  std::vector<fleet::UeRecord> records(2);
  for (std::size_t i = 0; i < records.size(); ++i) {
    fleet::UeRecord& record = records[i];
    record.ue_index = i;
    record.imsi = epc::Imsi{310170000000000 + i};
    record.member.mean_rss_dbm = -90.5;
    record.member.disconnect_ratio = 0.25;
    record.member.seed = 99 + i;
    record.cycles.resize(2);
    record.cycles[1].true_sent = 5000;
    record.cycles[1].gateway_volume = 4800;
    record.member.app = other_enums ? testbed::AppKind::GamingQci7
                                    : testbed::AppKind::WebcamRtsp;
    record.adversary = other_enums ? workloads::AdversaryKind::kDnsTunnel
                                   : workloads::AdversaryKind::kNone;
    const auto first = other_enums ? testbed::Scheme::TlcOptimal
                                   : testbed::Scheme::Legacy;
    const auto second = other_enums ? testbed::Scheme::TlcRandom
                                    : testbed::Scheme::TlcOptimal;
    for (testbed::Scheme scheme : {first, second}) {
      testbed::CycleOutcome outcome;
      outcome.expected = 5000;
      outcome.charged = 4900;
      outcome.gap_mb = 0.1;
      outcome.rounds = 3;
      outcome.completed = scheme == first;
      record.outcomes[scheme] = {outcome, outcome};
    }
    record.anomaly.free_bytes = 7;
    record.anomaly.flags = 2;
    record.uncharged_per_cycle = {1, 2};
  }
  return records;
}

std::vector<Codec> archive_codecs() {
  core::PocStore store;
  store.add(plan(), pattern(20, 7));
  store.add(core::PocKind::Batch, core::PlanRef{1, 2, 0.0}, pattern(9, 8));

  workloads::Trace trace;
  trace.description = "sweep";
  trace.entries = {{0, 1200, sim::Direction::Downlink, sim::Qci::kQci9},
                   {kMillisecond, 80, sim::Direction::Uplink,
                    sim::Qci::kQci9}};
  workloads::Trace other_qcis = trace;
  for (workloads::TraceEntry& entry : other_qcis.entries) {
    entry.qci = sim::Qci::kQci7;
  }
  const Bytes checkpoint = fleet::detail::encode_shard_records(shard_records());

  return {
      {"shard_checkpoint", checkpoint,
       [](const Bytes& w) {
         return reencode(fleet::detail::decode_shard_records(w),
                         fleet::detail::encode_shard_records);
       },
       differing_bytes(checkpoint, fleet::detail::encode_shard_records(
                                       shard_records(true)))},
      {"poc_archive", untagged(store.serialize()),
       [](const Bytes& body) -> Expected<Bytes> {
         auto decoded = core::PocStore::deserialize(
             tagged(body, "tlc-poc-store-integrity-v1"));
         if (!decoded) return Err(decoded.error());
         return untagged(decoded->serialize());
       }},
      {"trace", untagged(trace.serialize()),
       [](const Bytes& body) -> Expected<Bytes> {
         auto decoded = workloads::Trace::deserialize(
             tagged(body, "tlc-trace-integrity-v1"));
         if (!decoded) return Err(decoded.error());
         return untagged(decoded->serialize());
       },
       differing_bytes(untagged(trace.serialize()),
                       untagged(other_qcis.serialize()))},
  };
}

// --- checkpoint file and journal -----------------------------------------

Expected<Bytes> checkpoint_round_trip(const Bytes& file) {
  const std::string dir = scratch_dir("checkpoint");
  if (Status s = util::write_file(dir + "/damaged.ckpt", file); !s.ok()) {
    return Err(s.error());
  }
  auto payload = recovery::read_checkpoint(dir + "/damaged.ckpt");
  if (!payload) return Err(payload.error());
  if (Status s = recovery::write_checkpoint(dir + "/again.ckpt", *payload);
      !s.ok()) {
    return Err(s.error());
  }
  return util::read_file(dir + "/again.ckpt");
}

/// A journal file holding `records`, as Journal::append writes it.
Bytes journal_file(const std::string& dir,
                   const std::vector<Bytes>& records) {
  const std::string path = dir + "/again.wal";
  std::filesystem::remove(path);
  {
    auto journal = recovery::Journal::open(path);
    EXPECT_TRUE(journal.has_value());
    for (const Bytes& record : records) {
      EXPECT_TRUE(journal->append(record).ok());
    }
  }
  auto bytes = util::read_file(path);
  EXPECT_TRUE(bytes.has_value());
  return *bytes;
}

/// Replay keeps the intact frames and reports the rest as a torn tail,
/// so the round trip is those frames re-journaled plus the tail as is.
Expected<Bytes> journal_round_trip(const Bytes& file) {
  const std::string dir = scratch_dir("journal");
  if (Status s = util::write_file(dir + "/damaged.wal", file); !s.ok()) {
    return Err(s.error());
  }
  std::vector<Bytes> records;
  auto stats = recovery::Journal::replay(
      dir + "/damaged.wal", [&records](const Bytes& r) { records.push_back(r); });
  if (!stats) return Err(stats.error());
  if (file.empty()) return file;  // no journal yet: nothing to replay
  Bytes out = journal_file(dir, records);
  EXPECT_EQ(out.size(), stats->valid_bytes);
  EXPECT_EQ(stats->records, records.size());
  out.insert(out.end(), file.begin() + static_cast<std::ptrdiff_t>(
                                           stats->valid_bytes),
             file.end());
  return out;
}

std::vector<Codec> file_codecs() {
  const std::string dir = scratch_dir("valid_files");
  EXPECT_TRUE(recovery::write_checkpoint(dir + "/valid.ckpt",
                                         pattern(24, 9))
                  .ok());
  auto checkpoint = util::read_file(dir + "/valid.ckpt");
  EXPECT_TRUE(checkpoint.has_value());
  return {
      {"checkpoint", *checkpoint, checkpoint_round_trip},
      {"journal", journal_file(dir, {pattern(10, 1), pattern(3, 2)}),
       journal_round_trip},
  };
}

std::vector<Codec> all_codecs() {
  std::vector<Codec> codecs;
  for (auto group : {message_codecs, small_codecs, ingest_codecs,
                     transport_codecs, ofcs_codecs, archive_codecs,
                     file_codecs}) {
    for (Codec& codec : group()) codecs.push_back(std::move(codec));
  }
  return codecs;
}

/// Damaged bytes: a typed error, or decode + re-encode gives them back.
void expect_error_or_exact(const Codec& codec, const Bytes& damaged,
                           const std::string& what) {
  const Expected<Bytes> again = codec.round_trip(damaged);
  if (!again) {
    EXPECT_FALSE(again.error().empty()) << codec.name << " " << what;
    return;
  }
  EXPECT_EQ(*again, damaged) << codec.name << " accepted " << what
                             << " and re-encoded other bytes";
}

TEST(DecodeDamageTest, ValidEncodingsRoundTrip) {
  for (const Codec& codec : all_codecs()) {
    const Expected<Bytes> again = codec.round_trip(codec.valid);
    ASSERT_TRUE(again.has_value()) << codec.name << ": " << again.error();
    EXPECT_EQ(*again, codec.valid) << codec.name;
  }
}

TEST(DecodeDamageTest, EveryTruncationIsAnErrorOrExact) {
  for (const Codec& codec : all_codecs()) {
    for (std::size_t len = 0; len < codec.valid.size(); ++len) {
      const Bytes cut(codec.valid.begin(),
                      codec.valid.begin() + static_cast<std::ptrdiff_t>(len));
      expect_error_or_exact(codec, cut,
                            "a truncation to " + std::to_string(len) + " bytes");
    }
  }
}

TEST(DecodeDamageTest, EveryMaxedWindowIsAnErrorOrExact) {
  for (const Codec& codec : all_codecs()) {
    for (std::size_t at = 0; at + 4 <= codec.valid.size(); ++at) {
      Bytes damaged = codec.valid;
      std::fill_n(damaged.begin() + static_cast<std::ptrdiff_t>(at), 4, 0xff);
      const std::string what = "0xffffffff at offset " + std::to_string(at);
      const bool over_enum =
          std::any_of(codec.enum_bytes.begin(), codec.enum_bytes.end(),
                      [at](std::size_t b) { return b >= at && b < at + 4; });
      if (over_enum) {
        EXPECT_FALSE(codec.round_trip(damaged).has_value())
            << codec.name << " accepted an unknown enum value at " << what;
      } else {
        expect_error_or_exact(codec, damaged, what);
      }
    }
  }
}

TEST(DecodeDamageTest, TheSweepKnowsEveryEnumByte) {
  // Two UE records with app, adversary and two schemes each; two trace
  // entries with a QCI each.
  for (const Codec& codec : all_codecs()) {
    if (codec.name == "shard_checkpoint") {
      EXPECT_EQ(codec.enum_bytes.size(), 8u);
    } else if (codec.name == "trace") {
      EXPECT_EQ(codec.enum_bytes.size(), 2u);
    } else {
      EXPECT_TRUE(codec.enum_bytes.empty()) << codec.name;
    }
  }
}

TEST(DecodeDamageTest, EveryAppendedByteIsAnErrorOrExact) {
  // Damage above never adds bytes; a decoder that stops reading early
  // would give two wires one value.
  for (const Codec& codec : all_codecs()) {
    for (const std::uint8_t extra : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
      Bytes damaged = codec.valid;
      damaged.push_back(extra);
      expect_error_or_exact(codec, damaged,
                            "an appended byte " + std::to_string(extra));
    }
  }
}

TEST(DecodeDamageTest, ASignedBodyWithTrailingBytesIsATypedError) {
  // The signed messages nest their body in a blob, which an appended
  // byte never reaches: grow the body blob by one byte instead.
  for (const Codec& codec : message_codecs()) {
    ByteReader r(codec.valid);
    Bytes body = r.blob();
    ASSERT_TRUE(r.ok()) << codec.name;
    const auto rest = codec.valid.begin() +
                      static_cast<std::ptrdiff_t>(4 + body.size());
    body.push_back(0);
    ByteWriter w;
    w.blob(body);
    Bytes damaged = w.take();
    damaged.insert(damaged.end(), rest, codec.valid.end());
    const Expected<Bytes> again = codec.round_trip(damaged);
    ASSERT_FALSE(again.has_value()) << codec.name;
    EXPECT_NE(again.error().find("trailing bytes in body"), std::string::npos)
        << codec.name << ": " << again.error();
  }
}

TEST(DecodeDamageTest, ACheckpointWithTrailingBytesIsATypedError) {
  // Damage never adds bytes, so the sweep cannot reach this branch.
  const std::string dir = scratch_dir("trailing");
  ASSERT_TRUE(recovery::write_checkpoint(dir + "/c.ckpt", pattern(8, 1)).ok());
  auto file = util::read_file(dir + "/c.ckpt");
  ASSERT_TRUE(file.has_value());
  file->push_back(0);
  ASSERT_TRUE(util::write_file(dir + "/c.ckpt", *file).ok());
  const auto payload = recovery::read_checkpoint(dir + "/c.ckpt");
  ASSERT_FALSE(payload.has_value());
  EXPECT_EQ(payload.error(), "checkpoint: length mismatch in " + dir +
                                 "/c.ckpt");
}

}  // namespace
}  // namespace tlc
