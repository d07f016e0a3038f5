// Coded settlement session soak (§17 satellite): wire-codec screening,
// a ~200-config seeded fault sweep over CodedTransfer (the decoded
// batch must be byte-identical to the sent one or the transfer must
// cleanly report non-delivery — never a wrong payload), and the
// settler-level identities: zero-fault coded receipts byte-identical
// to the stop-and-wait settler's, faulted runs bit-identical across
// thread counts and repeat runs.
#include "transport/coded_session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng_stream.hpp"
#include "transport/lossy_settlement.hpp"
#include "util/rng.hpp"

namespace tlc::transport {
namespace {

constexpr std::uint64_t kSweepSeed = 0xc0de5eed;
constexpr int kConfigs = 200;

struct SweepConfig {
  FaultProfile to_edge;
  FaultProfile to_operator;
  CodedConfig coded;
  std::size_t payload_bytes = 0;
  std::uint64_t seed = 0;
};

FaultProfile draw_profile(Rng& rng) {
  FaultProfile profile;
  if (rng.chance(0.7)) profile.drop = rng.uniform(0.0, 0.35);
  if (rng.chance(0.5)) profile.duplicate = rng.uniform(0.0, 0.3);
  if (rng.chance(0.5)) profile.reorder = rng.uniform(0.0, 0.3);
  if (rng.chance(0.4)) profile.corrupt = rng.uniform(0.0, 0.25);
  if (rng.chance(0.3)) profile.truncate = rng.uniform(0.0, 0.15);
  profile.delay_jitter_ticks = rng.uniform_u64(6);
  return profile;
}

SweepConfig draw_config(int index) {
  Rng rng = sim::stream_rng(kSweepSeed, static_cast<std::uint64_t>(index));
  SweepConfig config;
  config.to_operator = draw_profile(rng);
  config.to_edge = draw_profile(rng);
  if (index % 8 == 7) {
    // Every 8th config is brutal enough to exhaust the packet budget,
    // so the sweep exercises the non-delivered class too.
    config.to_operator.drop = rng.uniform(0.9, 0.995);
    config.to_edge.drop = rng.uniform(0.9, 0.995);
  }
  const std::uint16_t sizes[] = {16, 32, 64};
  config.coded.generation_size = sizes[index % 3];
  config.coded.chunk_bytes =
      static_cast<std::uint16_t>(16 + rng.uniform_u64(64));
  config.coded.ack_timeout_ticks = 16 + rng.uniform_u64(32);
  config.payload_bytes = 1 + rng.uniform_u64(4000);
  config.seed = rng.next_u64();
  return config;
}

struct TransferRun {
  TransferOutcome outcome;
  bool payload_ok = false;
  Bytes decoded;
};

TransferRun run_transfer(const SweepConfig& config) {
  Rng payload_rng = sim::stream_rng(config.seed, 0);
  const Bytes payload = payload_rng.bytes(config.payload_bytes);
  FaultyChannel channel(config.to_edge, config.to_operator,
                        sim::stream_seed(config.seed, 1));
  CodedReceiver receiver(config.coded);
  CodedTransfer transfer(config.coded, channel, /*transfer_id=*/config.seed,
                         payload, sim::stream_seed(config.seed, 2));
  TransferRun run;
  run.outcome = transfer.run(receiver);
  auto decoded = receiver.payload();
  if (decoded.has_value()) {
    run.decoded = std::move(*decoded);
    run.payload_ok = run.decoded == payload;
  }
  return run;
}

TEST(CodedWireTest, PacketCodecRoundTripsAndScreensDamage) {
  CodedPacket packet;
  packet.transfer_id = 0x1122334455667788ULL;
  packet.generation = 7;
  packet.generation_size = 32;
  packet.chunk_bytes = 64;
  packet.payload_len = 1999;
  packet.coefficients = Bytes(32, 0xab);
  packet.body = Bytes(64, 0xcd);
  const Bytes wire = encode_coded_packet(packet);

  auto decoded = decode_coded_packet(wire);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded->transfer_id, packet.transfer_id);
  EXPECT_EQ(decoded->generation, packet.generation);
  EXPECT_EQ(decoded->generation_size, packet.generation_size);
  EXPECT_EQ(decoded->chunk_bytes, packet.chunk_bytes);
  EXPECT_EQ(decoded->payload_len, packet.payload_len);
  EXPECT_EQ(decoded->coefficients, packet.coefficients);
  EXPECT_EQ(decoded->body, packet.body);

  // Any single flipped byte must be caught by the trailing CRC.
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    Bytes damaged = wire;
    damaged[i] ^= 0x40;
    EXPECT_FALSE(decode_coded_packet(damaged).has_value()) << "byte " << i;
  }
  // So must truncation anywhere.
  for (std::size_t cut = 0; cut < wire.size(); cut += 11) {
    const Bytes truncated(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_coded_packet(truncated).has_value()) << "cut " << cut;
  }
}

TEST(CodedWireTest, AckCodecRoundTripsAndScreensDamage) {
  GenerationAck ack;
  ack.transfer_id = 0xfeedULL;
  ack.generation = 3;
  ack.rank = 32;
  const Bytes wire = encode_generation_ack(ack);
  auto decoded = decode_generation_ack(wire);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded->transfer_id, ack.transfer_id);
  EXPECT_EQ(decoded->generation, ack.generation);
  EXPECT_EQ(decoded->rank, ack.rank);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes damaged = wire;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(decode_generation_ack(damaged).has_value()) << "byte " << i;
  }
}

TEST(CodedSessionTest, SweepDecodesExactlyOrFailsCleanly) {
  int delivered = 0;
  int fell_back = 0;
  for (int index = 0; index < kConfigs; ++index) {
    const SweepConfig config = draw_config(index);
    const TransferRun run = run_transfer(config);
    SCOPED_TRACE("config " + std::to_string(index));
    const CodedCounters& counters = run.outcome.counters;
    // Duplication can inflate deliveries past sends, but never past
    // twice the sends (each packet is delivered at most twice).
    EXPECT_LE(counters.packets_delivered + counters.packets_corrupt,
              2 * counters.packets_sent + counters.acks_sent);
    EXPECT_LE(counters.generations_decoded, counters.generations);
    if (run.outcome.delivered) {
      ++delivered;
      // The §17 invariant: what came out is what went in, byte for
      // byte — linear dependence and corruption were screened, never
      // absorbed.
      EXPECT_TRUE(run.payload_ok);
      EXPECT_EQ(counters.generations_decoded, counters.generations);
    } else {
      ++fell_back;
      // Below full rank the receiver refuses to emit plaintext.
      EXPECT_FALSE(run.payload_ok);
      EXPECT_TRUE(run.decoded.empty());
    }
  }
  // Both terminal classes must occur or the sweep proves little.
  EXPECT_GT(delivered, kConfigs / 2);
  EXPECT_GT(fell_back, 0);
}

TEST(CodedSessionTest, SweepIsDeterministicPerSeed) {
  for (int index = 0; index < kConfigs; index += 8) {
    const SweepConfig config = draw_config(index);
    const TransferRun first = run_transfer(config);
    const TransferRun second = run_transfer(config);
    SCOPED_TRACE("config " + std::to_string(index));
    EXPECT_EQ(first.outcome.delivered, second.outcome.delivered);
    EXPECT_EQ(first.outcome.end_tick, second.outcome.end_tick);
    EXPECT_EQ(first.outcome.counters, second.outcome.counters);
    EXPECT_EQ(first.decoded, second.decoded);
  }
}

TEST(CodedSessionTest, CleanLinkPaysZeroCodingTax) {
  // Zero fault rates: the systematic burst alone decodes every
  // generation — exactly one packet per chunk, one ACK per
  // generation, nothing dependent, nothing corrupt.
  SweepConfig config;
  config.coded.generation_size = 32;
  config.coded.chunk_bytes = 64;
  config.payload_bytes = 3000;  // 47 chunks -> generations of 32 + 15
  config.seed = 0x5afe;
  const TransferRun run = run_transfer(config);
  ASSERT_TRUE(run.outcome.delivered);
  EXPECT_TRUE(run.payload_ok);
  const CodedCounters& counters = run.outcome.counters;
  EXPECT_EQ(counters.generations, 2u);
  EXPECT_EQ(counters.generations_decoded, 2u);
  EXPECT_EQ(counters.packets_sent, 47u);
  EXPECT_EQ(counters.packets_delivered, 47u);
  EXPECT_EQ(counters.packets_dependent, 0u);
  EXPECT_EQ(counters.packets_corrupt, 0u);
  EXPECT_EQ(counters.acks_sent, 2u);
}

TEST(CodedSessionTest, TotalCorruptionFallsBackNeverMisdecodes) {
  SweepConfig config;
  config.to_operator.corrupt = 1.0;
  config.coded.generation_size = 16;
  config.coded.chunk_bytes = 32;
  config.coded.max_ticks = 1 << 14;
  config.payload_bytes = 600;
  config.seed = 0xbadc0de;
  const TransferRun run = run_transfer(config);
  EXPECT_FALSE(run.outcome.delivered);
  EXPECT_TRUE(run.decoded.empty());
  EXPECT_GT(run.outcome.counters.packets_corrupt, 0u);
  EXPECT_EQ(run.outcome.counters.generations_decoded, 0u);
}

TEST(CodedSealTest, SealUnsealRoundTripsFullFidelity) {
  std::vector<core::SettlementReceipt> receipts(3);
  receipts[0].ue_id = 7;
  receipts[0].cycle = 0;
  receipts[0].completed = true;
  receipts[0].charged = 123456;
  receipts[0].rounds = 4;
  receipts[0].poc_wire = {9, 8, 7, 6};
  receipts[0].outcome = core::SettleOutcome::Converged;
  receipts[1].ue_id = 7;
  receipts[1].cycle = 1;
  receipts[1].outcome = core::SettleOutcome::Degraded;
  receipts[1].failure_reason = "budget";
  receipts[2].ue_id = 7;
  receipts[2].cycle = 2;
  receipts[2].outcome = core::SettleOutcome::Retried;
  receipts[2].retransmits = 3;

  const Bytes sealed = seal_receipts(receipts);
  auto unsealed = unseal_receipts(sealed);
  ASSERT_TRUE(unsealed.has_value()) << unsealed.error();
  ASSERT_EQ(unsealed->size(), receipts.size());
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    EXPECT_EQ((*unsealed)[i].ue_id, receipts[i].ue_id) << i;
    EXPECT_EQ((*unsealed)[i].cycle, receipts[i].cycle) << i;
    EXPECT_EQ((*unsealed)[i].completed, receipts[i].completed) << i;
    EXPECT_EQ((*unsealed)[i].charged, receipts[i].charged) << i;
    EXPECT_EQ((*unsealed)[i].rounds, receipts[i].rounds) << i;
    EXPECT_EQ((*unsealed)[i].poc_wire, receipts[i].poc_wire) << i;
    EXPECT_EQ((*unsealed)[i].outcome, receipts[i].outcome) << i;
    EXPECT_EQ((*unsealed)[i].retransmits, receipts[i].retransmits) << i;
    EXPECT_EQ((*unsealed)[i].failure_reason, receipts[i].failure_reason) << i;
  }
  EXPECT_FALSE(unseal_receipts(Bytes{0, 0}).has_value());
  EXPECT_TRUE(unseal_group_receipts(sealed, 7, 3).has_value());
}

TEST(CodedSealTest, CountBeyondPayloadIsATypedError) {
  // The count (0xffffff0f, about 4.3G receipts) arrives from the peer
  // after RLNC decoding; CRC32C does not authenticate it, so it must
  // not size an allocation.
  auto unsealed = unseal_receipts(Bytes{0xff, 0xff, 0xff, 0x0f});
  ASSERT_FALSE(unsealed.has_value());
  EXPECT_EQ(unsealed.error(), "settlement journal: truncated receipt");
}

/// Three receipts of UE 7, cycles 0..2, as the coded rung seals them.
std::vector<core::SettlementReceipt> group_receipts() {
  std::vector<core::SettlementReceipt> receipts(3);
  for (std::uint32_t cycle = 0; cycle < receipts.size(); ++cycle) {
    receipts[cycle].ue_id = 7;
    receipts[cycle].cycle = cycle;
  }
  return receipts;
}

TEST(CodedSealTest, AnotherGroupsReceiptsAreATypedError) {
  // CRC32C screens line damage, not the sender: whatever ue_id and
  // cycle the peer seals would go straight into the OFCS ledger.
  std::vector<core::SettlementReceipt> wrong_cycle = group_receipts();
  wrong_cycle[1].cycle = 2;
  std::vector<core::SettlementReceipt> max_cycle = group_receipts();
  max_cycle[2].cycle = 0xffffffff;
  std::vector<core::SettlementReceipt> wrong_ue = group_receipts();
  wrong_ue[0].ue_id = 8;
  std::vector<core::SettlementReceipt> short_group = group_receipts();
  short_group.pop_back();

  for (const auto& receipts : {wrong_cycle, max_cycle, wrong_ue, short_group}) {
    auto unsealed = unseal_group_receipts(seal_receipts(receipts), 7, 3);
    ASSERT_FALSE(unsealed.has_value());
    EXPECT_EQ(unsealed.error(), "sealed batch: not the group's receipts");
  }
}

TEST(CodedSealTest, UnknownOutcomeByteIsATypedError) {
  // The outcome byte was cast into SettleOutcome whatever its value.
  std::vector<core::SettlementReceipt> receipts = group_receipts();
  receipts[1].outcome = static_cast<core::SettleOutcome>(9);
  const Bytes sealed = seal_receipts(receipts);
  auto unsealed = unseal_receipts(sealed);
  ASSERT_FALSE(unsealed.has_value());
  EXPECT_EQ(unsealed.error(), "settlement journal: unknown receipt outcome");
  EXPECT_FALSE(unseal_group_receipts(sealed, 7, 3).has_value());
}

// ---------------------------------------------------------------------
// Settler-level identities (shared key cache: RSA keygen dominates).
// ---------------------------------------------------------------------

class CodedSettlerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    keys_ = new core::RsaKeyCache(512, 2, 0x5e771e);
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  static std::vector<core::SettlementItem> make_items(std::size_t ues,
                                                      std::size_t cycles) {
    std::vector<core::SettlementItem> items;
    for (std::uint64_t ue = 0; ue < ues; ++ue) {
      for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
        core::SettlementItem item;
        item.ue_id = ue;
        const std::uint64_t sent = 2'000'000 + ue * 31'000 + cycle * 7'000;
        const std::uint64_t lost = 15'000 + ue * 900 + cycle * 120;
        item.edge_view = {sent, sent - lost + ue * 5};
        item.op_view = {sent - ue * 3, sent - lost};
        items.push_back(item);
      }
    }
    return items;
  }

  static TransportConfig coded_transport(bool faulty) {
    TransportConfig transport;
    transport.seed = 0x10557c;
    transport.coding = Coding::Rlnc;
    transport.coded.generation_size = 16;
    transport.coded.chunk_bytes = 48;
    if (faulty) {
      transport.to_operator.drop = 0.2;
      transport.to_operator.corrupt = 0.05;
      transport.to_edge.drop = 0.15;
      transport.to_edge.duplicate = 0.1;
      transport.to_edge.reorder = 0.1;
    }
    transport.retry.base_timeout_ticks = 8;
    transport.retry.max_retransmits = 6;
    return transport;
  }

  static std::size_t count_outcome(const LossyBatchReport& report,
                                   core::SettleOutcome outcome) {
    std::size_t n = 0;
    for (const core::SettlementReceipt& receipt : report.receipts) {
      if (receipt.outcome == outcome) ++n;
    }
    return n;
  }

  static void expect_same_report(const LossyBatchReport& a,
                                 const LossyBatchReport& b) {
    ASSERT_EQ(a.receipts.size(), b.receipts.size());
    for (std::size_t i = 0; i < a.receipts.size(); ++i) {
      EXPECT_EQ(a.receipts[i].ue_id, b.receipts[i].ue_id) << i;
      EXPECT_EQ(a.receipts[i].cycle, b.receipts[i].cycle) << i;
      EXPECT_EQ(a.receipts[i].completed, b.receipts[i].completed) << i;
      EXPECT_EQ(a.receipts[i].charged, b.receipts[i].charged) << i;
      EXPECT_EQ(a.receipts[i].rounds, b.receipts[i].rounds) << i;
      EXPECT_EQ(a.receipts[i].poc_wire, b.receipts[i].poc_wire) << i;
      EXPECT_EQ(a.receipts[i].outcome, b.receipts[i].outcome) << i;
      EXPECT_EQ(a.receipts[i].retransmits, b.receipts[i].retransmits) << i;
      EXPECT_EQ(a.receipts[i].failure_reason, b.receipts[i].failure_reason)
          << i;
    }
    for (const core::SettleOutcome outcome :
         {core::SettleOutcome::Converged, core::SettleOutcome::Retried,
          core::SettleOutcome::Degraded,
          core::SettleOutcome::RejectedTamper}) {
      EXPECT_EQ(count_outcome(a, outcome), count_outcome(b, outcome));
    }
    EXPECT_EQ(a.coded, b.coded);
  }

  static core::RsaKeyCache* keys_;
};

core::RsaKeyCache* CodedSettlerTest::keys_ = nullptr;

TEST_F(CodedSettlerTest, ZeroFaultCodedReceiptsMatchStopAndWaitExactly) {
  core::BatchConfig batch;
  const std::vector<core::SettlementItem> items = make_items(4, 3);
  const TransportConfig transport = coded_transport(/*faulty=*/false);

  const CodedSettler coded(batch, transport, *keys_);
  const LossyBatchReport coded_report = coded.settle(items, 2);

  TransportConfig plain = transport;
  plain.coding = Coding::Off;
  const LossySettler lossy(batch, plain, *keys_);
  const LossyBatchReport lossy_report = lossy.settle(items, 2);

  ASSERT_EQ(coded_report.receipts.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(coded_report.receipts[i].poc_wire,
              lossy_report.receipts[i].poc_wire)
        << i;
    EXPECT_EQ(coded_report.receipts[i].charged, lossy_report.receipts[i].charged)
        << i;
    EXPECT_EQ(coded_report.receipts[i].rounds, lossy_report.receipts[i].rounds)
        << i;
    EXPECT_EQ(coded_report.receipts[i].outcome, core::SettleOutcome::Converged)
        << i;
  }
  EXPECT_EQ(count_outcome(coded_report, core::SettleOutcome::Converged),
            items.size());
  EXPECT_EQ(coded_report.coded.cycles_coded, items.size());
  EXPECT_EQ(coded_report.coded.fallbacks, 0u);
  EXPECT_EQ(coded_report.coded.packets_dependent, 0u);
  // The stop-and-wait report keeps its coded census at zero.
  EXPECT_EQ(lossy_report.coded, CodedCounters{});
}

TEST_F(CodedSettlerTest, FaultySettleIsBitIdenticalAcrossThreadCounts) {
  core::BatchConfig batch;
  const std::vector<core::SettlementItem> items = make_items(5, 2);
  const CodedSettler settler(batch, coded_transport(/*faulty=*/true), *keys_);
  const LossyBatchReport r1 = settler.settle(items, 1);
  const LossyBatchReport r2 = settler.settle(items, 2);
  const LossyBatchReport r4 = settler.settle(items, 4);
  expect_same_report(r1, r2);
  expect_same_report(r1, r4);
  // The faults must actually bite the coded path for this to mean
  // anything.
  EXPECT_GT(r1.coded.packets_sent, r1.coded.packets_delivered);
  // Every item was carried exactly one way: RLNC or a whole-group
  // fallback (2 cycles per UE group here).
  EXPECT_EQ(r1.coded.cycles_coded + r1.coded.fallbacks * 2,
            r1.receipts.size());
}

TEST_F(CodedSettlerTest, HopelessLinkWalksTheFullDegradationLadder) {
  // Drop heavy enough that the coded budget dies: every group must
  // fall back to stop-and-wait, which itself degrades to the legacy
  // CDR bill — receipts still come back for every item, with reasons.
  core::BatchConfig batch;
  TransportConfig transport = coded_transport(/*faulty=*/true);
  transport.to_operator.drop = 0.98;
  transport.to_edge.drop = 0.98;
  transport.coded.max_ticks = 1 << 14;
  transport.retry.max_ticks = 1 << 12;
  const std::vector<core::SettlementItem> items = make_items(2, 2);
  const CodedSettler settler(batch, transport, *keys_);
  const LossyBatchReport report = settler.settle(items, 1);
  ASSERT_EQ(report.receipts.size(), items.size());
  EXPECT_EQ(report.coded.fallbacks, 2u);  // one per UE group
  EXPECT_EQ(report.coded.cycles_coded, 0u);
  EXPECT_GT(count_outcome(report, core::SettleOutcome::Degraded), 0u);
  for (std::size_t i = 0; i < report.receipts.size(); ++i) {
    EXPECT_EQ(report.receipts[i].outcome, core::SettleOutcome::Degraded) << i;
    EXPECT_FALSE(report.receipts[i].failure_reason.empty()) << i;
  }
}

}  // namespace
}  // namespace tlc::transport
