// OFCS crash recovery: the ledger under a write-ahead StateLog must
// come back byte-identical after a process death at ANY instrumented
// boundary — no byte billed twice, no rated cycle lost.
//
// The driver below re-executes the whole billing workload from scratch
// in each incarnation (exactly what the fleet supervisor does); the
// record-ID dedupe turns the already-applied prefix into no-ops, and
// the final state must match a crash-free reference bit for bit
// (serialized state compared as raw bytes, doubles included).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "epc/ofcs.hpp"
#include "recovery/crash_plan.hpp"
#include "recovery/state_log.hpp"
#include "util/serde.hpp"

namespace tlc::epc {
namespace {

charging::DataPlan test_plan() {
  charging::DataPlan plan;
  plan.price_micro_per_mb = 10'000;  // 0.01/MB
  plan.quota_bytes = 10 * 1000 * 1000;
  return plan;
}

ChargingDataRecord make_cdr(Imsi imsi, std::uint16_t charging_id,
                            std::uint32_t seq, std::uint64_t ul,
                            std::uint64_t dl) {
  ChargingDataRecord cdr;
  cdr.served_imsi = imsi;
  cdr.charging_id = charging_id;
  cdr.sequence_number = seq;
  cdr.datavolume_uplink = ul;
  cdr.datavolume_downlink = dl;
  return cdr;
}

constexpr Imsi kUeA{31001};
constexpr Imsi kUeB{31002};
constexpr int kCycles = 3;

/// The billing workload: deterministic, idempotently re-executable.
/// Each cycle ingests per-UE CDRs (unique (imsi, charging_id, seq)
/// IDs), closes the cycle by index for both UEs, and checkpoints after
/// cycle 1.
void drive(Ofcs& ofcs, bool with_checkpoint = true) {
  ofcs.set_charge_hook([](Imsi, std::uint32_t cycle,
                          std::uint64_t gateway_volume) {
    return gateway_volume - gateway_volume / (cycle + 2);  // a TLC-ish x
  });
  for (std::uint32_t cycle = 0; cycle < kCycles; ++cycle) {
    ofcs.ingest(make_cdr(kUeA, 1, cycle, 1000 * (cycle + 1), 0));
    ofcs.ingest(make_cdr(kUeA, 2, cycle, 0, 700));
    ofcs.ingest(make_cdr(kUeB, 1, cycle, 0, 2500 * (cycle + 1)));
    (void)ofcs.close_cycle(kUeA, cycle);
    (void)ofcs.close_cycle(kUeB, cycle);
    if (cycle == 1 && with_checkpoint) {
      ASSERT_TRUE(ofcs.checkpoint().ok());
    }
  }
}

void wipe(const std::string& dir, const std::string& stem) {
  std::remove((dir + "/" + stem + ".ckpt").c_str());
  std::remove((dir + "/" + stem + ".ckpt.tmp").c_str());
  std::remove((dir + "/" + stem + ".wal").c_str());
}

/// Runs the workload crash-free with recovery attached; the state every
/// crashed run must converge to.
Bytes reference_state(const std::string& dir) {
  const std::string stem = "ofcs_ref";
  wipe(dir, stem);
  auto log = recovery::StateLog::open(dir, stem);
  EXPECT_TRUE(log.has_value());
  Ofcs ofcs(test_plan());
  EXPECT_TRUE(ofcs.attach_recovery(&*log).ok());
  drive(ofcs);
  Bytes state = ofcs.serialize_state();
  wipe(dir, stem);
  return state;
}

struct RunOutcome {
  Bytes state;
  int incarnations = 0;
  std::uint64_t duplicates = 0;
};

/// Supervision loop in miniature: re-run the workload until it
/// completes, recovering from disk each incarnation.
RunOutcome run_with_plan(const std::string& dir, const std::string& stem,
                         recovery::CrashPlan& plan) {
  RunOutcome outcome;
  wipe(dir, stem);
  for (int incarnation = 0; incarnation < 16; ++incarnation) {
    ++outcome.incarnations;
    plan.begin_incarnation();
    auto log = recovery::StateLog::open(dir, stem, &plan);
    EXPECT_TRUE(log.has_value()) << log.error();
    Ofcs ofcs(test_plan());
    EXPECT_TRUE(ofcs.attach_recovery(&*log).ok());
    try {
      drive(ofcs);
      EXPECT_TRUE(ofcs.recovery_error().ok()) << ofcs.recovery_error().error();
      outcome.state = ofcs.serialize_state();
      outcome.duplicates = ofcs.duplicate_ops_dropped();
      wipe(dir, stem);
      return outcome;
    } catch (const recovery::CrashException&) {
      // dead; next incarnation recovers from disk
    } catch (const recovery::WedgeException&) {
      // hung past the deadline; the supervisor restarts it wholesale
    }
  }
  ADD_FAILURE() << "workload never completed within the incarnation budget";
  return outcome;
}

TEST(OfcsRecoveryTest, SerializeRestoreRoundTripIsExact) {
  Ofcs ofcs(test_plan());
  drive(ofcs, /*with_checkpoint=*/false);
  const Bytes state = ofcs.serialize_state();
  Ofcs restored(test_plan());
  ASSERT_TRUE(restored.restore_state(state).ok());
  EXPECT_EQ(restored.serialize_state(), state);
  EXPECT_EQ(restored.totals().billed_bytes, ofcs.totals().billed_bytes);
  EXPECT_EQ(restored.totals().amount_micro, ofcs.totals().amount_micro);
}

TEST(OfcsRecoveryTest, RestoreRejectsDamage) {
  Ofcs ofcs(test_plan());
  drive(ofcs, /*with_checkpoint=*/false);
  Bytes state = ofcs.serialize_state();
  state.resize(state.size() - 3);
  Ofcs target(test_plan());
  EXPECT_FALSE(target.restore_state(state).ok());
}

TEST(OfcsRecoveryTest, CrashAtEveryInstrumentedPointConverges) {
  const std::string dir = ::testing::TempDir();
  const Bytes reference = reference_state(dir);
  ASSERT_FALSE(reference.empty());

  const std::vector<const char*> points = {
      recovery::kCrashJournalAppendPre,  recovery::kCrashJournalAppendTorn,
      recovery::kCrashJournalAppendPost, recovery::kCrashCheckpointPreWrite,
      recovery::kCrashCheckpointPreRename,
      recovery::kCrashCheckpointPostRename,
  };
  for (const char* point : points) {
    for (std::uint64_t hit : {0u, 1u, 7u}) {
      recovery::CrashPlan plan;
      plan.arm({point, 0, hit, recovery::CrashKind::Kill});
      const RunOutcome outcome =
          run_with_plan(dir, "ofcs_crash", plan);
      EXPECT_EQ(outcome.state, reference)
          << "state diverged after crash at " << point << " hit " << hit;
    }
  }
}

TEST(OfcsRecoveryTest, MultiCrashSchedulesConverge) {
  const std::string dir = ::testing::TempDir();
  const Bytes reference = reference_state(dir);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    recovery::CrashPlan plan;
    plan.arm_seeded(seed, /*crashes=*/3, /*scopes=*/1, /*max_hit=*/6);
    const RunOutcome outcome = run_with_plan(dir, "ofcs_multi", plan);
    EXPECT_EQ(outcome.state, reference) << "seed " << seed;
  }
}

TEST(OfcsRecoveryTest, PostRenameWindowDropsDuplicates) {
  // Crash after the checkpoint rename but before the journal rotate:
  // every op in the journal is already folded into the snapshot, so
  // the replay must drop all of them as duplicates.
  const std::string dir = ::testing::TempDir();
  const Bytes reference = reference_state(dir);
  recovery::CrashPlan plan;
  plan.arm({recovery::kCrashCheckpointPostRename, 0, 0,
            recovery::CrashKind::Kill});
  const RunOutcome outcome = run_with_plan(dir, "ofcs_postrename", plan);
  EXPECT_EQ(outcome.state, reference);
  EXPECT_EQ(outcome.incarnations, 2);
  EXPECT_GT(outcome.duplicates, 0u);
}

TEST(OfcsRecoveryTest, DetachedLegacyBehaviourUnchanged) {
  // Without a StateLog the new code paths must be inert: same bills as
  // the crash-free reference workload, no dedupe bookkeeping.
  Ofcs plain(test_plan());
  drive(plain, /*with_checkpoint=*/false);
  Ofcs journaled(test_plan());
  const std::string dir = ::testing::TempDir();
  wipe(dir, "ofcs_legacy");
  auto log = recovery::StateLog::open(dir, "ofcs_legacy");
  ASSERT_TRUE(log.has_value());
  ASSERT_TRUE(journaled.attach_recovery(&*log).ok());
  drive(journaled);
  EXPECT_EQ(plain.totals().billed_bytes, journaled.totals().billed_bytes);
  EXPECT_EQ(plain.totals().amount_micro, journaled.totals().amount_micro);
  const BillLine* line = nullptr;
  const SubscriberBilling* billing = plain.billing(kUeA);
  ASSERT_NE(billing, nullptr);
  ASSERT_EQ(billing->lines.size(), static_cast<std::size_t>(kCycles));
  line = &billing->lines[1];
  const SubscriberBilling* recovered_billing = journaled.billing(kUeA);
  ASSERT_NE(recovered_billing, nullptr);
  EXPECT_EQ(recovered_billing->lines[1].billed_volume, line->billed_volume);
  EXPECT_EQ(recovered_billing->lines[1].amount_micro, line->amount_micro);
  wipe(dir, "ofcs_legacy");
}

/// Journals `ops` as the whole of `stem`, recovers `ofcs` from them and
/// detaches it again; returns what recovery said.
Status recover_from(Ofcs& ofcs, const std::string& stem,
                    const std::vector<Bytes>& ops) {
  const std::string dir = ::testing::TempDir();
  wipe(dir, stem);
  {
    auto log = recovery::StateLog::open(dir, stem);
    if (!log) return Err(log.error());
    for (const Bytes& op : ops) {
      if (Status appended = log->append(op); !appended.ok()) return appended;
    }
  }
  auto log = recovery::StateLog::open(dir, stem);
  if (!log) return Err(log.error());
  const Status attached = ofcs.attach_recovery(&*log);
  (void)ofcs.attach_recovery(nullptr);
  wipe(dir, stem);
  return attached;
}

/// An ofcs_op_close for `imsi` carrying a line for `cycle`.
Bytes close_op(Imsi imsi, std::uint32_t cycle) {
  ByteWriter op;
  op.u8(2);
  op.u64(imsi.value);
  op.u32(cycle);
  op.u64(4000);  // gateway volume
  op.u64(3000);  // billed volume
  op.u64(30);    // amount
  op.u8(0);      // throttled
  return op.take();
}

TEST(OfcsRecoveryTest, JournaledSettleOpFromAVersion3JournalIsATypedError) {
  // A version-3 ledger journaled one settle op (tag 3: ue, cycle,
  // outcome) per settlement receipt. The ledger keeps no settlement
  // outcomes, so a leftover one is an op it does not know.
  ByteWriter op;
  op.u8(3);
  op.u64(1);
  op.u32(0);
  op.u8(0);
  Ofcs ofcs(test_plan());
  const Status attached = recover_from(ofcs, "ofcs_settle_v3", {op.take()});
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.error(), "ofcs: unknown journal op tag");
}

TEST(OfcsRecoveryTest, JournaledCloseOpThatSkipsACycleIsATypedError) {
  // A close op for cycle 5 on an empty ledger once gave the subscriber
  // one bill line and next_cycle 6, so close_cycle(imsi, 3) indexed
  // lines[3]; cycle 0xffffffff wrapped next_cycle to 0.
  for (const std::uint32_t cycle : {5u, 0xffffffffu}) {
    Ofcs ofcs(test_plan());
    const Status attached =
        recover_from(ofcs, "ofcs_skip", {close_op(Imsi{1001}, cycle)});
    ASSERT_FALSE(attached.ok()) << cycle;
    EXPECT_EQ(attached.error(), "ofcs: close op skips a cycle");
  }
  // Closes that follow one another replay, and a repeated one dedupes.
  Ofcs ofcs(test_plan());
  ASSERT_TRUE(recover_from(ofcs, "ofcs_no_skip",
                           {close_op(Imsi{1001}, 0), close_op(Imsi{1001}, 1),
                            close_op(Imsi{1001}, 1)})
                  .ok());
  const SubscriberBilling* billing = ofcs.billing(Imsi{1001});
  ASSERT_NE(billing, nullptr);
  ASSERT_EQ(billing->lines.size(), 2u);
  EXPECT_EQ(billing->lines[1].cycle_index, 1u);
}

Bytes with_u32(Bytes bytes, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  }
  return bytes;
}

TEST(OfcsRecoveryTest, RestoreRejectsLinesThatAreNotOnePerCycle) {
  // A snapshot's next_cycle must be its line count, and line i must
  // rate cycle i: close_cycle hands back lines[cycle] for any cycle
  // below next_cycle.
  Ofcs ofcs(test_plan());
  (void)ofcs.close_cycle(kUeA);
  (void)ofcs.close_cycle(kUeA);
  const Bytes snapshot = ofcs.serialize_state();
  // version, ingested, subscriber count; the subscriber's IMSI, an
  // empty archive, pending UL/DL, then next_cycle, the line count and
  // two 29-byte lines, each opening with its cycle index.
  constexpr std::size_t kNextCycle = 1 + 8 + 4 + 8 + 4 + 8 + 8;
  constexpr std::size_t kSecondLine = kNextCycle + 4 + 4 + 29;
  Ofcs intact(test_plan());
  ASSERT_TRUE(intact.restore_state(snapshot).ok());

  const std::vector<std::pair<Bytes, std::string>> damaged = {
      {with_u32(snapshot, kNextCycle, 6),
       "ofcs snapshot: next cycle is not the line count"},
      {with_u32(snapshot, kNextCycle, 1),
       "ofcs snapshot: next cycle is not the line count"},
      {with_u32(snapshot, kSecondLine, 3),
       "ofcs snapshot: bill line out of cycle order"},
      {with_u32(snapshot, kSecondLine, 0),
       "ofcs snapshot: bill line out of cycle order"},
  };
  for (const auto& [bytes, error] : damaged) {
    Ofcs target(test_plan());
    const Status restored = target.restore_state(bytes);
    ASSERT_FALSE(restored.ok()) << error;
    EXPECT_EQ(restored.error(), error);
  }
}

}  // namespace
}  // namespace tlc::epc
