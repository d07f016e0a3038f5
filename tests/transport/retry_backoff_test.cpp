// Retry policy: backoff schedule, timeout expiry, budget exhaustion and
// byte-identical idempotent resends — all on the virtual clock.
#include "transport/retry.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/batch_settlement.hpp"
#include "transport/faulty_channel.hpp"
#include "transport/reliable_session.hpp"
#include "util/rng.hpp"

namespace tlc::transport {
namespace {

RetryPolicy no_jitter_policy() {
  RetryPolicy policy;
  policy.base_timeout_ticks = 16;
  policy.backoff_factor = 2.0;
  policy.max_timeout_ticks = 100;
  policy.jitter = 0.0;
  policy.max_retransmits = 3;
  return policy;
}

TEST(BackoffTest, ExponentialGrowthWithCeiling) {
  Rng rng(1);
  const RetryPolicy policy = no_jitter_policy();
  EXPECT_EQ(backoff_timeout(policy, 0, rng), 16u);
  EXPECT_EQ(backoff_timeout(policy, 1, rng), 32u);
  EXPECT_EQ(backoff_timeout(policy, 2, rng), 64u);
  EXPECT_EQ(backoff_timeout(policy, 3, rng), 100u);  // capped
  EXPECT_EQ(backoff_timeout(policy, 10, rng), 100u);
}

TEST(BackoffTest, JitterStaysWithinFraction) {
  RetryPolicy policy = no_jitter_policy();
  policy.jitter = 0.25;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t t = backoff_timeout(policy, 1, rng);
    EXPECT_GE(t, 32u);
    EXPECT_LT(t, 40u);  // 32 + floor(0.25 * 32)
  }
}

TEST(BackoffTest, DeterministicGivenSeed) {
  RetryPolicy policy = no_jitter_policy();
  policy.jitter = 0.5;
  auto draw = [&] {
    Rng rng(0xfeed);
    std::vector<std::uint64_t> seq;
    for (int a = 0; a < 8; ++a) seq.push_back(backoff_timeout(policy, a, rng));
    return seq;
  };
  EXPECT_EQ(draw(), draw());
}

TEST(RetransmitTimerTest, ArmExpireBudget) {
  RetransmitTimer timer(no_jitter_policy(), Rng(3));
  EXPECT_FALSE(timer.armed());

  timer.arm(100);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 116u);
  EXPECT_FALSE(timer.expired(115));
  EXPECT_TRUE(timer.expired(116));

  // Three retransmissions fit the budget; the fourth is refused.
  EXPECT_TRUE(timer.record_retransmit(116));
  EXPECT_EQ(timer.deadline(), 116u + 32u);
  EXPECT_TRUE(timer.record_retransmit(148));
  EXPECT_TRUE(timer.record_retransmit(212));
  EXPECT_TRUE(timer.budget_exhausted());
  EXPECT_FALSE(timer.record_retransmit(312));
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(timer.retransmits(), 3);
}

TEST(RetransmitTimerTest, ReArmRestartsLadderButKeepsBudget) {
  RetransmitTimer timer(no_jitter_policy(), Rng(4));
  timer.arm(0);
  EXPECT_TRUE(timer.record_retransmit(16));  // attempt 1 -> next is 32 ticks
  EXPECT_EQ(timer.deadline(), 48u);

  // A fresh message restarts the backoff ladder at the base timeout...
  timer.arm(50);
  EXPECT_EQ(timer.deadline(), 66u);
  // ...but the cycle-wide budget is not refunded.
  EXPECT_EQ(timer.retransmits(), 1);
  EXPECT_TRUE(timer.record_retransmit(66));
  EXPECT_TRUE(timer.record_retransmit(98));
  EXPECT_TRUE(timer.budget_exhausted());
}

TEST(RetransmitTimerTest, DisarmStopsExpiry) {
  RetransmitTimer timer(no_jitter_policy(), Rng(5));
  timer.arm(0);
  timer.disarm();
  EXPECT_FALSE(timer.armed());
  EXPECT_FALSE(timer.expired(1'000'000));
}

// --- Driver-level: idempotent resends of the same bytes ---

class DriverResendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    keys_ = new core::RsaKeyCache(512, 1, 0xbeef);
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }
  static core::RsaKeyCache* keys_;
};

core::RsaKeyCache* DriverResendTest::keys_ = nullptr;

TEST_F(DriverResendTest, TimerExpiryResendsIdenticalBytes) {
  core::BatchConfig config;
  auto op = core::make_batch_session(config, *keys_, 0,
                                     core::PartyRole::Operator);
  ASSERT_TRUE(op->begin_cycle({100000, 90000}).ok());

  std::vector<Bytes> sent;
  ReliableSessionDriver driver(*op, no_jitter_policy(), Rng(6),
                               [&](const Bytes& w) { sent.push_back(w); });
  driver.set_now(0);
  ASSERT_TRUE(op->start().ok());
  ASSERT_EQ(sent.size(), 1u);

  // No reply ever arrives: expiries at +16, +48, +112 resend the exact
  // same wire (same signature, same nonce — never re-signed).
  EXPECT_TRUE(driver.poll(16));
  EXPECT_TRUE(driver.poll(48));
  EXPECT_TRUE(driver.poll(112));
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(sent[1], sent[0]);
  EXPECT_EQ(sent[2], sent[0]);
  EXPECT_EQ(sent[3], sent[0]);
  EXPECT_EQ(driver.retransmits(), 3);

  // Budget (3) is now spent: the next expiry reports degradation.
  EXPECT_FALSE(driver.poll(1'000));
  EXPECT_TRUE(driver.degraded());
  EXPECT_EQ(sent.size(), 4u);
  EXPECT_EQ(driver.next_deadline(), RetransmitTimer::kNever);
}

TEST_F(DriverResendTest, PollBeforeDeadlineDoesNothing) {
  core::BatchConfig config;
  auto op = core::make_batch_session(config, *keys_, 0,
                                     core::PartyRole::Operator);
  ASSERT_TRUE(op->begin_cycle({1000, 900}).ok());
  std::vector<Bytes> sent;
  ReliableSessionDriver driver(*op, no_jitter_policy(), Rng(7),
                               [&](const Bytes& w) { sent.push_back(w); });
  driver.set_now(0);
  ASSERT_TRUE(op->start().ok());
  EXPECT_TRUE(driver.poll(5));
  EXPECT_TRUE(driver.poll(15));
  EXPECT_EQ(sent.size(), 1u);
  EXPECT_EQ(driver.retransmits(), 0);
}

TEST_F(DriverResendTest, DuplicateInboundTriggersResendOfLastReply) {
  // Lost-PoC recovery: the edge answered the CDR with a CDA; when the
  // operator repeats its CDR (it never saw the CDA), the edge resends
  // the same CDA bytes.
  core::BatchConfig config;
  auto op = core::make_batch_session(config, *keys_, 0,
                                     core::PartyRole::Operator);
  auto edge = core::make_batch_session(config, *keys_, 0,
                                       core::PartyRole::EdgeVendor);
  ASSERT_TRUE(op->begin_cycle({100000, 90000}).ok());
  ASSERT_TRUE(edge->begin_cycle({100000, 90000}).ok());

  Bytes op_cdr;
  op->set_send([&](const Bytes& w) { op_cdr = w; });
  ASSERT_TRUE(op->start().ok());
  ASSERT_FALSE(op_cdr.empty());

  std::vector<Bytes> edge_sent;
  ReliableSessionDriver driver(*edge, no_jitter_policy(), Rng(8),
                               [&](const Bytes& w) { edge_sent.push_back(w); });
  driver.on_wire(op_cdr, 1);
  ASSERT_EQ(edge_sent.size(), 1u);  // the CDA

  driver.on_wire(op_cdr, 40);  // duplicate CDR: our CDA must have been lost
  ASSERT_EQ(edge_sent.size(), 2u);
  EXPECT_EQ(edge_sent[1], edge_sent[0]);
  EXPECT_EQ(driver.duplicates_seen(), 1);
  EXPECT_EQ(driver.retransmits(), 1);  // counted against the budget
}

}  // namespace
}  // namespace tlc::transport
