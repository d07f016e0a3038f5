#include "core/tlc_session.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "charging/plan.hpp"
#include "core/verifier.hpp"

namespace tlc::core {
namespace {

struct SessionFixture : public ::testing::Test {
  SessionFixture() {
    Rng rng(808);
    edge_kp = crypto::rsa_generate(512, rng);
    op_kp = crypto::rsa_generate(512, rng);

    SessionConfig op_config;
    op_config.role = PartyRole::Operator;
    op_config.own_keys = op_kp;
    op_config.peer_key = edge_kp.public_key;
    op_config.c = 0.5;
    op_config.cycle_length = kHour;
    op_session = std::make_unique<TlcSession>(
        op_config, std::make_unique<OptimalStrategy>(), Rng(1));

    SessionConfig edge_config = op_config;
    edge_config.role = PartyRole::EdgeVendor;
    edge_config.own_keys = edge_kp;
    edge_config.peer_key = op_kp.public_key;
    edge_session = std::make_unique<TlcSession>(
        edge_config, std::make_unique<OptimalStrategy>(), Rng(2));

    op_session->set_send(
        [this](const Bytes& m) { wire.emplace_back(true, m); });
    edge_session->set_send(
        [this](const Bytes& m) { wire.emplace_back(false, m); });
  }

  void pump() {
    while (!wire.empty()) {
      auto [to_edge, message] = wire.front();
      wire.pop_front();
      if (to_edge) {
        (void)edge_session->receive(message);
      } else {
        (void)op_session->receive(message);
      }
    }
  }

  /// Drives one full cycle with matching measurements on both sides.
  CycleReceipt settle_cycle(std::uint64_t sent, std::uint64_t received) {
    EXPECT_TRUE(op_session->begin_cycle(UsageView{sent, received}).ok());
    EXPECT_TRUE(edge_session->begin_cycle(UsageView{sent, received}).ok());
    EXPECT_TRUE(op_session->start().ok());
    pump();
    EXPECT_TRUE(op_session->cycle_complete());
    EXPECT_TRUE(edge_session->cycle_complete());
    auto op_receipt = op_session->finish_cycle();
    auto edge_receipt = edge_session->finish_cycle();
    EXPECT_TRUE(op_receipt);
    EXPECT_TRUE(edge_receipt);
    EXPECT_EQ(op_receipt->charged, edge_receipt->charged);
    return *op_receipt;
  }

  crypto::RsaKeyPair edge_kp;
  crypto::RsaKeyPair op_kp;
  std::unique_ptr<TlcSession> op_session;
  std::unique_ptr<TlcSession> edge_session;
  std::deque<std::pair<bool, Bytes>> wire;
};

TEST_F(SessionFixture, SingleCycleSettles) {
  const CycleReceipt receipt = settle_cycle(100000, 90000);
  EXPECT_EQ(receipt.charged, charging::charged_volume(100000, 90000, 0.5));
  EXPECT_EQ(receipt.rounds, 1);
  EXPECT_EQ(receipt.plan.t_start, 0);
  EXPECT_EQ(receipt.plan.t_end, kHour);
}

TEST_F(SessionFixture, ConsecutiveCyclesAdvancePlan) {
  (void)settle_cycle(100000, 90000);
  const CycleReceipt second = settle_cycle(50000, 50000);
  EXPECT_EQ(second.plan.t_start, kHour);
  EXPECT_EQ(second.plan.t_end, 2 * kHour);
  EXPECT_EQ(op_session->completed_cycles(), 2);
  EXPECT_EQ(op_session->receipts().size(), 2u);
}

TEST_F(SessionFixture, ReceiptsVerifyPublicly) {
  (void)settle_cycle(100000, 90000);
  (void)settle_cycle(200000, 170000);
  PublicVerifier verifier;
  for (const PocStore::Entry& entry : edge_session->receipts().entries()) {
    auto verified = verifier.verify(VerificationRequest{
        entry.poc_wire, entry.plan, edge_kp.public_key, op_kp.public_key});
    EXPECT_TRUE(verified) << (verified ? "" : verified.error());
  }
  EXPECT_EQ(verifier.accepted(), 2u);
}

TEST_F(SessionFixture, BothPartiesHoldIdenticalReceipts) {
  (void)settle_cycle(100000, 90000);
  ASSERT_EQ(op_session->receipts().size(), 1u);
  ASSERT_EQ(edge_session->receipts().size(), 1u);
  EXPECT_EQ(op_session->receipts().entries()[0].poc_wire,
            edge_session->receipts().entries()[0].poc_wire);
}

TEST_F(SessionFixture, LifecycleErrors) {
  EXPECT_FALSE(op_session->start().ok());          // no cycle armed
  EXPECT_FALSE(op_session->finish_cycle());        // nothing to finish
  EXPECT_FALSE(op_session->receive(bytes_of("x")).ok());
  EXPECT_TRUE(op_session->begin_cycle(UsageView{1, 1}).ok());
  EXPECT_TRUE(op_session->start().ok());
  EXPECT_FALSE(op_session->begin_cycle(UsageView{2, 2}).ok());  // in flight
}

TEST_F(SessionFixture, CryptoTimeAccumulates) {
  (void)settle_cycle(100000, 90000);
  EXPECT_GT(op_session->crypto_seconds(), 0.0);
  EXPECT_GT(edge_session->crypto_seconds(), 0.0);
}

}  // namespace
}  // namespace tlc::core
