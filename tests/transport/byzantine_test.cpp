// Byzantine peers: stale-CDA replays, inflated claimed volumes and
// wrong-key re-signs. Algorithm 2 (verifier.cpp) must reject every
// tampered artifact, and the honest side must degrade — never accept,
// never crash, never hang.
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "charging/plan.hpp"
#include "core/batch_settlement.hpp"
#include "core/messages.hpp"
#include "core/protocol.hpp"
#include "core/verifier.hpp"
#include "transport/reliable_session.hpp"
#include "transport/retry.hpp"
#include "util/rng.hpp"

namespace tlc::transport {
namespace {

using core::CdaMessage;
using core::PartyRole;
using core::PlanRef;
using core::UsageView;

const crypto::RsaKeyPair& edge_keys() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(71);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

const crypto::RsaKeyPair& operator_keys() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(72);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

const crypto::RsaKeyPair& mallory_keys() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(73);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

PlanRef test_plan() { return PlanRef{0, kHour, 0.5}; }

core::EndpointConfig endpoint_config(PartyRole role, UsageView view) {
  core::EndpointConfig config;
  config.role = role;
  if (role == PartyRole::Operator) {
    config.own_private = operator_keys().private_key;
    config.own_public = operator_keys().public_key;
    config.peer_public = edge_keys().public_key;
  } else {
    config.own_private = edge_keys().private_key;
    config.own_public = edge_keys().public_key;
    config.peer_public = operator_keys().public_key;
  }
  config.plan = test_plan();
  config.view = view;
  return config;
}

/// Runs one honest negotiation and returns the operator-held PoC wire.
Bytes honest_poc_wire() {
  core::OptimalStrategy op_strategy;
  core::OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  core::ProtocolEndpoint op(endpoint_config(PartyRole::Operator, view),
                            op_strategy, Rng(74));
  core::ProtocolEndpoint edge(endpoint_config(PartyRole::EdgeVendor, view),
                              edge_strategy, Rng(75));
  std::deque<std::pair<bool, Bytes>> wire;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  op.start();
  int safety = 100;
  while (!wire.empty() && safety-- > 0) {
    auto [to_edge, message] = wire.front();
    wire.pop_front();
    if (to_edge) {
      (void)edge.receive(message);
    } else {
      (void)op.receive(message);
    }
  }
  EXPECT_TRUE(op.done());
  return encode_signed_poc(*op.poc());
}

core::VerificationRequest request_for(Bytes poc_wire) {
  core::VerificationRequest request;
  request.poc_wire = std::move(poc_wire);
  request.plan = test_plan();
  request.edge_key = edge_keys().public_key;
  request.operator_key = operator_keys().public_key;
  return request;
}

TEST(ByzantineTest, HonestPocVerifies) {
  const auto verified = core::verify_poc(request_for(honest_poc_wire()));
  ASSERT_TRUE(verified.has_value()) << verified.error();
  EXPECT_EQ(verified->charged, charging::charged_volume(100000, 90000, 0.5));
}

TEST(ByzantineTest, InflatedChargedVolumeRejected) {
  // The constructor re-signs the PoC claiming more than Algorithm 1
  // yields from the embedded claims; line 8-9 replay catches it.
  auto poc = *core::decode_signed_poc(honest_poc_wire());
  poc.body.charged += 10'000;
  poc.signature = crypto::rsa_sign(operator_keys().private_key,
                                   encode_poc_body(poc.body));
  const auto verified =
      core::verify_poc(request_for(encode_signed_poc(poc)));
  ASSERT_FALSE(verified.has_value());
}

TEST(ByzantineTest, WrongKeyResignRejected) {
  // Mallory re-signs the (unmodified) PoC body with her own key.
  auto poc = *core::decode_signed_poc(honest_poc_wire());
  poc.signature = crypto::rsa_sign(mallory_keys().private_key,
                                   encode_poc_body(poc.body));
  const auto verified =
      core::verify_poc(request_for(encode_signed_poc(poc)));
  ASSERT_FALSE(verified.has_value());
}

TEST(ByzantineTest, CorruptedPocWireFailsCleanly) {
  // Random damage anywhere in the wire must surface as a verification
  // error, never a crash.
  const Bytes honest = honest_poc_wire();
  for (std::size_t at : {std::size_t{0}, honest.size() / 3,
                         honest.size() / 2, honest.size() - 1}) {
    Bytes damaged = honest;
    damaged[at] ^= 0x5a;
    EXPECT_FALSE(core::verify_poc(request_for(damaged)).has_value());
  }
  Bytes truncated = honest;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(core::verify_poc(request_for(truncated)).has_value());
}

TEST(ByzantineTest, PublicVerifierBlocksReplay) {
  const Bytes poc = honest_poc_wire();
  core::PublicVerifier verifier;
  EXPECT_TRUE(verifier.verify(request_for(poc)).has_value());
  EXPECT_FALSE(verifier.verify(request_for(poc)).has_value());
  EXPECT_EQ(verifier.accepted(), 1u);
  EXPECT_EQ(verifier.replays_blocked(), 1u);
}

TEST(ByzantineTest, StaleCdaReplayCountsAsTamper) {
  // A CDA archived from cycle 0 replayed into cycle 1: the plan window
  // moved, so the cross-layer plan check rejects it; the lenient
  // session drops it and keeps the cycle alive.
  core::BatchConfig config;
  core::RsaKeyCache keys(512, 1, 0x57a1e);
  auto op = core::make_batch_session(config, keys, 0, PartyRole::Operator);
  auto edge = core::make_batch_session(config, keys, 0, PartyRole::EdgeVendor);
  std::deque<std::pair<bool, Bytes>> wire;
  Bytes cycle0_cda;
  op->set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge->set_send([&](const Bytes& m) {
    if (cycle0_cda.empty()) cycle0_cda = m;
    wire.emplace_back(false, m);
  });

  const UsageView view{100000, 90000};
  ASSERT_TRUE(op->begin_cycle(view).ok());
  ASSERT_TRUE(edge->begin_cycle(view).ok());
  ASSERT_TRUE(op->start().ok());
  int safety = 50;
  while (!wire.empty() && safety-- > 0) {
    auto [to_edge, message] = wire.front();
    wire.pop_front();
    if (to_edge) {
      (void)edge->receive(message);
    } else {
      (void)op->receive(message);
    }
  }
  ASSERT_TRUE(op->cycle_complete() && edge->cycle_complete());
  ASSERT_TRUE(op->finish_cycle().has_value());
  ASSERT_TRUE(edge->finish_cycle().has_value());
  ASSERT_FALSE(cycle0_cda.empty());

  // Cycle 1 under way; replay cycle 0's CDA at the operator.
  ASSERT_TRUE(op->begin_cycle(view).ok());
  ASSERT_TRUE(edge->begin_cycle(view).ok());
  wire.clear();
  ASSERT_TRUE(op->start().ok());
  EXPECT_FALSE(op->receive(cycle0_cda).ok());
  EXPECT_FALSE(op->cycle_failed());
  EXPECT_EQ(op->tamper_suspected(), 1);
}

TEST(ByzantineTest, ForgingPeerExhaustsBudgetAndDegrades) {
  // Mallory answers every CDR with a wrong-key CDA. The lenient honest
  // operator drops each forgery; its retransmit budget drains and the
  // driver reports degradation — the runner maps that to
  // RejectedTamper because tampering was observed.
  core::BatchConfig config;
  core::RsaKeyCache keys(512, 1, 0xdead);
  auto op = core::make_batch_session(config, keys, 0, PartyRole::Operator);
  ASSERT_TRUE(op->begin_cycle({100000, 90000}).ok());

  RetryPolicy policy;
  policy.base_timeout_ticks = 8;
  policy.jitter = 0.0;
  policy.max_retransmits = 2;
  std::vector<Bytes> to_edge;
  ReliableSessionDriver driver(*op, policy, Rng(76),
                               [&](const Bytes& w) { to_edge.push_back(w); });
  driver.set_now(0);
  ASSERT_TRUE(op->start().ok());

  std::uint64_t now = 0;
  int injections = 0;
  while (!driver.degraded() && injections < 20) {
    auto cdr = core::decode_signed_cdr(to_edge.back());
    ASSERT_TRUE(cdr.has_value());
    CdaMessage cda;
    cda.plan = cdr->body.plan;
    cda.sender = PartyRole::EdgeVendor;
    cda.seq = cdr->body.seq;
    cda.nonce = 7;
    cda.volume = 90000;
    cda.peer_cdr_wire = to_edge.back();
    const Bytes forged =
        encode_signed_cda(sign_cda(cda, mallory_keys().private_key));
    driver.on_wire(forged, now);
    ++injections;
    const std::uint64_t deadline = driver.next_deadline();
    now = deadline == RetransmitTimer::kNever ? now + 1 : deadline;
    (void)driver.poll(now);
  }
  EXPECT_TRUE(driver.degraded());
  EXPECT_FALSE(op->cycle_failed());  // dropped, never aborted
  EXPECT_GT(op->tamper_suspected(), 0);
  EXPECT_FALSE(op->cycle_complete());
}

}  // namespace
}  // namespace tlc::transport
