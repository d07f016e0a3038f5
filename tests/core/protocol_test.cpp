// Figure 7 protocol state machines, driven message-by-message.
#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "charging/plan.hpp"
#include "core/verifier.hpp"
#include "util/rng.hpp"

namespace tlc::core {
namespace {

const crypto::RsaKeyPair& edge_keys() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(41);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

const crypto::RsaKeyPair& operator_keys() {
  static const crypto::RsaKeyPair kp = [] {
    Rng rng(42);
    return crypto::rsa_generate(512, rng);
  }();
  return kp;
}

PlanRef test_plan() { return PlanRef{0, kHour, 0.5}; }

EndpointConfig make_config(PartyRole role, UsageView view,
                           PlanRef plan = test_plan()) {
  EndpointConfig config;
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
  config.plan = plan;
  config.view = view;
  return config;
}

/// Runs two endpoints against each other over an in-memory queue until
/// both settle or nothing more flows.
void pump(ProtocolEndpoint& a, ProtocolEndpoint& b) {
  std::deque<std::pair<bool, Bytes>> wire;  // (to_b?, message)
  a.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  b.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  a.start();
  int safety = 1000;
  while (!wire.empty() && safety-- > 0) {
    auto [to_b, message] = wire.front();
    wire.pop_front();
    if (to_b) {
      (void)b.receive(message);
    } else {
      (void)a.receive(message);
    }
  }
}

TEST(ProtocolTest, OperatorInitiatedOptimalOneRound) {
  // Fig 7b case 1: CDR -> CDA -> PoC.
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(1));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(2));
  pump(op, edge);

  ASSERT_TRUE(op.done());
  ASSERT_TRUE(edge.done());
  EXPECT_EQ(op.rounds(), 1);
  EXPECT_EQ(edge.rounds(), 1);
  EXPECT_EQ(op.negotiated(), edge.negotiated());
  EXPECT_EQ(op.negotiated(), charging::charged_volume(100000, 90000, 0.5));
  // Both parties hold the PoC (§5.3.2: reply + locally store).
  ASSERT_TRUE(op.poc().has_value());
  ASSERT_TRUE(edge.poc().has_value());
  EXPECT_EQ(encode_signed_poc(*op.poc()), encode_signed_poc(*edge.poc()));
}

TEST(ProtocolTest, EdgeInitiatedAlsoConverges) {
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{50000, 48000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(3));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(4));
  pump(edge, op);  // edge initiates
  EXPECT_TRUE(op.done());
  EXPECT_TRUE(edge.done());
  EXPECT_EQ(op.negotiated(), edge.negotiated());
}

TEST(ProtocolTest, RandomSelfishConvergesWithReclaims) {
  // Fig 7b cases 2/3: rejects appear as repeated CDRs before the CDA.
  Rng rng(5);
  RandomSelfishStrategy op_strategy(rng.fork());
  RandomSelfishStrategy edge_strategy(rng.fork());
  const UsageView view{200000, 150000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(6));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(7));
  pump(op, edge);
  ASSERT_TRUE(op.done());
  ASSERT_TRUE(edge.done());
  EXPECT_EQ(op.negotiated(), edge.negotiated());
  EXPECT_GE(op.negotiated(), 150000u);  // Theorem 2 bound
  EXPECT_LE(op.negotiated(), 200000u);
  EXPECT_GE(op.rounds(), 1);
}

TEST(ProtocolTest, RejectAllHitsRoundCap) {
  RejectAllStrategy edge_strategy;
  OptimalStrategy op_strategy;
  const UsageView view{100000, 90000};
  auto op_config = make_config(PartyRole::Operator, view);
  op_config.max_rounds = 8;
  auto edge_config = make_config(PartyRole::EdgeVendor, view);
  edge_config.max_rounds = 8;
  ProtocolEndpoint op(op_config, op_strategy, Rng(8));
  ProtocolEndpoint edge(edge_config, edge_strategy, Rng(9));
  pump(op, edge);
  EXPECT_TRUE(op.failed() || edge.failed());
  EXPECT_FALSE(op.done() && edge.done());
}

TEST(ProtocolTest, PlanMismatchRejected) {
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(10));
  // The edge agreed to a different c: every message must be rejected.
  ProtocolEndpoint edge(
      make_config(PartyRole::EdgeVendor, view, PlanRef{0, kHour, 0.25}),
      edge_strategy, Rng(11));
  pump(op, edge);
  EXPECT_FALSE(op.done());
  EXPECT_FALSE(edge.done());
  EXPECT_TRUE(edge.failed());
}

TEST(ProtocolTest, ForgedMessageDetected) {
  OptimalStrategy op_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(12));
  Bytes captured;
  op.set_send([&](const Bytes& m) { captured = m; });
  op.start();
  ASSERT_FALSE(captured.empty());

  // A MITM fabricates an edge CDR with the wrong key.
  Rng rng(13);
  const auto mallory = crypto::rsa_generate(512, rng);
  CdrMessage fake;
  fake.plan = test_plan();
  fake.sender = PartyRole::EdgeVendor;
  fake.seq = 0;
  fake.nonce = 1;
  fake.volume = 1;
  const Bytes forged = encode_signed_cdr(sign_cdr(fake, mallory.private_key));
  EXPECT_FALSE(op.receive(forged).ok());
  EXPECT_TRUE(op.failed());
}

TEST(ProtocolTest, CdaEchoMismatchDetected) {
  // A peer that accepts a *different* CDR than the one we sent (e.g. a
  // replayed older claim) is caught by the byte-exact echo check.
  OptimalStrategy op_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(14));
  Bytes op_cdr;
  op.set_send([&](const Bytes& m) { op_cdr = m; });
  op.start();

  CdaMessage cda;
  cda.plan = test_plan();
  cda.sender = PartyRole::EdgeVendor;
  cda.seq = 0;
  cda.nonce = 7;
  cda.volume = 950;
  // Echo a fabricated CDR instead of the real one.
  CdrMessage other;
  other.plan = test_plan();
  other.sender = PartyRole::Operator;
  other.seq = 0;
  other.nonce = 999;
  other.volume = 5;
  cda.peer_cdr_wire =
      encode_signed_cdr(sign_cdr(other, operator_keys().private_key));
  const Bytes wire =
      encode_signed_cda(sign_cda(cda, edge_keys().private_key));
  EXPECT_FALSE(op.receive(wire).ok());
  EXPECT_TRUE(op.failed());
}

TEST(ProtocolTest, CdaSeqTwoToThe32IsNotRoundZero) {
  // The peer signs a u64 seq. Narrowed to int, 2^32 passed for round 0:
  // the operator finished on a PoC that verify_poc rejects ("se != so").
  OptimalStrategy op_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(60));
  Bytes sent;
  op.set_send([&](const Bytes& m) { sent = m; });
  op.start();
  const Bytes op_cdr = sent;

  CdaMessage cda;
  cda.plan = test_plan();
  cda.sender = PartyRole::EdgeVendor;
  cda.seq = std::uint64_t{1} << 32;
  cda.nonce = 7;
  cda.volume = 950;
  cda.peer_cdr_wire = op_cdr;
  EXPECT_FALSE(
      op.receive(encode_signed_cda(sign_cda(cda, edge_keys().private_key)))
          .ok());
  EXPECT_FALSE(op.done());
  EXPECT_EQ(op.state(), EndpointState::SentCdr);

  // The same acceptance in round 0 settles on a PoC that verifies.
  cda.seq = 0;
  ASSERT_TRUE(
      op.receive(encode_signed_cda(sign_cda(cda, edge_keys().private_key)))
          .ok());
  ASSERT_TRUE(op.done());
  EXPECT_TRUE(verify_poc({sent, test_plan(), edge_keys().public_key,
                          operator_keys().public_key}));
}

TEST(ProtocolTest, CdrSeqTwoToThe32IsBeyondTheRoundCap) {
  OptimalStrategy edge_strategy;
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, {1000, 900}),
                        edge_strategy, Rng(61));
  int sent = 0;
  edge.set_send([&](const Bytes&) { ++sent; });
  CdrMessage cdr;
  cdr.plan = test_plan();
  cdr.sender = PartyRole::Operator;
  cdr.seq = std::uint64_t{1} << 32;
  cdr.nonce = 9;
  cdr.volume = 1000;
  const Bytes wire =
      encode_signed_cdr(sign_cdr(cdr, operator_keys().private_key));
  EXPECT_FALSE(edge.receive(wire).ok());
  EXPECT_TRUE(edge.failed());
  EXPECT_EQ(edge.failure_reason(), "round cap reached");
  EXPECT_EQ(sent, 0);
}

TEST(ProtocolTest, PocWithWrongSeqOrNoncesIsTamper) {
  // The PoC's seq and clear-text nonces are what an outside verifier
  // checks against the signed layers, and the nonces are not signed. An
  // edge that took a PoC without checking them reached Done on one
  // verify_poc rejects.
  struct Forged {
    std::uint64_t seq_offset;  // added to the CDA's seq + 1
    bool swap_nonces;
  };
  for (const Forged forged : {Forged{0, false}, Forged{98, false},
                              Forged{0, true}}) {
    SCOPED_TRACE(forged.seq_offset + (forged.swap_nonces ? 1000 : 0));
    OptimalStrategy edge_strategy;
    ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, {1000, 900}),
                          edge_strategy, Rng(62));
    Bytes edge_cda;
    edge.set_send([&](const Bytes& m) { edge_cda = m; });
    CdrMessage cdr;
    cdr.plan = test_plan();
    cdr.sender = PartyRole::Operator;
    cdr.seq = 0;
    cdr.nonce = 0x0e;
    cdr.volume = 1000;
    ASSERT_TRUE(
        edge.receive(
                encode_signed_cdr(sign_cdr(cdr, operator_keys().private_key)))
            .ok());
    ASSERT_EQ(edge.state(), EndpointState::SentCda);
    const auto cda = decode_signed_cda(edge_cda);
    ASSERT_TRUE(cda);

    PocMessage poc;
    poc.plan = test_plan();
    poc.sender = PartyRole::Operator;
    poc.seq = cda->body.seq + 1 + forged.seq_offset;
    poc.charged = charging::charged_volume(cda->body.volume, cdr.volume,
                                           test_plan().c);
    poc.cda_wire = edge_cda;
    const std::uint64_t nonce_edge = cda->body.nonce;
    const std::uint64_t nonce_operator = cdr.nonce;
    const Bytes poc_wire = encode_signed_poc(sign_poc(
        poc, operator_keys().private_key,
        forged.swap_nonces ? nonce_operator : nonce_edge,
        forged.swap_nonces ? nonce_edge : nonce_operator));
    const bool genuine = forged.seq_offset == 0 && !forged.swap_nonces;
    EXPECT_EQ(edge.receive(poc_wire).ok(), genuine);
    EXPECT_EQ(edge.done(), genuine);
    EXPECT_EQ(edge.failed(), !genuine);
    EXPECT_EQ(edge.tamper_suspected(), genuine ? 0 : 1);
    EXPECT_EQ(static_cast<bool>(verify_poc({poc_wire, test_plan(),
                                            edge_keys().public_key,
                                            operator_keys().public_key})),
              genuine);
  }
}

TEST(ProtocolTest, GarbageInputFailsCleanly) {
  OptimalStrategy strategy;
  ProtocolEndpoint op(make_config(PartyRole::Operator, UsageView{1, 1}),
                      strategy, Rng(15));
  EXPECT_FALSE(op.receive(bytes_of("not a message")).ok());
  EXPECT_FALSE(op.receive({}).ok());
}

TEST(ProtocolTest, AccountingTracksMessagesAndBytes) {
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(16));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(17));
  pump(op, edge);
  ASSERT_TRUE(op.done());
  // 1-round flow: operator sent CDR + PoC, edge sent CDA.
  EXPECT_EQ(op.messages_sent(), 2);
  EXPECT_EQ(edge.messages_sent(), 1);
  EXPECT_GT(op.bytes_sent(), 0u);
  EXPECT_GT(op.crypto_seconds(), 0.0);
  EXPECT_GT(op.last_cdr_size(), 0u);
  EXPECT_GT(edge.last_cda_size(), op.last_cdr_size());
  EXPECT_GT(op.last_poc_size(), edge.last_cda_size());
}

TEST(ProtocolTest, DoneEndpointRefusesFurtherInput) {
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(18));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(19));
  Bytes last_to_edge;
  pump(op, edge);
  ASSERT_TRUE(edge.done());
  EXPECT_FALSE(edge.receive(bytes_of("late")).ok());
}

TEST(ProtocolTest, SimultaneousInitiationConverges) {
  // Both parties open the negotiation at once: the edge-side tie-break
  // (Fig 7a's "recv CDR, send CDA" edge from the CDR state) resolves it.
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(30));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(31));
  std::deque<std::pair<bool, Bytes>> wire;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  op.start();
  edge.start();  // both initiate
  int safety = 500;
  while (!wire.empty() && safety-- > 0) {
    auto [to_edge, message] = wire.front();
    wire.pop_front();
    if (to_edge) {
      (void)edge.receive(message);
    } else {
      (void)op.receive(message);
    }
  }
  ASSERT_TRUE(op.done());
  ASSERT_TRUE(edge.done());
  EXPECT_EQ(op.negotiated(), edge.negotiated());
  EXPECT_EQ(op.negotiated(), charging::charged_volume(100000, 90000, 0.5));
}

TEST(ProtocolTest, SimultaneousInitiationRandomStrategies) {
  Rng rng(32);
  RandomSelfishStrategy op_strategy(rng.fork());
  RandomSelfishStrategy edge_strategy(rng.fork());
  const UsageView view{500000, 420000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(33));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(34));
  std::deque<std::pair<bool, Bytes>> wire;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  op.start();
  edge.start();
  int safety = 2000;
  while (!wire.empty() && safety-- > 0) {
    auto [to_edge, message] = wire.front();
    wire.pop_front();
    if (to_edge) {
      (void)edge.receive(message);
    } else {
      (void)op.receive(message);
    }
  }
  ASSERT_TRUE(op.done());
  ASSERT_TRUE(edge.done());
  EXPECT_GE(op.negotiated(), 420000u);
  EXPECT_LE(op.negotiated(), 500000u);
}

TEST(ProtocolTest, DuplicateCdrIgnoredMidNegotiation) {
  // A retransmitted copy of the message the endpoint already acted on
  // must not advance, abort, or re-answer — idempotent receive.
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(50));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(51));
  Bytes op_cdr;
  int edge_sends = 0;
  op.set_send([&](const Bytes& m) { op_cdr = m; });
  edge.set_send([&](const Bytes&) { ++edge_sends; });
  op.start();
  ASSERT_TRUE(edge.receive(op_cdr).ok());
  ASSERT_EQ(edge.state(), EndpointState::SentCda);
  ASSERT_EQ(edge_sends, 1);

  // Same bytes again (transport duplicate).
  EXPECT_TRUE(edge.receive(op_cdr).ok());
  EXPECT_EQ(edge.state(), EndpointState::SentCda);
  EXPECT_EQ(edge_sends, 1);  // no re-answer from the endpoint itself
  EXPECT_EQ(edge.duplicates_ignored(), 1);
  EXPECT_FALSE(edge.failed());
}

TEST(ProtocolTest, DuplicateAfterDoneIsAcknowledgedNotFatal) {
  // A duplicate arriving after the negotiation finished is the one case
  // where "refuse further input" must NOT fire: the peer just repeated
  // itself because our reply was slow. Fresh garbage still errors
  // (DoneEndpointRefusesFurtherInput).
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(52));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, view),
                        edge_strategy, Rng(53));
  std::deque<std::pair<bool, Bytes>> wire;
  Bytes edge_cda;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) {
    edge_cda = m;
    wire.emplace_back(false, m);
  });
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
  ASSERT_TRUE(op.done());
  ASSERT_TRUE(edge.done());
  // The edge's CDA reaches the (done) operator a second time.
  EXPECT_TRUE(op.receive(edge_cda).ok());
  EXPECT_TRUE(op.done());
  EXPECT_EQ(op.duplicates_ignored(), 1);
}

TEST(ProtocolTest, OutOfOrderPocDoesNotAbort) {
  // A PoC surfacing while we sit in SentCdr (reordered transport) is
  // dropped with an error but must not kill the negotiation.
  OptimalStrategy op_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(54));
  op.set_send([](const Bytes&) {});
  op.start();
  PocMessage poc;
  poc.plan = test_plan();
  poc.sender = PartyRole::EdgeVendor;
  poc.seq = 1;
  poc.charged = 950;
  SignedPoc signed_poc;
  signed_poc.body = poc;
  signed_poc.signature =
      crypto::rsa_sign(edge_keys().private_key, encode_poc_body(poc));
  EXPECT_FALSE(op.receive(encode_signed_poc(signed_poc)).ok());
  EXPECT_FALSE(op.failed());
  EXPECT_EQ(op.state(), EndpointState::SentCdr);
}

TEST(ProtocolTest, LenientModeDropsForgedMessageWithoutAborting) {
  // tolerate_faults: a corrupt/forged message is counted and dropped;
  // the negotiation stays alive for a retransmission to save.
  OptimalStrategy op_strategy;
  const UsageView view{1000, 900};
  auto config = make_config(PartyRole::Operator, view);
  config.tolerate_faults = true;
  ProtocolEndpoint op(config, op_strategy, Rng(55));
  op.set_send([](const Bytes&) {});
  op.start();

  Rng rng(56);
  const auto mallory = crypto::rsa_generate(512, rng);
  CdrMessage fake;
  fake.plan = test_plan();
  fake.sender = PartyRole::EdgeVendor;
  fake.seq = 0;
  fake.nonce = 1;
  fake.volume = 1;
  const Bytes forged = encode_signed_cdr(sign_cdr(fake, mallory.private_key));
  EXPECT_FALSE(op.receive(forged).ok());
  EXPECT_FALSE(op.failed());
  EXPECT_EQ(op.tamper_suspected(), 1);
  EXPECT_EQ(op.state(), EndpointState::SentCdr);

  // Garbage is likewise dropped, not fatal.
  EXPECT_FALSE(op.receive(bytes_of("???")).ok());
  EXPECT_FALSE(op.failed());
  EXPECT_EQ(op.tamper_suspected(), 2);
}

TEST(ProtocolTest, LenientModeStillConvergesAfterTamper) {
  // After dropping a corrupted copy, the genuine message still settles
  // the cycle.
  OptimalStrategy op_strategy;
  OptimalStrategy edge_strategy;
  const UsageView view{100000, 90000};
  auto op_config = make_config(PartyRole::Operator, view);
  op_config.tolerate_faults = true;
  auto edge_config = make_config(PartyRole::EdgeVendor, view);
  edge_config.tolerate_faults = true;
  ProtocolEndpoint op(op_config, op_strategy, Rng(57));
  ProtocolEndpoint edge(edge_config, edge_strategy, Rng(58));
  std::deque<std::pair<bool, Bytes>> wire;
  op.set_send([&](const Bytes& m) { wire.emplace_back(true, m); });
  edge.set_send([&](const Bytes& m) { wire.emplace_back(false, m); });
  op.start();
  bool corrupted_once = false;
  int safety = 100;
  while (!wire.empty() && safety-- > 0) {
    auto [to_edge, message] = wire.front();
    wire.pop_front();
    if (to_edge && !corrupted_once) {
      // First deliver a bit-flipped copy, then the genuine bytes.
      corrupted_once = true;
      Bytes bad = message;
      bad[bad.size() / 2] ^= 0x40;
      EXPECT_FALSE(edge.receive(bad).ok());
      EXPECT_FALSE(edge.failed());
    }
    if (to_edge) {
      (void)edge.receive(message);
    } else {
      (void)op.receive(message);
    }
  }
  ASSERT_TRUE(op.done());
  ASSERT_TRUE(edge.done());
  EXPECT_EQ(op.negotiated(), edge.negotiated());
  EXPECT_EQ(edge.tamper_suspected(), 1);
}

TEST(ProtocolTest, FailureReasonRecorded) {
  OptimalStrategy op_strategy;
  const UsageView view{1000, 900};
  ProtocolEndpoint op(make_config(PartyRole::Operator, view), op_strategy,
                      Rng(59));
  op.set_send([](const Bytes&) {});
  op.start();
  EXPECT_TRUE(op.failure_reason().empty());
  EXPECT_FALSE(op.receive(bytes_of("junk")).ok());
  ASSERT_TRUE(op.failed());
  EXPECT_FALSE(op.failure_reason().empty());
}

TEST(ProtocolTest, CryptoTimeScalesWithDeviceProfile) {
  OptimalStrategy s1;
  OptimalStrategy s2;
  const UsageView view{1000, 900};
  auto fast_config = make_config(PartyRole::Operator, view);
  fast_config.crypto_time_scale = 1.0;
  auto slow_config = make_config(PartyRole::Operator, view);
  slow_config.crypto_time_scale = 100.0;
  ProtocolEndpoint fast(fast_config, s1, Rng(20));
  ProtocolEndpoint slow(slow_config, s2, Rng(20));
  fast.set_send([](const Bytes&) {});
  slow.set_send([](const Bytes&) {});
  fast.start();
  slow.start();
  EXPECT_GT(slow.crypto_seconds(), fast.crypto_seconds());
}

}  // namespace
}  // namespace tlc::core
