// Referee goldens for both realisations of Algorithm 1.
//
// ProtocolEndpoint: every wire an exchange puts on the link, in send
// order, plus each endpoint's final rounds, bound_violations,
// negotiated charge, tamper count and failure reason, hashed with
// SHA-256. The PoCs these exchanges build are what an auditor checks,
// so a refactor of the endpoint must reproduce every byte.
//
// core::negotiate: the full round history and result of the strategy
// mixes the fleet's gap CDFs draw on, hashed the same way.
#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "core/negotiation.hpp"
#include "core/protocol.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

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

EndpointConfig make_config(PartyRole role, UsageView view, int max_rounds,
                           bool tolerate_faults = false) {
  EndpointConfig config;
  config.role = role;
  const crypto::RsaKeyPair& own =
      role == PartyRole::Operator ? operator_keys() : edge_keys();
  const crypto::RsaKeyPair& peer =
      role == PartyRole::Operator ? edge_keys() : operator_keys();
  config.own_private = own.private_key;
  config.own_public = own.public_key;
  config.peer_public = peer.public_key;
  config.plan = PlanRef{0, kHour, 0.5};
  config.view = view;
  config.max_rounds = max_rounds;
  config.tolerate_faults = tolerate_faults;
  return config;
}

/// Misbehaving claimer: a plausible round-0 claim, then one above the
/// contracted window every later round (the Line-12 violation).
/// `accepts_late` makes it accept from round 1 on, so its escalated
/// claim reaches the peer inside a CDA rather than a CDR.
class EscalatingClaimer final : public Strategy {
 public:
  explicit EscalatingClaimer(bool accepts_late) : accepts_late_(accepts_late) {}
  std::uint64_t claim(const RoundContext& ctx) override {
    if (ctx.round == 0) return ctx.view.sent_estimate;
    return ctx.upper_bound == kUnbounded ? ctx.view.sent_estimate * 2
                                         : ctx.upper_bound + 1000;
  }
  bool accept(const RoundContext& ctx, std::uint64_t, std::uint64_t) override {
    return accepts_late_ && ctx.round > 0;
  }
  std::string name() const override { return "escalating"; }

 private:
  bool accepts_late_;
};

enum class Opener { Operator, Edge, Both };

/// Fault applied to the n-th wire taken off the link (0-based).
struct Faults {
  int duplicate_index = -1;  // delivered twice
  int corrupt_index = -1;    // a damaged copy first, then the original
};

struct Exchange {
  explicit Exchange(UsageView v) : view(v) {}
  UsageView view;
  int max_rounds = 64;
  bool tolerate_faults = false;
  Opener opener = Opener::Operator;
  Faults faults;
};

struct Transcript {
  std::string digest;
  int op_rounds = 0;
  int edge_rounds = 0;
  int violations = 0;
  int tampered = 0;
  bool settled = false;
};

void append_endpoint(ByteWriter& w, const ProtocolEndpoint& e) {
  w.i64(e.rounds());
  w.i64(e.bound_violations());
  w.u64(e.negotiated());
  w.i64(e.tamper_suspected());
  w.str(e.failure_reason());
}

Transcript run_exchange(Strategy& op_strategy, Strategy& edge_strategy,
                        const Exchange& ex) {
  ProtocolEndpoint op(make_config(PartyRole::Operator, ex.view, ex.max_rounds,
                                  ex.tolerate_faults),
                      op_strategy, Rng(101));
  ProtocolEndpoint edge(make_config(PartyRole::EdgeVendor, ex.view,
                                    ex.max_rounds, ex.tolerate_faults),
                        edge_strategy, Rng(202));
  ByteWriter w;
  std::deque<std::pair<bool, Bytes>> link;  // (to_edge?, wire)
  op.set_send([&](const Bytes& m) {
    w.u8(0);
    w.blob(m);
    link.emplace_back(true, m);
  });
  edge.set_send([&](const Bytes& m) {
    w.u8(1);
    w.blob(m);
    link.emplace_back(false, m);
  });
  if (ex.opener != Opener::Edge) op.start();
  if (ex.opener != Opener::Operator) edge.start();

  int taken = 0;
  int safety = 4000;
  while (!link.empty() && safety-- > 0) {
    auto [to_edge, message] = link.front();
    link.pop_front();
    ProtocolEndpoint& receiver = to_edge ? edge : op;
    if (taken == ex.faults.corrupt_index) {
      Bytes damaged = message;
      damaged[damaged.size() / 2] ^= 0x5a;
      (void)receiver.receive(damaged);
    }
    (void)receiver.receive(message);
    if (taken == ex.faults.duplicate_index) (void)receiver.receive(message);
    ++taken;
  }
  append_endpoint(w, op);
  append_endpoint(w, edge);

  Transcript t;
  t.digest = to_hex(crypto::sha256(w.data()));
  t.op_rounds = op.rounds();
  t.edge_rounds = edge.rounds();
  t.violations = op.bound_violations() + edge.bound_violations();
  t.tampered = op.tamper_suspected() + edge.tamper_suspected();
  t.settled = op.done() && edge.done();
  return t;
}

TEST(EndpointTranscriptGoldenTest, OptimalOperatorInitiates) {
  OptimalStrategy op;
  OptimalStrategy edge;
  const Transcript t = run_exchange(op, edge, Exchange({100000, 90000}));
  EXPECT_TRUE(t.settled);
  EXPECT_EQ(t.op_rounds, 1);
  EXPECT_EQ(t.digest,
            "fa7922bc182a87eb22e18e97b23d7ea3adff14d90a887cca0bc8c20d021dcf67");
}

TEST(EndpointTranscriptGoldenTest, OptimalEdgeInitiates) {
  OptimalStrategy op;
  OptimalStrategy edge;
  Exchange ex({50000, 48000});
  ex.opener = Opener::Edge;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_TRUE(t.settled);
  EXPECT_EQ(t.edge_rounds, 1);
  EXPECT_EQ(t.digest,
            "b3abac906ddf1503298ffb17192268f629518f7a6fc8d560847e7e948bdef2cc");
}

TEST(EndpointTranscriptGoldenTest, RandomSelfishMultiRound) {
  Rng rng(5);
  RandomSelfishStrategy op(rng.fork());
  RandomSelfishStrategy edge(rng.fork());
  const Transcript t = run_exchange(op, edge, Exchange({200000, 150000}));
  EXPECT_TRUE(t.settled);
  EXPECT_GT(t.op_rounds, 1);
  EXPECT_EQ(t.digest,
            "9bf8c02ffd9e753d7d81eaffee1e65eef976d1b3317ce6fe847bfeb82ed988de");
}

TEST(EndpointTranscriptGoldenTest, RandomSelfishSimultaneousInitiation) {
  // The crossed round-0 CDRs leave the two parties with different
  // windows, so this exchange trips all three Line-12 violation
  // branches: counter-CDR, fresh-round CDR and CDA.
  Rng rng(32);
  RandomSelfishStrategy op(rng.fork());
  RandomSelfishStrategy edge(rng.fork());
  Exchange ex({500000, 420000});
  ex.opener = Opener::Both;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_TRUE(t.settled);
  EXPECT_GT(t.violations, 0);
  EXPECT_EQ(t.digest,
            "58f928117fc5d3fd5b8777c93dda50dd7a1faf77d414ba96d87759cb0d0dd22c");
}

// A greedy claim is constant, so it sits on the edge of the window it
// helped contract: the cross-check rejects it every round until the cap.
TEST(EndpointTranscriptGoldenTest, GreedyOverclaimingOperator) {
  Rng rng(8);
  GreedyOverclaimStrategy op(1.5);
  RandomSelfishStrategy edge(rng.fork());
  Exchange ex({100000, 80000});
  ex.max_rounds = 16;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_FALSE(t.settled);
  EXPECT_EQ(t.digest,
            "79ab62227355a5f73957994ecd575cc40febbc487b357d765eac5fca1c094c6e");
}

TEST(EndpointTranscriptGoldenTest, GreedyOverclaimingEdgeSimultaneous) {
  Rng rng(9);
  RandomSelfishStrategy op(rng.fork());
  GreedyOverclaimStrategy edge(1.05);
  Exchange ex({100000, 80000});
  ex.max_rounds = 16;
  ex.opener = Opener::Both;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_EQ(t.digest,
            "88975f6b603799617a17df9cd36cab3e66b7432d999d5362bcacd0306375abdb");
}

TEST(EndpointTranscriptGoldenTest, EscalatingCounterCdrViolates) {
  // The edge opens every round; the operator's counter-CDR arrives in
  // the edge's own round with a claim above the window.
  EscalatingClaimer op(/*accepts_late=*/false);
  RejectAllStrategy edge;
  Exchange ex({100000, 80000});
  ex.max_rounds = 8;
  ex.opener = Opener::Edge;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_FALSE(t.settled);
  EXPECT_GT(t.violations, 0);
  EXPECT_EQ(t.digest,
            "64b1b883be7271439c5b1562c3cf16d1946c55649c6b41483351121d8b4da69e");
}

TEST(EndpointTranscriptGoldenTest, EscalatingFreshRoundAndCdaViolate) {
  // The operator opens; its escalated claims reach the edge first in a
  // fresh-round CDR, then inside CDAs once it starts accepting.
  EscalatingClaimer op(/*accepts_late=*/true);
  RejectAllStrategy edge;
  Exchange ex({100000, 80000});
  ex.max_rounds = 8;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_FALSE(t.settled);
  EXPECT_GT(t.violations, 0);
  EXPECT_EQ(t.digest,
            "353a5cbf9bf6da9f61ec80421d52dfd8bc74c23a71dde72078916962cdcea174");
}

TEST(EndpointTranscriptGoldenTest, RejectAllHitsRoundCap) {
  RejectAllStrategy op;
  OptimalStrategy edge;
  const Transcript t = run_exchange(op, edge, Exchange({100000, 90000}));
  EXPECT_FALSE(t.settled);
  EXPECT_EQ(t.digest,
            "05f136abbaae020c30a23d1b911b257277ffc24c4e0d6995cb96079ef254b104");
}

TEST(EndpointTranscriptGoldenTest, TolerantEndpointsSurviveDuplicateAndDamage) {
  Rng rng(12);
  RandomSelfishStrategy op(rng.fork());
  RandomSelfishStrategy edge(rng.fork());
  Exchange ex({300000, 240000});
  ex.tolerate_faults = true;
  ex.faults.duplicate_index = 1;
  ex.faults.corrupt_index = 2;
  const Transcript t = run_exchange(op, edge, ex);
  EXPECT_TRUE(t.settled);
  EXPECT_EQ(t.tampered, 1);
  EXPECT_EQ(t.digest,
            "6be41f6db6da7decc0f331c511408ce806ffbb45e0de1e9d288ab01f6fff29b1");
}

// --- core::negotiate ---------------------------------------------------

NegotiationConfig capped(int max_rounds) {
  NegotiationConfig config;
  config.c = 0.5;
  config.max_rounds = max_rounds;
  return config;
}

std::string history_digest(const NegotiationResult& r) {
  ByteWriter w;
  w.u8(r.completed ? 1 : 0);
  w.u64(r.charged);
  w.i64(r.rounds);
  w.i64(r.bound_violations);
  w.u64(r.final_edge_claim);
  w.u64(r.final_operator_claim);
  for (const RoundRecord& round : r.history) {
    w.u64(round.edge_claim);
    w.u64(round.operator_claim);
    w.u8(round.edge_accepted ? 1 : 0);
    w.u8(round.operator_accepted ? 1 : 0);
  }
  return to_hex(crypto::sha256(w.data()));
}

TEST(NegotiateHistoryGoldenTest, OptimalPair) {
  OptimalStrategy edge;
  OptimalStrategy op;
  const auto r = negotiate(edge, {100000, 90000}, op, {103000, 92000},
                           capped(64));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(history_digest(r),
            "5d3cc843e178a0d91a73479473161d54bf0bc6aa56ec08235f5a433098cd03ac");
}

TEST(NegotiateHistoryGoldenTest, RandomSelfishPair) {
  Rng rng(5);
  RandomSelfishStrategy edge(rng.fork());
  RandomSelfishStrategy op(rng.fork());
  const auto r = negotiate(edge, {200000, 150000}, op, {200000, 150000},
                           capped(64));
  EXPECT_GT(r.rounds, 1);
  EXPECT_EQ(history_digest(r),
            "8b01c14aadb76319c50fcbeb9cfef6b921cffc7e383020d05a40c2bbe64f76da");
}

TEST(NegotiateHistoryGoldenTest, GreedyOverclaimingOperator) {
  Rng rng(8);
  RandomSelfishStrategy edge(rng.fork());
  GreedyOverclaimStrategy op(1.5);
  const auto r = negotiate(edge, {100000, 80000}, op, {100000, 80000},
                           capped(16));
  EXPECT_EQ(history_digest(r),
            "2fcf4f108842b4d79bd3943611e6b22ad7ac2b7ee4c09742840637e3b1bd7e61");
}

TEST(NegotiateHistoryGoldenTest, EscalatingClaimerViolates) {
  RejectAllStrategy edge;
  EscalatingClaimer op(/*accepts_late=*/false);
  const auto r = negotiate(edge, {100000, 80000}, op, {100000, 80000},
                           capped(8));
  EXPECT_GT(r.bound_violations, 0);
  EXPECT_EQ(history_digest(r),
            "6809c51c1f1f09f348b38f88549ae1e4a6775e6dbed07ef8960faaa822611ee1");
}

TEST(NegotiateHistoryGoldenTest, RejectAllHitsRoundCap) {
  RejectAllStrategy edge;
  OptimalStrategy op;
  const auto r = negotiate(edge, {100000, 90000}, op, {100000, 90000},
                           capped(64));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 64);
  EXPECT_EQ(history_digest(r),
            "b515b103b55be40ea0d324111b842745c5efbe81107e26024aea5cd770f0cbdd");
}

TEST(NegotiateHistoryGoldenTest, RejectAllPairSettlesOnPinnedWindow) {
  // Both claim 1000 and refuse; the window pins to [1000, 1000] after
  // round 0 and the engine settles there, counting the settle as a
  // round of its own.
  RejectAllStrategy edge;
  RejectAllStrategy op;
  const auto r = negotiate(edge, {1000, 1000}, op, {1000, 1000}, capped(64));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.charged, 1000u);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.history.size(), 1u);
  EXPECT_EQ(history_digest(r),
            "0b6899b3d97650b80f867aa5f2313c6c5dfd93c9dd043169f198b40b3d5f7376");
}

}  // namespace
}  // namespace tlc::core
