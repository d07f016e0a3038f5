// The fixed-point stall test: Strategy::stationary() and the endpoint's
// stalled(), which the settlement runner uses to stop a negotiation
// that can only run on to the round cap.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <memory>

#include "core/messages.hpp"
#include "core/tlc_session.hpp"
#include "util/rng.hpp"

namespace tlc::core {
namespace {

RoundContext random_context(Rng& rng) {
  RoundContext ctx;
  ctx.role = rng.chance(0.5) ? PartyRole::EdgeVendor : PartyRole::Operator;
  ctx.view = UsageView{rng.uniform_u64(1'000'000), rng.uniform_u64(1'000'000)};
  const std::uint64_t a = rng.uniform_u64(1'000'000);
  const std::uint64_t b = rng.uniform_u64(1'000'000);
  ctx.lower_bound = rng.chance(0.3) ? 0 : std::min(a, b);
  ctx.upper_bound = rng.chance(0.3) ? kUnbounded : std::max(a, b);
  return ctx;
}

TEST(StationaryStrategyTest, StationaryAnswersIgnoreTheRound) {
  HonestStrategy honest;
  OptimalStrategy optimal;
  RejectAllStrategy reject_all;
  GreedyOverclaimStrategy greedy;
  const std::array<Strategy*, 4> strategies{&honest, &optimal, &reject_all,
                                            &greedy};
  Rng rng(0x57a11);
  for (Strategy* strategy : strategies) {
    ASSERT_TRUE(strategy->stationary()) << strategy->name();
    for (int sample = 0; sample < 100; ++sample) {
      RoundContext ctx = random_context(rng);
      const std::uint64_t own = rng.uniform_u64(1'000'000);
      const std::uint64_t opponent = rng.uniform_u64(1'000'000);
      const std::uint64_t claim = strategy->claim(ctx);
      const bool accepted = strategy->accept(ctx, own, opponent);
      for (ctx.round = 1; ctx.round < 64; ++ctx.round) {
        EXPECT_EQ(strategy->claim(ctx), claim)
            << strategy->name() << " round " << ctx.round;
        EXPECT_EQ(strategy->accept(ctx, own, opponent), accepted)
            << strategy->name() << " round " << ctx.round;
      }
    }
  }
}

TEST(StationaryStrategyTest, RandomSelfishIsNotStationary) {
  EXPECT_FALSE(RandomSelfishStrategy(Rng(1)).stationary());
}

/// A stationary strategy whose claims still move the window every
/// round: each party claims a quarter of the open span in from its own
/// end, so the span halves per round, and it never accepts.
class HalvingStrategy final : public Strategy {
 public:
  std::uint64_t claim(const RoundContext& ctx) override {
    if (ctx.upper_bound == kUnbounded) {
      return ctx.role == PartyRole::EdgeVendor ? ctx.view.received_estimate
                                               : ctx.view.sent_estimate;
    }
    const std::uint64_t quarter = (ctx.upper_bound - ctx.lower_bound) / 4;
    return ctx.role == PartyRole::EdgeVendor ? ctx.lower_bound + quarter
                                             : ctx.upper_bound - quarter;
  }
  bool accept(const RoundContext&, std::uint64_t, std::uint64_t) override {
    return false;
  }
  std::string name() const override { return "halving"; }
  bool stationary() const override { return true; }
};

const crypto::RsaKeyPair& keys(PartyRole role) {
  static const crypto::RsaKeyPair edge = [] {
    Rng rng(71);
    return crypto::rsa_generate(512, rng);
  }();
  static const crypto::RsaKeyPair op = [] {
    Rng rng(72);
    return crypto::rsa_generate(512, rng);
  }();
  return role == PartyRole::EdgeVendor ? edge : op;
}

/// An edge and an operator session pumped by hand over one FIFO.
class SessionPair {
 public:
  SessionPair(std::unique_ptr<Strategy> edge_strategy,
              std::unique_ptr<Strategy> op_strategy, int max_rounds = 64) {
    SessionConfig config;
    config.max_rounds = max_rounds;
    config.role = PartyRole::EdgeVendor;
    config.own_keys = keys(PartyRole::EdgeVendor);
    config.peer_key = keys(PartyRole::Operator).public_key;
    edge_ = std::make_unique<TlcSession>(config, std::move(edge_strategy),
                                         Rng(3));
    config.role = PartyRole::Operator;
    config.own_keys = keys(PartyRole::Operator);
    config.peer_key = keys(PartyRole::EdgeVendor).public_key;
    op_ = std::make_unique<TlcSession>(config, std::move(op_strategy),
                                       Rng(4));
    edge_->set_send([this](const Bytes& m) { wire_.emplace_back(false, m); });
    op_->set_send([this](const Bytes& m) {
      if (peek_type(m).value() == MessageType::Cdr) ++op_cdrs_;
      wire_.emplace_back(true, m);
    });
  }

  /// Arms the cycle and lets the operator open it.
  void begin(const UsageView& edge_view, const UsageView& op_view) {
    ASSERT_TRUE(edge_->begin_cycle(edge_view).ok());
    ASSERT_TRUE(op_->begin_cycle(op_view).ok());
    ASSERT_TRUE(op_->start().ok());
  }

  /// Delivers queued messages until `stop` holds after a delivery or
  /// nothing is left; returns whether `stop` ended it.
  bool pump_until(const std::function<bool()>& stop) {
    while (!wire_.empty()) {
      auto [to_edge, message] = std::move(wire_.front());
      wire_.pop_front();
      (void)(to_edge ? edge_->receive(message) : op_->receive(message));
      if (stop()) return true;
    }
    return false;
  }

  [[nodiscard]] bool both_stalled() const {
    return edge_->stalled() && op_->stalled();
  }
  [[nodiscard]] bool either_stalled() const {
    return edge_->stalled() || op_->stalled();
  }
  [[nodiscard]] const TlcSession& edge() const { return *edge_; }
  [[nodiscard]] const TlcSession& op() const { return *op_; }
  [[nodiscard]] int op_cdrs() const { return op_cdrs_; }

 private:
  std::unique_ptr<TlcSession> edge_;
  std::unique_ptr<TlcSession> op_;
  std::deque<std::pair<bool, Bytes>> wire_;
  int op_cdrs_ = 0;
};

/// Optimal pairs whose views fail the 8% cross-check, as (edge view,
/// operator view): the operator rejects every edge claim (the edge
/// keeps answering with a CDA), or the edge rejects every operator
/// claim (it answers with its own CDR).
struct CrossCheckFailure {
  const char* name;
  UsageView edge_view;
  UsageView op_view;
};
constexpr CrossCheckFailure kCrossCheckFailures[] = {
    {"operator rejects", UsageView{1000, 800}, UsageView{1000, 1000}},
    {"edge rejects", UsageView{1000, 1000}, UsageView{1200, 1000}},
};

TEST(StallTest, OptimalPairFailingTheCrossCheckStallsWithinThreeRounds) {
  for (const CrossCheckFailure& failure : kCrossCheckFailures) {
    SCOPED_TRACE(failure.name);
    SessionPair pair(std::make_unique<OptimalStrategy>(),
                     std::make_unique<OptimalStrategy>());
    pair.begin(failure.edge_view, failure.op_view);
    ASSERT_TRUE(pair.pump_until([&] { return pair.both_stalled(); }));
    EXPECT_LE(pair.op_cdrs(), 3);
    EXPECT_TRUE(pair.edge().negotiating());

    // The fixed point holds: both stay stalled, and the run ends at the
    // round cap without a PoC.
    EXPECT_FALSE(pair.pump_until([&] { return !pair.both_stalled(); }));
    EXPECT_TRUE(pair.op().cycle_failed());
    EXPECT_EQ(pair.op().failure_reason(), "round cap reached");
    EXPECT_FALSE(pair.edge().cycle_complete());
  }
}

TEST(StallTest, ContractingWindowNeverStalls) {
  // The span halves from 2^40 each round; 24 rounds end at the cap
  // while it is still moving.
  SessionPair pair(std::make_unique<HalvingStrategy>(),
                   std::make_unique<HalvingStrategy>(), 24);
  pair.begin(UsageView{0, 0}, UsageView{std::uint64_t{1} << 40, 0});
  EXPECT_FALSE(pair.pump_until([&] { return pair.either_stalled(); }));
  EXPECT_TRUE(pair.op().cycle_failed());
  EXPECT_EQ(pair.op_cdrs(), 24);
}

TEST(StallTest, RandomSelfishPairNeverStalls) {
  // Each view pins its party's plausible window to one value, so both
  // repeat the same claims every round; the claims sit 50% apart, which
  // the widening tolerance never reaches within the cap. The rounds
  // repeat, but the tolerance moves, so neither party is stalled.
  SessionPair pair(std::make_unique<RandomSelfishStrategy>(Rng(5)),
                   std::make_unique<RandomSelfishStrategy>(Rng(6)));
  pair.begin(UsageView{1000, 1000}, UsageView{500, 500});
  EXPECT_FALSE(pair.pump_until([&] { return pair.either_stalled(); }));
  EXPECT_TRUE(pair.op().cycle_failed());
  EXPECT_EQ(pair.op().failure_reason(), "round cap reached");
}

TEST(StallTest, BothStalledOnlyWhenTheCappedRunFails) {
  // Over seeded views and every pair of stationary strategies, a
  // negotiation in which both parties ever report stalled() ends at
  // the round cap, and stays stalled from then on.
  const std::array<std::function<std::unique_ptr<Strategy>()>, 4> makers{
      [] { return std::make_unique<HonestStrategy>(); },
      [] { return std::make_unique<OptimalStrategy>(); },
      [] { return std::make_unique<RejectAllStrategy>(); },
      [] { return std::make_unique<GreedyOverclaimStrategy>(); }};
  Rng rng(0xf1ed);
  int stalled_runs = 0;
  for (const auto& make_edge : makers) {
    for (const auto& make_op : makers) {
      for (int sample = 0; sample < 6; ++sample) {
        const std::uint64_t truth = 1000 + rng.uniform_u64(100'000);
        const auto near = [&] {
          return truth + truth * rng.uniform_u64(300) / 1000 -
                 truth * 15 / 100;
        };
        SessionPair pair(make_edge(), make_op(), 16);
        pair.begin(UsageView{near(), near()}, UsageView{near(), near()});
        if (!pair.pump_until([&] { return pair.both_stalled(); })) continue;
        ++stalled_runs;
        EXPECT_FALSE(pair.pump_until([&] { return !pair.both_stalled(); }));
        EXPECT_FALSE(pair.op().cycle_complete());
        EXPECT_FALSE(pair.edge().cycle_complete());
      }
    }
  }
  EXPECT_GT(stalled_runs, 0);
}

}  // namespace
}  // namespace tlc::core
