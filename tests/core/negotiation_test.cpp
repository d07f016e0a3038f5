// Algorithm 1 properties — Theorems 2, 3 and 4 of the paper, checked as
// executable properties over randomized ground truths.
#include "core/negotiation.hpp"

#include <gtest/gtest.h>

#include "charging/plan.hpp"
#include "util/rng.hpp"

namespace tlc::core {
namespace {

struct GroundTruth {
  std::uint64_t sent;      // x̂e
  std::uint64_t received;  // x̂o
};

GroundTruth random_truth(Rng& rng) {
  const std::uint64_t received = rng.uniform_u64(1u << 30) + 1000;
  const std::uint64_t sent = received + rng.uniform_u64(received / 4);
  return {sent, received};
}

/// Both parties measure exactly (no monitor error): isolates the game
/// theory from the measurement layer.
UsageView exact_view(const GroundTruth& truth) {
  return UsageView{truth.sent, truth.received};
}

class NegotiationPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(NegotiationPropertyTest, Theorem3OptimalConvergesToExpected) {
  const auto [c, seed] = GetParam();
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    const GroundTruth truth = random_truth(rng);
    OptimalStrategy edge;
    OptimalStrategy op;
    const auto result = negotiate(edge, exact_view(truth), op,
                                  exact_view(truth), {c, 64});
    ASSERT_TRUE(result.completed);
    // x = x̂ = x̂o + c (x̂e − x̂o) exactly (both parties measured exactly).
    EXPECT_EQ(result.charged,
              charging::expected_charge(truth.sent, truth.received, c));
  }
}

TEST_P(NegotiationPropertyTest, Theorem4OptimalStopsInOneRound) {
  const auto [c, seed] = GetParam();
  Rng rng(seed ^ 0xffff);
  for (int i = 0; i < 50; ++i) {
    const GroundTruth truth = random_truth(rng);
    OptimalStrategy edge;
    OptimalStrategy op;
    const auto result = negotiate(edge, exact_view(truth), op,
                                  exact_view(truth), {c, 64});
    EXPECT_EQ(result.rounds, 1);
  }
}

TEST_P(NegotiationPropertyTest, Theorem4HonestStopsInOneRound) {
  const auto [c, seed] = GetParam();
  Rng rng(seed ^ 0xaaaa);
  for (int i = 0; i < 50; ++i) {
    const GroundTruth truth = random_truth(rng);
    HonestStrategy edge;
    HonestStrategy op;
    const auto result = negotiate(edge, exact_view(truth), op,
                                  exact_view(truth), {c, 64});
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.rounds, 1);
    // Honest claims are (x̂e, x̂o), so the settled charge is x̂ too.
    EXPECT_EQ(result.charged,
              charging::expected_charge(truth.sent, truth.received, c));
  }
}

TEST_P(NegotiationPropertyTest, Theorem2BoundsHoldForAllStrategyMixes) {
  const auto [c, seed] = GetParam();
  Rng rng(seed ^ 0x5555);
  for (int i = 0; i < 30; ++i) {
    const GroundTruth truth = random_truth(rng);
    // Any mix of honest / optimal / random-selfish parties.
    for (int mix = 0; mix < 9; ++mix) {
      auto make = [&](int kind) -> std::unique_ptr<Strategy> {
        switch (kind) {
          case 0:
            return std::make_unique<HonestStrategy>();
          case 1:
            return std::make_unique<OptimalStrategy>();
          default:
            return std::make_unique<RandomSelfishStrategy>(rng.fork());
        }
      };
      auto edge = make(mix % 3);
      auto op = make(mix / 3);
      const auto result = negotiate(*edge, exact_view(truth), *op,
                                    exact_view(truth), {c, 64});
      ASSERT_TRUE(result.completed)
          << "mix=" << mix << " edge=" << edge->name()
          << " op=" << op->name();
      // Theorem 2: x̂o <= x <= x̂e.
      EXPECT_GE(result.charged, truth.received) << "mix=" << mix;
      EXPECT_LE(result.charged, truth.sent) << "mix=" << mix;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightsAndSeeds, NegotiationPropertyTest,
    ::testing::Combine(::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(17u, 42u)));

TEST(NegotiationTest, RandomSelfishCompressesGap) {
  // "More selfish charging, less gap" (§4): selfish claims inside
  // [x̂o, x̂e] always land closer to x̂ than the worst-case loss.
  Rng rng(7);
  RandomSelfishStrategy edge(rng.fork());
  RandomSelfishStrategy op(rng.fork());
  const GroundTruth truth{100000, 80000};
  const auto result =
      negotiate(edge, exact_view(truth), op, exact_view(truth), {0.5, 64});
  ASSERT_TRUE(result.completed);
  EXPECT_LE(result.final_edge_claim > result.final_operator_claim
                ? result.final_edge_claim - result.final_operator_claim
                : result.final_operator_claim - result.final_edge_claim,
            truth.sent - truth.received);
}

TEST(NegotiationTest, RejectAllFailsAtRoundCap) {
  RejectAllStrategy edge;
  OptimalStrategy op;
  const GroundTruth truth{100000, 80000};
  const auto result =
      negotiate(edge, exact_view(truth), op, exact_view(truth), {0.5, 16});
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 16);
  EXPECT_EQ(result.charged, 0u);
}

TEST(NegotiationTest, GreedyOverclaimDetectedAndRejected) {
  // A greedy operator claiming 1.5x x̂e fails the edge's cross-check
  // every round: the negotiation never settles at the inflated value.
  Rng rng(8);
  RandomSelfishStrategy edge(rng.fork());
  GreedyOverclaimStrategy op(1.5);
  const GroundTruth truth{100000, 80000};
  const auto result =
      negotiate(edge, exact_view(truth), op, exact_view(truth), {0.5, 16});
  if (result.completed) {
    // If it settled at all, the bound still holds (Theorem 2).
    EXPECT_LE(result.charged, truth.sent);
  } else {
    EXPECT_EQ(result.rounds, 16);
  }
}

namespace {

/// Misbehaving claimer that escalates beyond the contracted window —
/// the line-12 violation the engine must flag.
class EscalatingClaimer final : public Strategy {
 public:
  std::uint64_t claim(const RoundContext& ctx) override {
    // First round: a plausible claim; afterwards: above the window.
    if (ctx.round == 0) return ctx.view.sent_estimate;
    return ctx.upper_bound == kUnbounded ? ctx.view.sent_estimate * 2
                                         : ctx.upper_bound + 1000;
  }
  bool accept(const RoundContext&, std::uint64_t, std::uint64_t) override {
    return false;
  }
  std::string name() const override { return "escalating"; }
};

}  // namespace

TEST(NegotiationTest, WindowViolationIsFlagged) {
  EscalatingClaimer op;
  RejectAllStrategy edge;  // forces multiple rounds
  const GroundTruth truth{100000, 80000};
  const auto result =
      negotiate(edge, exact_view(truth), op, exact_view(truth), {0.5, 8});
  EXPECT_FALSE(result.completed);
  EXPECT_GT(result.bound_violations, 0);
}

TEST(NegotiationTest, BoundViolationCannotWidenWindow) {
  // After round 1 the window is fixed by compliant claims; a violating
  // claim in a later round must not expand it.
  Rng rng(9);
  RandomSelfishStrategy edge(rng.fork());
  GreedyOverclaimStrategy op(3.0);
  const GroundTruth truth{100000, 80000};
  const auto result =
      negotiate(edge, exact_view(truth), op, exact_view(truth), {0.5, 8});
  for (const RoundRecord& round : result.history) {
    // The edge's compliant claims never exceed its sent volume.
    EXPECT_LE(round.edge_claim, truth.sent);
  }
}

TEST(NegotiationTest, HistoryRecordsEveryRound) {
  RejectAllStrategy edge;
  RejectAllStrategy op;
  const GroundTruth truth{1000, 900};
  const auto result =
      negotiate(edge, exact_view(truth), op, exact_view(truth), {0.5, 5});
  EXPECT_EQ(result.history.size(), 5u);
  for (const RoundRecord& round : result.history) {
    EXPECT_FALSE(round.edge_accepted);
    EXPECT_FALSE(round.operator_accepted);
  }
}

TEST(NegotiationTest, ZeroTrafficCycleSettlesAtZero) {
  OptimalStrategy edge;
  OptimalStrategy op;
  const auto result =
      negotiate(edge, UsageView{0, 0}, op, UsageView{0, 0}, {0.5, 64});
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.charged, 0u);
}

TEST(NegotiationTest, MeasurementDisagreementStillBounded) {
  // Views differ by a few percent (monitor error): the charge lands
  // within the union of both parties' windows.
  Rng rng(10);
  OptimalStrategy edge;
  OptimalStrategy op;
  const UsageView edge_view{100000, 80000};
  const UsageView op_view{103000, 82000};
  const auto result = negotiate(edge, edge_view, op, op_view, {0.5, 64});
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.charged, 80000u);
  EXPECT_LE(result.charged, 103000u);
}

}  // namespace
}  // namespace tlc::core
