// Negotiation strategies (§5.1, §5.2 and the §7.1 comparison set).
//
// A strategy answers two questions each round of Algorithm 1: what do I
// claim, and do I accept the opponent's claim? The engine supplies the
// current bounds (xL, xU) and the party's own measurements.
//
// Provided strategies:
//  * Honest        — claims its truthful measurement (xe = x̂e or
//                    xo = x̂o); accepts anything that passes the
//                    cross-check.
//  * Optimal       — the minimax/maximin strategy of Theorems 3-4: the
//                    edge claims its estimate of x̂o, the operator its
//                    estimate of x̂e; converges in one round against a
//                    rational or honest opponent ("TLC-optimal").
//  * RandomSelfish — selfish but unaware of the optimal strategy
//                    ("TLC-random"): draws uniformly inside the
//                    plausible window each round, accepting once the
//                    claims are close.
//  * RejectAll     — misbehaving: never accepts (negotiation fails at
//                    the round cap; §5.1 discusses why this only hurts
//                    the misbehaving party).
//  * GreedyOverclaim — a selfish operator that ignores the plausibility
//                    cross-check and claims beyond x̂e; detected and
//                    rejected by the edge every round.
#pragma once

#include <memory>
#include <string>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace tlc::core {

/// Per-round inputs supplied by the negotiation engine.
struct RoundContext {
  PartyRole role = PartyRole::Operator;
  UsageView view;
  std::uint64_t lower_bound = 0;          // xL
  std::uint64_t upper_bound = kUnbounded; // xU
  int round = 0;                          // 0-based
  double c = 0.5;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// The claim to report this round (line 4 of Algorithm 1).
  [[nodiscard]] virtual std::uint64_t claim(const RoundContext& ctx) = 0;

  /// Whether to accept given both claims (line 6 of Algorithm 1).
  [[nodiscard]] virtual bool accept(const RoundContext& ctx,
                                    std::uint64_t own_claim,
                                    std::uint64_t opponent_claim) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True when claim() and accept() ignore ctx.round and draw no
  /// randomness: the same window, view and claims always get the same
  /// answers. A negotiation between two stationary parties that repeats
  /// a rejected round repeats it up to the round cap (negotiation.hpp).
  [[nodiscard]] virtual bool stationary() const { return false; }
};

/// Cross-check tolerance: measurements of the same quantity by the two
/// parties differ by a few percent (Fig 18), so plausibility checks
/// must leave that much slack or honest parties would deadlock.
inline constexpr double kCrossCheckTolerance = 0.08;

class HonestStrategy final : public Strategy {
 public:
  [[nodiscard]] std::uint64_t claim(const RoundContext& ctx) override;
  [[nodiscard]] bool accept(const RoundContext& ctx, std::uint64_t own_claim,
                            std::uint64_t opponent_claim) override;
  [[nodiscard]] std::string name() const override { return "honest"; }
  [[nodiscard]] bool stationary() const override { return true; }
};

class OptimalStrategy final : public Strategy {
 public:
  [[nodiscard]] std::uint64_t claim(const RoundContext& ctx) override;
  [[nodiscard]] bool accept(const RoundContext& ctx, std::uint64_t own_claim,
                            std::uint64_t opponent_claim) override;
  [[nodiscard]] std::string name() const override { return "tlc-optimal"; }
  [[nodiscard]] bool stationary() const override { return true; }
};

class RandomSelfishStrategy final : public Strategy {
 public:
  /// `accept_tolerance` — relative claim distance below which the party
  /// settles (drives the Fig 16b round counts).
  explicit RandomSelfishStrategy(Rng rng, double accept_tolerance = 0.005);

  [[nodiscard]] std::uint64_t claim(const RoundContext& ctx) override;
  [[nodiscard]] bool accept(const RoundContext& ctx, std::uint64_t own_claim,
                            std::uint64_t opponent_claim) override;
  [[nodiscard]] std::string name() const override { return "tlc-random"; }

 private:
  Rng rng_;
  double accept_tolerance_;
};

class RejectAllStrategy final : public Strategy {
 public:
  [[nodiscard]] std::uint64_t claim(const RoundContext& ctx) override;
  [[nodiscard]] bool accept(const RoundContext& ctx, std::uint64_t own_claim,
                            std::uint64_t opponent_claim) override;
  [[nodiscard]] std::string name() const override { return "reject-all"; }
  [[nodiscard]] bool stationary() const override { return true; }
};

class GreedyOverclaimStrategy final : public Strategy {
 public:
  /// Claims `factor` times its estimate of x̂e (factor > 1 exceeds any
  /// defensible volume).
  explicit GreedyOverclaimStrategy(double factor = 1.5) : factor_(factor) {}

  [[nodiscard]] std::uint64_t claim(const RoundContext& ctx) override;
  [[nodiscard]] bool accept(const RoundContext& ctx, std::uint64_t own_claim,
                            std::uint64_t opponent_claim) override;
  [[nodiscard]] std::string name() const override { return "greedy-overclaim"; }
  [[nodiscard]] bool stationary() const override { return true; }

 private:
  double factor_;
};

/// Clamps a desired claim into the open negotiation window; the engine
/// treats out-of-window claims as protocol violations (Algorithm 1
/// line 12 constraint), so compliant strategies clamp.
[[nodiscard]] std::uint64_t clamp_claim(std::uint64_t desired,
                                        const RoundContext& ctx);

}  // namespace tlc::core
