// Algorithm 1: loss-selfishness cancellation.
//
// Both parties exchange claims, decide accept/reject, and on mutual
// accept the charge is x = charged_volume(xe, xo, c) (line 8). On
// reject, the claim window (xL, xU) contracts to [min, max] of the
// round's claims (line 12), and a claim outside the window is a
// detectable violation.
//
// ClaimWindow is the one copy of that window: the Line-12 constraint,
// the contraction and the RoundContext a strategy sees. Two callers run
// rounds over it, and their round shapes differ on purpose:
//
//  * negotiate() below is the abstract game of §5.1 (it drives the
//    fleet's TLC-optimal and TLC-random gap CDFs). Both claims arrive
//    at once and share one window. It contracts from compliant claims
//    only, so a violator cannot move the window, and it settles as soon
//    as a violation-free round pins the window (xL == xU), counting
//    that settle as one more round.
//  * ProtocolEndpoint (protocol.hpp) is the Fig 7 message realisation:
//    signed CDR/CDA/PoC over a link. Each party keeps its own window
//    and contracts it from the claim pairs it has seen; a peer's
//    violating claim leaves that window unchanged. It settles only
//    through a CDA, never on a pinned window.
//
// Merging the two shapes would change negotiate()'s RandomSelfish
// outcomes, which feed the fleet's gap-CDF digest.
//
// A negotiation that cannot settle ends at the round cap, with one
// shortcut. When both strategies are stationary (strategy.hpp) and a
// rejected round repeats the previous one — same claims, window left
// unchanged — every later round repeats it too (Theorems 3-4: neither
// party gains by moving its claim). Each endpoint reports that as
// stalled(), and the settlement runner (transport/settlement_runner.hpp)
// that carries every settlement cycle fails the cycle as soon as both
// do, exactly as the capped run would. Skipping rounds needs no RNG
// fast-forward: each cycle's endpoint gets rng_.fork() of its session
// stream, so nonces a cycle did not draw never reach a later cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "charging/plan.hpp"
#include "core/strategy.hpp"
#include "core/types.hpp"

namespace tlc::core {

/// Algorithm 1's claim window [xL, xU], open at [0, ∞) (line 1).
class ClaimWindow {
 public:
  [[nodiscard]] std::uint64_t lower() const { return lower_; }
  [[nodiscard]] std::uint64_t upper() const { return upper_; }

  /// The Line-12 constraint: false for a claim outside the window.
  [[nodiscard]] bool admits(std::uint64_t claim) const {
    return claim >= lower_ && claim <= upper_;
  }

  /// The Line-12 update from a rejected round's claim pair. It only
  /// ever narrows the window.
  void contract(std::uint64_t a, std::uint64_t b) {
    lower_ = std::max(lower_, std::min(a, b));
    upper_ = std::min(upper_, std::max(a, b));
  }

  /// True once no compliant claim can move any more.
  [[nodiscard]] bool pinned() const { return lower_ == upper_; }

  friend bool operator==(const ClaimWindow&, const ClaimWindow&) = default;

  /// The inputs a strategy sees this round; `c` is the plan's loss
  /// weight, passed through untouched.
  [[nodiscard]] RoundContext context(
      PartyRole role, const UsageView& view, int round,
      // tlclint: allow(float-money) the plan's ratio c, passed through
      double c) const {
    return RoundContext{role, view, lower_, upper_, round, c};
  }

 private:
  std::uint64_t lower_ = 0;           // xL
  std::uint64_t upper_ = kUnbounded;  // xU
};

struct RoundRecord {
  std::uint64_t edge_claim = 0;
  std::uint64_t operator_claim = 0;
  bool edge_accepted = false;
  bool operator_accepted = false;
};

struct NegotiationResult {
  /// True when both parties accepted within the round cap.
  bool completed = false;
  /// The negotiated charging volume x (valid when completed).
  std::uint64_t charged = 0;
  /// CDR-exchange rounds executed (TLC-optimal: 1).
  int rounds = 0;
  /// Claims that violated the (xL, xU) constraint (misbehaving peers).
  int bound_violations = 0;
  std::uint64_t final_edge_claim = 0;
  std::uint64_t final_operator_claim = 0;
  std::vector<RoundRecord> history;
};

struct NegotiationConfig {
  double c = 0.5;
  int max_rounds = 64;
};

/// Runs Algorithm 1 between the edge vendor and the operator.
[[nodiscard]] NegotiationResult negotiate(Strategy& edge_strategy,
                                          const UsageView& edge_view,
                                          Strategy& operator_strategy,
                                          const UsageView& operator_view,
                                          const NegotiationConfig& config);

}  // namespace tlc::core
