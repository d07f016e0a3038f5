#include "core/negotiation.hpp"

namespace tlc::core {

NegotiationResult negotiate(Strategy& edge_strategy,
                            const UsageView& edge_view,
                            Strategy& operator_strategy,
                            const UsageView& operator_view,
                            const NegotiationConfig& config) {
  NegotiationResult result;
  ClaimWindow window;

  for (int round = 0; round < config.max_rounds; ++round) {
    const RoundContext edge_ctx =
        window.context(PartyRole::EdgeVendor, edge_view, round, config.c);
    const RoundContext op_ctx =
        window.context(PartyRole::Operator, operator_view, round, config.c);

    // Line 4: exchange claims (order does not matter).
    const std::uint64_t edge_claim = edge_strategy.claim(edge_ctx);
    const std::uint64_t op_claim = operator_strategy.claim(op_ctx);
    ++result.rounds;

    // Line-12 constraint check: the previous round's bounds are public,
    // so either party detects an out-of-window claim and rejects it.
    const bool edge_violates = !window.admits(edge_claim);
    const bool op_violates = !window.admits(op_claim);
    if (edge_violates) ++result.bound_violations;
    if (op_violates) ++result.bound_violations;

    // Line 6: exchange decisions.
    const bool edge_accepts =
        !op_violates && edge_strategy.accept(edge_ctx, edge_claim, op_claim);
    const bool op_accepts =
        !edge_violates &&
        operator_strategy.accept(op_ctx, op_claim, edge_claim);

    result.history.push_back(
        RoundRecord{edge_claim, op_claim, edge_accepts, op_accepts});
    result.final_edge_claim = edge_claim;
    result.final_operator_claim = op_claim;

    if (edge_accepts && op_accepts) {
      // Lines 7-9: settle.
      result.completed = true;
      result.charged = charging::charged_volume(edge_claim, op_claim,
                                                config.c);
      return result;
    }

    // Line 12: contract the window — but only from claims that honored
    // the constraint, so a violator cannot widen it.
    window.contract(edge_violates ? op_claim : edge_claim,
                    op_violates ? edge_claim : op_claim);

    // A pinned window means claims can no longer move: settle there —
    // but never on the strength of a round with a constraint violation
    // (the violator must not be able to force convergence).
    if (!edge_violates && !op_violates && window.pinned()) {
      result.completed = true;
      result.charged =
          charging::charged_volume(window.lower(), window.upper(), config.c);
      ++result.rounds;
      return result;
    }
  }
  return result;  // round cap hit; negotiation failed
}

}  // namespace tlc::core
