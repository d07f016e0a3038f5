#include "testbed/experiment.hpp"

#include <memory>

#include "charging/plan.hpp"
#include "core/legacy.hpp"
#include "core/strategy.hpp"

namespace tlc::testbed {
namespace {

/// One party's strategy under a TLC scheme.
std::unique_ptr<core::Strategy> make_strategy(Scheme scheme, Rng& rng) {
  if (scheme == Scheme::TlcOptimal) {
    return std::make_unique<core::OptimalStrategy>();
  }
  return std::make_unique<core::RandomSelfishStrategy>(rng.fork());
}

/// Mean of `field` over the cycles `scheme` was evaluated on (0 if none).
template <typename T>
double mean_over(const std::map<Scheme, std::vector<CycleOutcome>>& outcomes,
                 Scheme scheme, T CycleOutcome::*field) {
  auto it = outcomes.find(scheme);
  if (it == outcomes.end() || it->second.empty()) return 0.0;
  double sum = 0.0;
  for (const CycleOutcome& o : it->second) sum += o.*field;
  return sum / static_cast<double>(it->second.size());
}

}  // namespace

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::Legacy:
      return "Legacy 4G/5G";
    case Scheme::TlcOptimal:
      return "TLC-optimal";
    case Scheme::TlcRandom:
      return "TLC-random";
  }
  return "?";
}

CycleOutcome evaluate_scheme(const CycleMeasurements& cycle, Scheme scheme,
                             double c, SimTime cycle_length, Rng& rng) {
  CycleOutcome outcome;
  outcome.expected =
      charging::expected_charge(cycle.true_sent, cycle.true_received, c);

  if (scheme == Scheme::Legacy) {
    outcome.charged = core::legacy_charge(cycle.gateway_volume);
  } else {
    // The edge's strategy is built before the operator's: TlcRandom
    // forks `rng` in that order.
    std::unique_ptr<core::Strategy> edge = make_strategy(scheme, rng);
    std::unique_ptr<core::Strategy> op = make_strategy(scheme, rng);
    const core::UsageView edge_view{cycle.edge_sent, cycle.edge_received};
    const core::UsageView op_view{cycle.op_sent, cycle.op_received};
    core::NegotiationConfig config;
    config.c = c;
    const auto result = core::negotiate(*edge, edge_view, *op, op_view, config);
    outcome.charged = result.charged;
    outcome.rounds = result.rounds;
    outcome.completed = result.completed;
  }

  const std::uint64_t gap_bytes =
      charging::charging_gap(outcome.charged, outcome.expected);
  outcome.gap_mb = static_cast<double>(gap_bytes) / 1e6;
  const double hours = to_seconds(cycle_length) / 3600.0;
  outcome.gap_mb_per_hr = hours > 0 ? outcome.gap_mb / hours : 0.0;
  outcome.gap_ratio = charging::gap_ratio(outcome.charged, outcome.expected);
  return outcome;
}

double ExperimentResult::mean_gap_mb_per_hr(Scheme scheme) const {
  return mean_over(outcomes, scheme, &CycleOutcome::gap_mb_per_hr);
}

double ExperimentResult::mean_gap_ratio(Scheme scheme) const {
  return mean_over(outcomes, scheme, &CycleOutcome::gap_ratio);
}

double ExperimentResult::mean_rounds(Scheme scheme) const {
  return mean_over(outcomes, scheme, &CycleOutcome::rounds);
}

ExperimentResult run_experiment(const ScenarioConfig& config,
                                const std::vector<Scheme>& schemes) {
  ExperimentResult result;
  result.config = config;

  Testbed testbed(config);
  result.cycles = testbed.run();

  Rng scheme_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  for (Scheme scheme : schemes) {
    auto& outcomes = result.outcomes[scheme];
    outcomes.reserve(result.cycles.size());
    for (const CycleMeasurements& cycle : result.cycles) {
      outcomes.push_back(evaluate_scheme(cycle, scheme, config.plan_c,
                                         config.cycle_length, scheme_rng));
    }
  }
  return result;
}

}  // namespace tlc::testbed
