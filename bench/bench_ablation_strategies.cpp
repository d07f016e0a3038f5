// Ablation: the strategy matrix behind Theorems 2-4. Every pairing of
// edge/operator strategies, with the outcome's position inside the
// [x̂o, x̂e] band, rounds to convergence, and failure behaviour of the
// misbehaving strategies.
#include "bench_common.hpp"

#include <memory>

#include "core/negotiation.hpp"

using namespace tlc;
using namespace tlc::core;
using namespace tlc::testbed;

namespace {

std::unique_ptr<Strategy> make_strategy(const std::string& kind, Rng& rng) {
  if (kind == "honest") return std::make_unique<HonestStrategy>();
  if (kind == "optimal") return std::make_unique<OptimalStrategy>();
  if (kind == "random") {
    return std::make_unique<RandomSelfishStrategy>(rng.fork());
  }
  if (kind == "reject-all") return std::make_unique<RejectAllStrategy>();
  return std::make_unique<GreedyOverclaimStrategy>(1.5);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  print_banner("Ablation: strategy matrix (Theorems 2-4)");
  bench::print_mode(options);

  const std::vector<std::string> kinds = {"honest", "optimal", "random",
                                          "reject-all", "greedy"};
  const std::uint64_t sent = 100000000;      // x̂e
  const std::uint64_t received = 88000000;   // x̂o (12% loss)
  const UsageView view{sent, received};
  const int trials = options.full ? 200 : 50;

  TextTable table({"Edge strategy", "Operator strategy", "Completed",
                   "Rounds", "x position in [x_o, x_e]", "Bound held"});
  Rng rng(options.seed);
  for (const std::string& edge_kind : kinds) {
    for (const std::string& op_kind : kinds) {
      int completed = 0;
      RunningStats rounds;
      RunningStats position;
      bool bound_held = true;
      for (int t = 0; t < trials; ++t) {
        auto edge = make_strategy(edge_kind, rng);
        auto op = make_strategy(op_kind, rng);
        const auto result = negotiate(*edge, view, *op, view, {0.5, 32});
        rounds.add(result.rounds);
        if (!result.completed) continue;
        ++completed;
        bound_held = bound_held && result.charged >= received &&
                     result.charged <= sent;
        position.add((static_cast<double>(result.charged) -
                      static_cast<double>(received)) /
                     static_cast<double>(sent - received));
      }
      table.add_row(
          {edge_kind, op_kind,
           cell_pct(static_cast<double>(completed) / trials, 0),
           cell(rounds.mean(), 1),
           completed > 0 ? cell(position.mean(), 2) : std::string("-"),
           completed > 0 ? (bound_held ? "yes" : "NO") : "-"});
    }
  }
  table.print();

  std::printf(
      "\nreading: every completed negotiation lands inside [x̂o, x̂e] "
      "(Theorem 2, 'Bound held');\nhonest/optimal pairs settle in 1 round "
      "at position c=0.5 (Theorems 3-4); reject-all\nnever completes and "
      "only hurts its owner (§5.1); greedy over-claims fail the "
      "cross-check.\n");
  return 0;
}
