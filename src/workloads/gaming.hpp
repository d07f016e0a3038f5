// Online-gaming workload (§7.1 scenario 3).
//
// Models the King-of-Glory player-control stream the paper replays:
// small UDP state updates at a fixed tick rate (~0.02 Mbps average),
// with occasional larger world-sync bursts. The acceleration of §2.2
// assigns it QCI 7 (100 ms delay budget); the Fig 12d comparison runs
// the same stream on QCI 9.
#pragma once

#include "workloads/source.hpp"

namespace tlc::workloads {

/// Size of a world-sync burst.
inline constexpr std::uint32_t kGamingSyncBytes = 900;

struct GamingParams {
  /// Probability a tick carries a world-sync burst instead.
  double sync_probability = 0.01;
};

class GamingSource final : public PacketSource {
 public:
  GamingSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
               sim::Direction direction, sim::Qci qci, GamingParams params,
               Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override {
    return "Gaming (King of Glory)";
  }

 private:
  void next_tick();

  GamingParams params_;
};

}  // namespace tlc::workloads
