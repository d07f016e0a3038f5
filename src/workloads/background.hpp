// iperf-style UDP background traffic (the congestion knob of
// Figs 3/13: 0-160 Mbps CBR to a separate phone on QCI 9).
#pragma once

#include "workloads/source.hpp"

namespace tlc::workloads {

/// Arrivals are Poisson (exponential inter-packet gaps around the
/// rate's mean interval). iperf UDP is nominally CBR, but NIC/driver
/// batching decorrelates it in practice; near-periodic arrivals
/// phase-lock with the cell's service period and starve competing
/// flows unrealistically.
struct BackgroundParams {
  double rate_mbps = 100.0;
  std::uint32_t packet_bytes = 1400;
};

class BackgroundUdpSource final : public PacketSource {
 public:
  BackgroundUdpSource(sim::Simulator& sim, EmitFn emit, std::uint32_t flow_id,
                      sim::Direction direction, BackgroundParams params,
                      Rng rng);

  void start(SimTime at) override;
  [[nodiscard]] std::string name() const override { return "iperf UDP"; }

 private:
  void next_packet();

  BackgroundParams params_;
  SimTime interval_ = 0;
};

}  // namespace tlc::workloads
