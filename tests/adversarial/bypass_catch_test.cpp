// Ghost-Traffic catch-or-bound scenarios (DESIGN.md §13): each bypass
// generator driven straight into the gateway, asserting that the
// detectors either flag it or that its leak stays inside the documented
// bound — plus the honest-traffic no-false-positive baseline.
#include <gtest/gtest.h>

#include <vector>

#include "epc/spgw.hpp"
#include "workloads/adversarial.hpp"

namespace tlc::epc {
namespace {

constexpr Imsi kAttacker{501};
constexpr Imsi kVictim{502};
constexpr FlowId kOverlayFlow = 9001;
constexpr FlowId kVictimFlow = 9002;
constexpr SimTime kRunFor = 10 * kSecond;

class NullUe final : public RrcEndpoint {
 public:
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return 0; }
  void modem_deliver(const sim::Packet&) override {}
};

// Drives generators straight into the gateway's uplink counting point:
// no radio, no loss, so every emitted byte arrives and the detector
// assertions are exact.
struct BypassFixture : public ::testing::Test {
  BypassFixture() : radio(sim::RadioParams{}, Rng(1)), enodeb(sim, EnodebParams{}, Rng(2)) {}

  void build(SpgwParams params = {}) {
    spgw = std::make_unique<Spgw>(sim, enodeb, params);
    spgw->create_session(kAttacker);
    spgw->create_session(kVictim);
  }

  workloads::TrafficSource::EmitFn sink_for(Imsi imsi) {
    return [this, imsi](const sim::Packet& p) {
      spgw->uplink_from_enodeb(imsi, p);
    };
  }

  void run(workloads::TrafficSource& source) {
    source.start(0);
    sim.run_until(kRunFor);
    source.stop();
  }

  sim::Simulator sim;
  sim::RadioChannel radio;
  NullUe ue;
  EnodeB enodeb;
  std::unique_ptr<Spgw> spgw;
};

TEST_F(BypassFixture, IcmpTunnelCaught) {
  build();
  workloads::TunnelSource tunnel(sim, sink_for(kAttacker), kOverlayFlow,
                                 workloads::icmp_tunnel_params(), Rng(7));
  run(tunnel);

  const AnomalyCounters a = spgw->anomaly(kAttacker);
  // ~520 small packets/s against a 50/window limit: the flood heuristic
  // fires in the very first window; the near-random payload trips the
  // entropy heuristic once enough free-class volume accumulates.
  EXPECT_TRUE(a.flags & kAnomalySmallPacketFlood);
  EXPECT_TRUE(a.flags & kAnomalyHighEntropyFreeClass);
  EXPECT_GE(a.mean_free_entropy_millis(), 900u);
  // The whole point of the bypass: the tunnel was forwarded uncharged.
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), 0u);
  EXPECT_EQ(spgw->uncharged_bytes(kAttacker), tunnel.emitted_bytes());
  EXPECT_EQ(a.protocol_bytes[static_cast<std::size_t>(sim::Protocol::kIcmp)],
            tunnel.emitted_bytes());
}

TEST_F(BypassFixture, DnsTunnelCaught) {
  build();
  workloads::TunnelSource tunnel(sim, sink_for(kAttacker), kOverlayFlow,
                                 workloads::dns_tunnel_params(), Rng(8));
  run(tunnel);

  const AnomalyCounters a = spgw->anomaly(kAttacker);
  EXPECT_TRUE(a.flags & kAnomalySmallPacketFlood);
  EXPECT_TRUE(a.flags & kAnomalyHighEntropyFreeClass);
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), 0u);
  EXPECT_EQ(a.protocol_bytes[static_cast<std::size_t>(sim::Protocol::kDns)],
            tunnel.emitted_bytes());
}

TEST_F(BypassFixture, ZeroRatedAbuseCaught) {
  build();
  spgw->set_zero_rated(kOverlayFlow);
  workloads::ZeroRatedAbuseSource abuse(sim, sink_for(kAttacker), kOverlayFlow,
                                        Rng(9));
  run(abuse);

  const AnomalyCounters a = spgw->anomaly(kAttacker);
  // 1.5 Mbps ≈ 187 KB per window against a 64 KB cap.
  EXPECT_TRUE(a.flags & kAnomalyZeroRatedVolume);
  EXPECT_EQ(a.zero_rated_bytes, abuse.emitted_bytes());
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), 0u);
}

TEST_F(BypassFixture, FreeRiderFlagged) {
  build();
  spgw->bind_flow(kVictimFlow, kVictim);
  workloads::FreeRiderSource rider(sim, sink_for(kAttacker), kVictimFlow,
                                   Rng(10));
  run(rider);

  const AnomalyCounters a = spgw->anomaly(kAttacker);
  EXPECT_TRUE(a.flags & kAnomalyFlowReplay);
  EXPECT_EQ(a.replayed_bytes, rider.emitted_bytes());
  // Without flow-based charging the carrier still pays (UDP is a
  // charged class) — the replay is an identity attack, not a free ride
  // on volume, until the operator bills by flow.
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), rider.emitted_bytes());
  EXPECT_EQ(spgw->uplink_bytes(kVictim), 0u);
}

TEST_F(BypassFixture, FlowBasedChargingBillsTheVictim) {
  SpgwParams params;
  params.flow_based_charging = true;
  build(params);
  spgw->bind_flow(kVictimFlow, kVictim);
  workloads::FreeRiderSource rider(sim, sink_for(kAttacker), kVictimFlow,
                                   Rng(11));
  run(rider);

  // The gap the binding check exists for: the victim is billed for
  // bytes the attacker sent — and the attacker is flagged regardless.
  EXPECT_EQ(spgw->uplink_bytes(kVictim), rider.emitted_bytes());
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), 0u);
  EXPECT_TRUE(spgw->anomaly(kAttacker).flags & kAnomalyFlowReplay);
}

// The shaper evades the flood detector only while it paces fewer packets
// per window than the gateway tolerates, over the same window.
static_assert(workloads::kShaperPacketsPerWindow < kFreeSmallPacketsPerWindow);
static_assert(workloads::kShaperWindow == kAnomalyWindow);

TEST_F(BypassFixture, VolumeShaperEvadesButIsBounded) {
  build();
  workloads::VolumeShaperSource shaper(sim, sink_for(kAttacker), kOverlayFlow,
                                       Rng(12));
  run(shaper);

  const AnomalyCounters a = spgw->anomaly(kAttacker);
  // Designed to ride under every threshold: 48 small packets per
  // 50-packet window, entropy 550 under the 800 threshold.
  EXPECT_EQ(a.flags, 0u);
  // ...but its leak is provably capped by the emission bound.
  EXPECT_GT(a.free_bytes, 0u);
  EXPECT_LE(a.free_bytes, workloads::shaper_leakage_bound(kRunFor));
}

TEST_F(BypassFixture, HonestTrafficRaisesNoFlags) {
  build();
  // Charged-class UDP at tunnel-like rates: high volume alone must not
  // trip any free-class or zero-rated detector.
  sim::Packet p;
  p.direction = sim::Direction::Uplink;
  p.flow_id = kOverlayFlow;
  p.size_bytes = 96;
  for (int i = 0; i < 10000; ++i) {
    p.id = static_cast<std::uint64_t>(i);
    spgw->uplink_from_enodeb(kAttacker, p);
  }
  const AnomalyCounters a = spgw->anomaly(kAttacker);
  EXPECT_EQ(a.flags, 0u);
  EXPECT_EQ(spgw->uncharged_bytes(kAttacker), 0u);
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), 10000u * 96u);
}

TEST_F(BypassFixture, ChargingFreeClassesClosesTheTunnelGap) {
  SpgwParams params;
  params.charge_free_classes = true;
  build(params);
  workloads::TunnelSource tunnel(sim, sink_for(kAttacker), kOverlayFlow,
                                 workloads::icmp_tunnel_params(), Rng(13));
  run(tunnel);

  // The mitigation knob: ICMP is counted like any charged class, so the
  // leak is zero and the free-class detectors see nothing to flag.
  EXPECT_EQ(spgw->uplink_bytes(kAttacker), tunnel.emitted_bytes());
  EXPECT_EQ(spgw->uncharged_bytes(kAttacker), 0u);
  EXPECT_EQ(spgw->anomaly(kAttacker).flags, 0u);
}

TEST_F(BypassFixture, CdrCarriesAuditFieldsCompactWireUnchanged) {
  build();
  workloads::TunnelSource tunnel(sim, sink_for(kAttacker), kOverlayFlow,
                                 workloads::icmp_tunnel_params(), Rng(14));
  run(tunnel);

  ChargingDataRecord cdr = spgw->generate_cdr(kAttacker);
  EXPECT_EQ(cdr.datavolume_uplink, 0u);
  EXPECT_EQ(cdr.uncharged_uplink, tunnel.emitted_bytes());
  EXPECT_NE(cdr.anomaly_flags, 0u);
  // Second CDR covers only the (empty) delta; flags stay sticky.
  ChargingDataRecord next = spgw->generate_cdr(kAttacker);
  EXPECT_EQ(next.uncharged_uplink, 0u);
  EXPECT_NE(next.anomaly_flags, 0u);
  // The 34-byte Trace-1 compact wire predates §13 and must not grow:
  // audit fields ride the full-width codecs only.
  EXPECT_EQ(cdr.encode_compact().size(), 34u);
}

}  // namespace
}  // namespace tlc::epc
