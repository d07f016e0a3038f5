// Delay-budget discard at the eNodeB (§3.1 cause 5: frames that blow
// their latency requirement are dropped, not delivered late).
#include <gtest/gtest.h>

#include "epc/enodeb.hpp"

namespace tlc::epc {
namespace {

class CountingUe final : public RrcEndpoint {
 public:
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return rx_; }
  void modem_deliver(const sim::Packet& packet) override {
    rx_ += packet.size_bytes;
  }
  std::uint64_t rx_ = 0;
};

sim::Packet qci9_packet(sim::Simulator& sim, std::uint32_t bytes) {
  sim::Packet p;
  p.id = 1;
  p.size_bytes = bytes;
  p.qci = sim::Qci::kQci9;
  p.created_at = sim.now();
  return p;
}

TEST(PdbDiscardTest, StalePacketsDroppedAfterOutage) {
  // The UE starts in a long outage: packets queue, age past
  // 5 x 300 ms = 1.5 s, and must be discarded instead of delivered.
  sim::Simulator sim;
  sim::RadioParams rp;
  rp.disconnect_ratio = 0.5;
  rp.mean_outage_s = 5.0;  // long outages: most of the backlog goes stale
  sim::RadioChannel radio(rp, Rng(41));
  CountingUe ue;
  EnodebParams params;
  params.queue_limit_bytes = 8 << 20;  // big enough to never tail-drop
  EnodeB enodeb(sim, params, Rng(42));
  enodeb.add_ue(Imsi{1}, &ue, &radio);

  // Offer 200 kB/s for 60 s.
  for (int second = 0; second < 60; ++second) {
    for (int i = 0; i < 20; ++i) {
      sim.schedule_at(second * kSecond + i * 50 * kMillisecond, [&] {
        enodeb.downlink_submit(Imsi{1}, qci9_packet(sim, 1000));
      });
    }
  }
  sim.run_until(2 * kMinute);

  const auto& stats = enodeb.stats();
  EXPECT_GT(stats.dl_pdb_drops, 0u);
  EXPECT_EQ(stats.dl_queue_drops, 0u);  // never tail-dropped
  // Everything is accounted: delivered + air + stale = offered.
  EXPECT_EQ(stats.dl_delivered + stats.dl_air_drops + stats.dl_pdb_drops,
            1200u);
}

TEST(PdbDiscardTest, DiscardsOnlyFromTheQueueHead) {
  // Both UEs are throttled so that neither 1500-byte packet can ever be
  // served. UE 1's packet is fresh and at the head of the QCI 9 queue;
  // UE 2's packet behind it arrives already stale. Discard stops at the
  // fresh head, so the stale packet stays queued until the head itself
  // ages out.
  sim::Simulator sim;
  sim::RadioParams rp;
  rp.mean_rss_dbm = -70.0;
  sim::RadioChannel radio1(rp, Rng(47));
  sim::RadioChannel radio2(rp, Rng(48));
  CountingUe ue1;
  CountingUe ue2;
  EnodeB enodeb(sim, EnodebParams{}, Rng(49));
  enodeb.add_ue(Imsi{1}, &ue1, &radio1);
  enodeb.add_ue(Imsi{2}, &ue2, &radio2);
  enodeb.set_rate_limit(Imsi{1}, 8000.0);  // bucket caps at 1000 bytes
  enodeb.set_rate_limit(Imsi{2}, 8000.0);

  sim.run_until(10 * kSecond);
  enodeb.downlink_submit(Imsi{1}, qci9_packet(sim, 1500));
  sim::Packet stale = qci9_packet(sim, 1500);
  stale.created_at = 0;  // 10 s old: far past 5 x 300 ms
  enodeb.downlink_submit(Imsi{2}, stale);

  // Service polls every blocked_retry; the head is still fresh at +1 s.
  sim.run_until(11 * kSecond);
  EXPECT_EQ(enodeb.stats().dl_pdb_drops, 0u);
  EXPECT_EQ(enodeb.dl_backlog(Imsi{2}), 1500u);

  // Past the head's 1.5 s budget both are discarded, head first.
  sim.run_until(12 * kSecond);
  EXPECT_EQ(enodeb.stats().dl_pdb_drops, 2u);
  EXPECT_EQ(enodeb.dl_backlog(Imsi{1}), 0u);
  EXPECT_EQ(enodeb.dl_backlog(Imsi{2}), 0u);
  EXPECT_EQ(enodeb.stats().dl_delivered, 0u);
}

TEST(PdbDiscardTest, FreshTrafficUnaffected) {
  sim::Simulator sim;
  sim::RadioParams rp;  // perfect coverage
  rp.mean_rss_dbm = -70.0;
  sim::RadioChannel radio(rp, Rng(43));
  CountingUe ue;
  EnodeB enodeb(sim, EnodebParams{}, Rng(44));
  enodeb.add_ue(Imsi{1}, &ue, &radio);
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(i * 10 * kMillisecond, [&] {
      enodeb.downlink_submit(Imsi{1}, qci9_packet(sim, 1000));
    });
  }
  sim.run_until(kMinute);
  EXPECT_EQ(enodeb.stats().dl_pdb_drops, 0u);
  EXPECT_EQ(ue.rx_, 100000u);
}

TEST(PdbDiscardTest, DisabledByZeroFactor) {
  sim::Simulator sim;
  sim::RadioParams rp;
  rp.disconnect_ratio = 0.5;
  rp.mean_outage_s = 5.0;
  sim::RadioChannel radio(rp, Rng(45));
  CountingUe ue;
  EnodebParams params;
  params.pdb_discard_factor = 0.0;
  params.queue_limit_bytes = 8 << 20;
  EnodeB enodeb(sim, params, Rng(46));
  enodeb.add_ue(Imsi{1}, &ue, &radio);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(i * 100 * kMillisecond, [&] {
      enodeb.downlink_submit(Imsi{1}, qci9_packet(sim, 1000));
    });
  }
  sim.run_until(5 * kMinute);
  EXPECT_EQ(enodeb.stats().dl_pdb_drops, 0u);
}

}  // namespace
}  // namespace tlc::epc
