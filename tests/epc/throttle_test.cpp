// Quota throttling at the scheduler (§2.1: "unlimited" plans limit the
// speed — e.g. 128 kbps — once the usage exceeds the quota).
#include <gtest/gtest.h>

#include "epc/enodeb.hpp"
#include "epc/ofcs.hpp"

namespace tlc::epc {
namespace {

class SinkUe final : public RrcEndpoint {
 public:
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return rx_; }
  void modem_deliver(const sim::Packet& packet) override {
    rx_ += packet.size_bytes;
  }
  std::uint64_t rx_ = 0;
};

struct ThrottleFixture : public ::testing::Test {
  ThrottleFixture()
      : radio(make_radio()), enodeb(sim, make_params(), Rng(2)) {
    enodeb.add_ue(Imsi{1}, &ue, &radio);
  }

  static sim::RadioChannel make_radio() {
    sim::RadioParams rp;
    rp.mean_rss_dbm = -70.0;  // negligible air loss
    return sim::RadioChannel(rp, Rng(1));
  }
  static EnodebParams make_params() {
    EnodebParams p;
    p.queue_limit_bytes = 64 << 20;  // no tail drops in these tests
    p.pdb_discard_factor = 0.0;      // no staleness drops either
    return p;
  }

  /// Offers `rate_kbps` of downlink for `seconds`.
  void offer(double rate_kbps, int seconds) {
    const double bytes_per_second = rate_kbps * 1000.0 / 8.0;
    const int packets_per_second =
        std::max(1, static_cast<int>(bytes_per_second / 500.0));
    for (int s = 0; s < seconds; ++s) {
      for (int i = 0; i < packets_per_second; ++i) {
        sim.schedule_at(
            s * kSecond + i * (kSecond / packets_per_second), [this] {
              sim::Packet p;
              p.id = 1;
              p.size_bytes = 500;
              p.qci = sim::Qci::kQci9;
              p.created_at = sim.now();
              enodeb.downlink_submit(Imsi{1}, p);
            });
      }
    }
  }

  sim::Simulator sim;
  sim::RadioChannel radio;
  SinkUe ue;
  EnodeB enodeb;
};

TEST_F(ThrottleFixture, UnlimitedByDefault) {
  offer(1000.0, 10);  // 1 Mbps for 10 s
  sim.run_until(15 * kSecond);
  EXPECT_NEAR(static_cast<double>(ue.rx_), 1.25e6, 1e5);
  EXPECT_EQ(enodeb.rate_limit(Imsi{1}), 0.0);
}

TEST_F(ThrottleFixture, ThrottleCapsGoodput) {
  enodeb.set_rate_limit(Imsi{1}, 128000.0);  // the paper's 128 kbps
  offer(1000.0, 20);                         // offer ~8x the cap
  sim.run_until(20 * kSecond);
  const double goodput_kbps =
      static_cast<double>(ue.rx_) * 8.0 / 1000.0 / 20.0;
  EXPECT_NEAR(goodput_kbps, 128.0, 20.0);
  EXPECT_EQ(enodeb.rate_limit(Imsi{1}), 128000.0);
}

TEST_F(ThrottleFixture, ClearRestoresFullRate) {
  enodeb.set_rate_limit(Imsi{1}, 128000.0);
  enodeb.set_rate_limit(Imsi{1}, 0.0);
  offer(1000.0, 10);
  sim.run_until(15 * kSecond);
  EXPECT_NEAR(static_cast<double>(ue.rx_), 1.25e6, 1e5);
}

TEST_F(ThrottleFixture, SmallerLaterPacketPassesTooLargeHead) {
  // 8 kbps caps the bucket at 1000 bytes, so a 1500-byte head can never
  // be admitted. The UE's later 500-byte packet is served past it, and
  // the head stays queued.
  enodeb.set_rate_limit(Imsi{1}, 8000.0);
  sim::Packet big;
  big.size_bytes = 1500;
  big.qci = sim::Qci::kQci9;
  sim::Packet small = big;
  small.size_bytes = 500;
  enodeb.downlink_submit(Imsi{1}, big);
  enodeb.downlink_submit(Imsi{1}, small);
  EXPECT_EQ(enodeb.dl_backlog(Imsi{1}), 2000u);
  sim.run_until(2 * kSecond);
  EXPECT_EQ(ue.rx_, 500u);
  EXPECT_EQ(enodeb.stats().dl_delivered, 1u);
  EXPECT_EQ(enodeb.dl_backlog(Imsi{1}), 1500u);
}

TEST_F(ThrottleFixture, OfcsQuotaDrivesThrottle) {
  // Wire the §2.1 loop: OFCS detects quota exceeded -> operator applies
  // the throttle at the scheduler.
  charging::DataPlan plan;
  plan.quota_bytes = 1000000;  // 1 MB quota
  plan.throttle_kbps = 128;
  Ofcs ofcs(plan);

  ChargingDataRecord cdr;
  cdr.served_imsi = Imsi{1};
  cdr.datavolume_downlink = 2000000;  // over quota
  ofcs.ingest(cdr);
  const BillLine line = ofcs.close_cycle(Imsi{1});
  ASSERT_TRUE(line.throttled);
  enodeb.set_rate_limit(Imsi{1}, static_cast<double>(plan.throttle_kbps) * 1000.0);

  offer(1000.0, 20);
  sim.run_until(20 * kSecond);
  const double goodput_kbps =
      static_cast<double>(ue.rx_) * 8.0 / 1000.0 / 20.0;
  EXPECT_NEAR(goodput_kbps, 128.0, 20.0);
}

}  // namespace
}  // namespace tlc::epc
