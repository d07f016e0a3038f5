#include "epc/mme.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tlc::epc {
namespace {

constexpr Imsi kImsi{1234};

struct MmeFixture : public ::testing::Test {
  MmeFixture() : mme(sim, hss) {
    hss.provision(SubscriberProfile{kImsi, "ue", device_el20()});
    mme.set_state_change_handler([this](Imsi imsi, bool attached) {
      events.emplace_back(imsi, attached);
    });
  }

  sim::RadioChannel make_radio(double disconnect_ratio,
                               double mean_outage_s = 2.0,
                               std::uint64_t seed = 3) {
    sim::RadioParams params;
    params.disconnect_ratio = disconnect_ratio;
    params.mean_outage_s = mean_outage_s;
    return sim::RadioChannel(params, Rng(seed));
  }

  sim::Simulator sim;
  Hss hss;
  Mme mme;
  std::vector<std::pair<Imsi, bool>> events;
};

TEST_F(MmeFixture, InitialAttachSucceeds) {
  auto radio = make_radio(0.0);
  EXPECT_TRUE(mme.register_ue(kImsi, &radio));
  EXPECT_TRUE(mme.attached(kImsi));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].second);
}

TEST_F(MmeFixture, UnknownSubscriberRejected) {
  auto radio = make_radio(0.0);
  EXPECT_FALSE(mme.register_ue(Imsi{999}, &radio));
  EXPECT_FALSE(mme.attached(Imsi{999}));
  EXPECT_TRUE(events.empty());
}

TEST_F(MmeFixture, BarredSubscriberRejected) {
  hss.set_barred(kImsi, true);
  auto radio = make_radio(0.0);
  EXPECT_FALSE(mme.register_ue(kImsi, &radio));
}

TEST_F(MmeFixture, StaysAttachedWithGoodRadio) {
  auto radio = make_radio(0.0);
  mme.register_ue(kImsi, &radio);
  mme.start();
  sim.run_until(2 * kMinute);
  EXPECT_TRUE(mme.attached(kImsi));
  EXPECT_EQ(mme.detach_count(), 0u);
}

TEST_F(MmeFixture, DetachesAfterPersistentOutage) {
  // Long outages (mean 30 s) guarantee crossing the 5 s threshold.
  auto radio = make_radio(0.5, 30.0, 7);
  mme.register_ue(kImsi, &radio);
  mme.start();
  sim.run_until(10 * kMinute);
  EXPECT_GT(mme.detach_count(), 0u);
}

TEST_F(MmeFixture, ReattachesWhenCoverageReturns) {
  auto radio = make_radio(0.5, 30.0, 7);
  mme.register_ue(kImsi, &radio);
  mme.start();
  sim.run_until(20 * kMinute);
  ASSERT_GT(mme.detach_count(), 0u);
  // Re-attach events follow detaches (initial attach + at least one
  // re-attach).
  EXPECT_GT(mme.attach_count(), 1u);
  // Event stream alternates attach/detach.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_NE(events[i].second, events[i - 1].second) << "at " << i;
  }
}

TEST_F(MmeFixture, ShortBlipsDoNotDetach) {
  // Mean 0.5 s outages stay well under the 5 s radio-link-failure
  // threshold; the charging gap persists precisely because the core
  // cannot see these (§3.2).
  auto radio = make_radio(0.05, 0.5, 11);
  mme.register_ue(kImsi, &radio);
  mme.start();
  sim.run_until(5 * kMinute);
  EXPECT_EQ(mme.detach_count(), 0u);
}

TEST_F(MmeFixture, DetachLatencyRoughlyFiveSeconds) {
  Mme strict(sim, hss);
  // Effectively one permanent outage after a short initial connected
  // episode.
  sim::RadioParams rp;
  rp.disconnect_ratio = 0.999;
  rp.mean_outage_s = 10000.0;
  sim::RadioChannel radio(rp, Rng(13));

  bool detached = false;
  SimTime outage_age_at_detach = -1;
  strict.set_state_change_handler([&](Imsi, bool attached) {
    if (!attached && !detached) {
      detached = true;
      outage_age_at_detach = sim.now() - radio.disconnected_since();
    }
  });
  strict.register_ue(kImsi, &radio);
  strict.start();
  sim.run_until(2 * kMinute);
  ASSERT_TRUE(detached);
  // The paper's core took ~5 s on average; ours polls every 500 ms on a
  // 5 s threshold, so the outage is 5-6 s old when the detach fires.
  EXPECT_GE(outage_age_at_detach, 9 * kSecond / 2);
  EXPECT_LE(outage_age_at_detach, 7 * kSecond);
}

}  // namespace
}  // namespace tlc::epc
