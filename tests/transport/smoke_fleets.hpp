// The two intermittent-webcam benchmark fleets at smoke size and seed 1
// (benchmark/src/workloads.cpp, 3 cycles each):
//  * small_cells — 16 UEs in 2 cells. Its UE 2 hits the round cap on
//    cycle 1, so it is the smallest fleet shape with a failed cycle
//    that is not the UE's last.
//  * dense_cell — 12 UEs in one cell, the shape whose round-cap cycles
//    dominate settle time.
#pragma once

#include "fleet/fleet_config.hpp"

namespace tlc::transport {

inline fleet::FleetConfig intermittent_webcam_smoke(int ue_count, int shards,
                                                   unsigned threads) {
  fleet::FleetConfig config;
  config.base.cycle_length = 10 * kSecond;
  config.base.cycles = 3;
  config.seed = 1;
  config.threads = threads;
  config.ue_count = ue_count;
  config.shards = shards;
  config.key_cache_slots = 1;
  config.base.app = testbed::AppKind::WebcamUdpDownlink;
  config.app_mix = {testbed::AppKind::WebcamUdpDownlink};
  config.weak_signal_fraction = 0.25;
  config.intermittent_fraction = 1.0;
  config.intermittent_eta = 0.10;
  config.base.mean_outage_s = 0.5;
  config.base.background_mbps = 20.0;
  return config;
}

inline fleet::FleetConfig small_cells_smoke() {
  return intermittent_webcam_smoke(16, 2, 2);
}

inline fleet::FleetConfig dense_cell_smoke() {
  return intermittent_webcam_smoke(12, 1, 1);
}

}  // namespace tlc::transport
