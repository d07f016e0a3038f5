// The small_cells benchmark fleet at smoke size and seed 1
// (benchmark/src/workloads.cpp: 16 UEs in 2 cells, 3 cycles). Its UE 2
// hits the round cap on cycle 1, so it is the smallest fleet shape
// with a failed cycle that is not the UE's last.
#pragma once

#include "fleet/fleet_config.hpp"

namespace tlc::transport {

inline fleet::FleetConfig small_cells_smoke() {
  fleet::FleetConfig config;
  config.base.cycle_length = 10 * kSecond;
  config.base.cycles = 3;
  config.seed = 1;
  config.threads = 2;
  config.ue_count = 16;
  config.shards = 2;
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

}  // namespace tlc::transport
