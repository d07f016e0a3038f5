#include "workloads.hpp"

#include <algorithm>

#include "sim/rng_stream.hpp"

namespace tlc::bench {
namespace {

// run_fleet's seed stream for the streaming-ingest signing key
// ("ings"); the checks confirm a run's ingest_key matches it.
constexpr std::uint64_t kIngestKeyStream = 0x696e6773ULL;

// Populations are homogeneous on purpose. A fleet draws each UE's app
// and its weak-signal and intermittent roles per UE from the seed, so a
// mixed population changes its own size from seed to seed: with the
// 4-app mix, the VR share alone moved a 384-UE job's events by +-15%.
// One app, and fractions of 0 or 1 where a role changes the work, keep
// the work per job within a few percent across seeds.

// Downlink UDP WebCam (the paper's Fig 4 stream) in cells where every
// UE drops out for 10% of the time in 0.5 s outages, next to a 20 Mbps
// iperf phone. Downlink backlog queued for out-of-coverage UEs is what
// makes per-event cost grow with cell density (EnodeB queue scans).
void intermittent_webcam_cells(fleet::FleetConfig& config) {
  config.base.app = testbed::AppKind::WebcamUdpDownlink;  // background direction
  config.app_mix = {testbed::AppKind::WebcamUdpDownlink};
  config.weak_signal_fraction = 0.25;
  config.intermittent_fraction = 1.0;
  config.intermittent_eta = 0.10;
  config.base.mean_outage_s = 0.5;
  config.base.background_mbps = 20.0;
}

// Low-rate game traffic from UEs with good signal and no outages: each
// cycle settles in one negotiation round, and the simulator is light.
void steady_gaming(fleet::FleetConfig& config) {
  config.app_mix = {testbed::AppKind::GamingQci7};
  config.weak_signal_fraction = 0.0;
  config.intermittent_fraction = 0.0;
}

void settle_rsa1024(fleet::FleetConfig& config) {
  steady_gaming(config);
  config.rsa_bits = 1024;
}

void hostile_lossy(fleet::FleetConfig& config) {
  steady_gaming(config);
  // Ghost Traffic: ICMP tunnels, here in the form paced to stay under
  // the gateway's detector thresholds; a fixed-rate kind keeps the
  // overlay's share of the work steady across seeds.
  config.adversary.fraction = 0.2;
  config.adversary.kinds = {workloads::AdversaryKind::kVolumeShaper};
  config.lossy_transport = true;
  config.transport.coding = transport::Coding::Rlnc;
  transport::FaultProfile faults;
  faults.drop = 0.20;
  faults.corrupt = 0.01;
  faults.duplicate = 0.02;
  faults.reorder = 0.05;
  config.transport.to_edge = faults;
  config.transport.to_operator = faults;
  config.streaming_ingest = true;
  config.ingest_batch_size = 64;
}

constexpr Workload kWorkloads[] = {
    {"small_cells",
     "16 small cells on 2 threads: simulation dominates, and only this "
     "workload exercises the shard fan-out and the shard-order merge",
     128, 8, 2, intermittent_webcam_cells},
    {"dense_cell",
     "the same traffic at 6x the UEs per cell: queue scans past offline "
     "UEs raise per-event cost, so eNodeB and event-core changes show here",
     96, 48, 1, intermittent_webcam_cells},
    {"settle_rsa1024",
     "light traffic settled with the paper's RSA-1024 keys: negotiation, "
     "RSA and PoC encoding carry the run and the simulator is nearly idle",
     384, 8, 1, settle_rsa1024},
    {"hostile_lossy",
     "Ghost Traffic tunnels, RLNC-coded settlement over a lossy, corrupting "
     "channel, and streaming Merkle ingest: the transport and its ladder",
     768, 8, 1, hostile_lossy},
};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

fleet::FleetConfig make_config(const Workload& workload, std::uint64_t seed,
                               bool smoke) {
  fleet::FleetConfig config;
  config.base.cycle_length = 10 * kSecond;
  config.base.cycles = 3;
  config.seed = seed;
  config.threads = workload.threads;
  config.ue_count = smoke ? workload.ue_count / 8 : workload.ue_count;
  config.shards = std::max(1, config.ue_count / workload.ues_per_cell);
  // One key pair per party, as in the paper (one edge vendor, one
  // operator); more slots only add seed-dependent prime-search time.
  config.key_cache_slots = 1;
  workload.shape(config);
  return config;
}

std::uint64_t ue_cycles(const fleet::FleetConfig& config) {
  return static_cast<std::uint64_t>(std::max(0, config.ue_count)) *
         static_cast<std::uint64_t>(std::max(0, config.base.cycles));
}

std::uint64_t ingest_key_seed(const fleet::FleetConfig& config) {
  return sim::stream_seed(config.seed, kIngestKeyStream);
}

}  // namespace tlc::bench
