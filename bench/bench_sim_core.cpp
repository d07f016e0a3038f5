// Event-core microbenchmark: raw simulator throughput on the three hot
// operations (schedule, fire, cancel) plus the arrival-coalescing
// pattern the workloads use.
//
// Cases:
//   schedule_fire      N one-shot events at jittered times, then run()
//   schedule_cancel    N events scheduled then cancelled; run() drains
//                      the disarmed slots (the lazy-deletion path)
//   self_chain         K self-rescheduling chains (the frame-drain
//                      shape: one live event per chain, slot churn)
//   arrivals_unbatched one event per packet, pre-scheduled per frame
//                      (the pre-coalescing workload shape)
//   arrivals_batched   one self-rescheduling drain event per frame,
//                      consuming the frame's packets chunk by chunk
//   boundary_timers    48 self-chaining per-UE packet streams over 30 s,
//                      with each UE's 36 charging-cycle boundary timers
//                      all scheduled at t = 0 (the fleet's shape: every
//                      boundary snapshot of the run is pending from the
//                      start)
//   enodeb_dense_dl    one eNodeB serving 48 UEs whose radios drop out
//                      10% of the time in 0.5 s outages, under Poisson
//                      downlink load at 95% of the cell's capacity: the
//                      scheduler's per-packet cost with offline UEs'
//                      backlog queued around the served ones
//
// Each case reports median-of-3 events/sec (packets/sec for the arrival
// cases, so the two shapes are directly comparable). boundary_timers
// also reports wall ns per event; enodeb_dense_dl reports its delivered
// and delay-budget-dropped packets and the wall time per packet served.
// The counts are deterministic for a seed: tools/bench_check.py
// compares them with the committed record.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "epc/enodeb.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tlc::bench {
namespace {

using Clock = std::chrono::steady_clock;
constexpr int kSamples = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  std::string name;
  std::uint64_t events;
  double wall_seconds;
  double events_per_second;
  /// boundary_timers only.
  double ns_per_event = 0.0;
  /// enodeb_dense_dl only: served = delivered + air-dropped.
  bool has_dl = false;
  std::uint64_t dl_delivered = 0;
  std::uint64_t dl_pdb_drops = 0;
  double ns_per_served_packet = 0.0;
};

// Accumulator the event bodies write through so the optimizer cannot
// delete the callbacks.
std::uint64_t g_sink = 0;

double bench_schedule_fire(std::uint64_t n, Rng& rng) {
  sim::Simulator sim;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const SimTime at = static_cast<SimTime>(rng.uniform_u64(1'000'000));
    sim.schedule_at(at, [i] { g_sink += i; });
  }
  sim.run();
  return seconds_since(start);
}

double bench_schedule_cancel(std::uint64_t n, Rng& rng) {
  sim::Simulator sim;
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    const SimTime at = static_cast<SimTime>(rng.uniform_u64(1'000'000));
    ids.push_back(sim.schedule_at(at, [i] { g_sink += i; }));
  }
  for (const std::uint64_t id : ids) {
    sim.cancel(id);
  }
  sim.run();  // drains the disarmed heap entries
  return seconds_since(start);
}

double bench_self_chain(std::uint64_t n, std::uint64_t chains) {
  sim::Simulator sim;
  struct Chain {
    sim::Simulator* sim;
    std::uint64_t remaining;
    SimTime step;
    void fire() {
      g_sink += remaining;
      if (--remaining > 0) {
        sim->schedule_after(step, [this] { fire(); });
      }
    }
  };
  std::vector<Chain> state;
  state.reserve(chains);
  const auto start = Clock::now();
  for (std::uint64_t c = 0; c < chains; ++c) {
    state.push_back(Chain{&sim, n / chains, static_cast<SimTime>(c % 7 + 1)});
    Chain* chain = &state.back();
    sim.schedule_after(chain->step, [chain] { chain->fire(); });
  }
  sim.run();
  return seconds_since(start);
}

constexpr std::uint64_t kPacketsPerFrame = 32;
constexpr SimTime kPacketSpacing = 40;
constexpr SimTime kFrameSpacing = kPacketsPerFrame * kPacketSpacing * 2;

double bench_arrivals_unbatched(std::uint64_t packets) {
  sim::Simulator sim;
  const std::uint64_t frames = packets / kPacketsPerFrame;
  const auto start = Clock::now();
  for (std::uint64_t f = 0; f < frames; ++f) {
    const SimTime frame_at = static_cast<SimTime>(f) * kFrameSpacing;
    sim.schedule_at(frame_at, [&sim, frame_at] {
      for (std::uint64_t p = 0; p < kPacketsPerFrame; ++p) {
        sim.schedule_at(frame_at + static_cast<SimTime>(p) * kPacketSpacing,
                        [p] { g_sink += p; });
      }
    });
  }
  sim.run();
  return seconds_since(start);
}

double bench_arrivals_batched(std::uint64_t packets) {
  sim::Simulator sim;
  struct Drain {
    sim::Simulator* sim;
    std::uint64_t remaining = 0;
    void pump() {
      g_sink += remaining;
      if (--remaining > 0) {
        sim->schedule_after(kPacketSpacing, [this] { pump(); });
      }
    }
  };
  std::vector<Drain> drains;
  const std::uint64_t frames = packets / kPacketsPerFrame;
  drains.reserve(frames);
  const auto start = Clock::now();
  for (std::uint64_t f = 0; f < frames; ++f) {
    const SimTime frame_at = static_cast<SimTime>(f) * kFrameSpacing;
    drains.push_back(Drain{&sim});
    Drain* drain = &drains.back();
    sim.schedule_at(frame_at, [drain] {
      drain->remaining = kPacketsPerFrame;
      drain->pump();
    });
  }
  sim.run();
  return seconds_since(start);
}

constexpr std::size_t kTimerUes = 48;
constexpr int kBoundariesPerUe = 36;
constexpr SimTime kTimerHorizon = 30 * kSecond;

struct TimedRun {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
};

TimedRun bench_boundary_timers() {
  sim::Simulator sim;
  struct Stream {
    sim::Simulator* sim;
    SimTime gap;
    void emit() {
      g_sink += static_cast<std::uint64_t>(gap);
      if (sim->now() + gap <= kTimerHorizon) {
        sim->schedule_after(gap, [this] { emit(); });
      }
    }
  };
  std::vector<Stream> streams;
  streams.reserve(kTimerUes);
  const auto start = Clock::now();
  for (std::size_t u = 0; u < kTimerUes; ++u) {
    // Every boundary of the run, shifted by this UE's clock offset.
    const SimTime offset = static_cast<SimTime>(u * 37 % 300) * kMillisecond;
    for (int k = 1; k <= kBoundariesPerUe; ++k) {
      const SimTime at = kTimerHorizon * k / kBoundariesPerUe - offset;
      sim.schedule_at(at,
                      [u, k] { g_sink += u * static_cast<std::size_t>(k); });
    }
    const SimTime gap =
        700 * kMicrosecond + static_cast<SimTime>(u % 8) * 10 * kMicrosecond;
    streams.push_back(Stream{&sim, gap});
    Stream* stream = &streams.back();
    sim.schedule_after(stream->gap, [stream] { stream->emit(); });
  }
  sim.run_until(kTimerHorizon);
  return TimedRun{seconds_since(start), sim.executed()};
}

Row sample_boundary_timers() {
  std::vector<TimedRun> runs;
  for (int i = 0; i < kSamples; ++i) {
    runs.push_back(bench_boundary_timers());
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.wall_seconds < b.wall_seconds;
  });
  const TimedRun& median = runs[runs.size() / 2];
  Row row{"boundary_timers", median.events, median.wall_seconds,
          static_cast<double>(median.events) / median.wall_seconds};
  row.ns_per_event =
      median.wall_seconds * 1e9 / static_cast<double>(median.events);
  std::printf("%20s %14llu %10.3f %16.0f  %.1f ns/event\n",
              row.name.c_str(), static_cast<unsigned long long>(row.events),
              row.wall_seconds, row.events_per_second, row.ns_per_event);
  return row;
}

constexpr std::size_t kDenseUes = 48;
constexpr std::uint32_t kDensePacketBytes = 1400;
constexpr double kDenseLoad = 0.95;

/// A UE modem that only counts what it receives.
class CountingModem final : public epc::RrcEndpoint {
 public:
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override {
    return rx_bytes_;
  }
  void modem_deliver(const sim::Packet& packet) override {
    rx_bytes_ += packet.size_bytes;
  }

 private:
  std::uint64_t rx_bytes_ = 0;
};

struct DenseDlResult {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  epc::EnodeB::Stats stats;
};

DenseDlResult bench_enodeb_dense_dl(SimTime horizon, std::uint64_t seed) {
  sim::Simulator sim;
  const epc::EnodebParams params;
  Rng rng(seed);
  epc::EnodeB enodeb(sim, params, Rng(seed ^ 0xe0dbULL));
  sim::RadioParams radio_params;
  radio_params.mean_rss_dbm = -80.0;
  radio_params.disconnect_ratio = 0.1;
  radio_params.mean_outage_s = 0.5;
  std::vector<std::unique_ptr<sim::RadioChannel>> radios;
  std::vector<std::unique_ptr<CountingModem>> modems;
  for (std::size_t i = 0; i < kDenseUes; ++i) {
    radios.push_back(std::make_unique<sim::RadioChannel>(
        radio_params, Rng(seed * 1000 + i)));
    modems.push_back(std::make_unique<CountingModem>());
    enodeb.add_ue(epc::Imsi{1000 + i}, modems.back().get(),
                  radios.back().get());
  }

  // Each UE's downlink is a self-rescheduling Poisson source.
  const double mean_gap_s = static_cast<double>(kDensePacketBytes) * 8.0 *
                            static_cast<double>(kDenseUes) /
                            (kDenseLoad * params.dl_capacity_bps);
  std::uint64_t next_id = 1;
  struct Source {
    sim::Simulator* sim;
    epc::EnodeB* enodeb;
    Rng* rng;
    std::uint64_t* next_id;
    epc::Imsi imsi;
    double mean_gap_s;
    SimTime horizon;
    void emit() {
      sim::Packet packet;
      packet.id = (*next_id)++;
      packet.size_bytes = kDensePacketBytes;
      packet.direction = sim::Direction::Downlink;
      packet.created_at = sim->now();
      enodeb->downlink_submit(imsi, packet);
      const SimTime gap = from_seconds(rng->exponential(mean_gap_s));
      if (sim->now() + gap < horizon) {
        sim->schedule_after(gap, [this] { emit(); });
      }
    }
  };
  std::vector<Source> sources;
  sources.reserve(kDenseUes);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kDenseUes; ++i) {
    sources.push_back(Source{&sim, &enodeb, &rng, &next_id,
                             epc::Imsi{1000 + i}, mean_gap_s, horizon});
    Source* source = &sources.back();
    sim.schedule_at(from_seconds(rng.exponential(mean_gap_s)),
                    [source] { source->emit(); });
  }
  sim.run_until(horizon);
  DenseDlResult result;
  result.wall_seconds = seconds_since(start);
  result.events = sim.executed();
  result.stats = enodeb.stats();
  return result;
}

Row sample_enodeb_dense_dl(SimTime horizon, std::uint64_t seed) {
  std::vector<DenseDlResult> runs;
  for (int i = 0; i < kSamples; ++i) {
    runs.push_back(bench_enodeb_dense_dl(horizon, seed));
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.wall_seconds < b.wall_seconds;
  });
  const DenseDlResult& median = runs[runs.size() / 2];
  const epc::EnodeB::Stats& stats = median.stats;
  const std::uint64_t served = stats.dl_delivered + stats.dl_air_drops;
  Row row{"enodeb_dense_dl", median.events, median.wall_seconds,
          static_cast<double>(median.events) / median.wall_seconds};
  row.has_dl = true;
  row.dl_delivered = stats.dl_delivered;
  row.dl_pdb_drops = stats.dl_pdb_drops;
  row.ns_per_served_packet =
      served == 0 ? 0.0 : median.wall_seconds * 1e9 / static_cast<double>(served);
  std::printf("%20s %14llu %10.3f %16.0f  delivered=%llu pdb_drops=%llu "
              "%.0f ns/served packet\n",
              row.name.c_str(), static_cast<unsigned long long>(row.events),
              row.wall_seconds, row.events_per_second,
              static_cast<unsigned long long>(row.dl_delivered),
              static_cast<unsigned long long>(row.dl_pdb_drops),
              row.ns_per_served_packet);
  return row;
}

template <typename Fn>
Row sample(const std::string& name, std::uint64_t events, Fn&& body) {
  std::vector<double> walls;
  for (int i = 0; i < kSamples; ++i) {
    walls.push_back(body());
  }
  std::sort(walls.begin(), walls.end());
  const double wall = walls[walls.size() / 2];
  const Row row{name, events, wall, static_cast<double>(events) / wall};
  std::printf("%20s %14llu %10.3f %16.0f\n", row.name.c_str(),
              static_cast<unsigned long long>(row.events), row.wall_seconds,
              row.events_per_second);
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_sim_core: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_core\",\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"events\": %llu, "
                 "\"wall_seconds\": %.3f, \"events_per_second\": %.0f",
                 row.name.c_str(),
                 static_cast<unsigned long long>(row.events), row.wall_seconds,
                 row.events_per_second);
    if (row.ns_per_event > 0.0) {
      std::fprintf(f, ", \"ns_per_event\": %.1f", row.ns_per_event);
    }
    if (row.has_dl) {
      std::fprintf(f,
                   ", \"dl_delivered\": %llu, \"dl_pdb_drops\": %llu, "
                   "\"ns_per_served_packet\": %.1f",
                   static_cast<unsigned long long>(row.dl_delivered),
                   static_cast<unsigned long long>(row.dl_pdb_drops),
                   row.ns_per_served_packet);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int run(const BenchOptions& options) {
  print_mode(options);
  const std::uint64_t n = options.full ? 8'000'000 : 2'000'000;
  std::printf("%20s %14s %10s %16s\n", "case", "events", "wall (s)",
              "events/sec");

  Rng rng(options.seed);
  std::vector<Row> rows;
  rows.push_back(sample("schedule_fire", n, [&] {
    return bench_schedule_fire(n, rng);
  }));
  rows.push_back(sample("schedule_cancel", n, [&] {
    return bench_schedule_cancel(n, rng);
  }));
  rows.push_back(sample("self_chain", n, [&] {
    return bench_self_chain(n, 64);
  }));
  rows.push_back(sample("arrivals_unbatched", n, [&] {
    return bench_arrivals_unbatched(n);
  }));
  rows.push_back(sample("arrivals_batched", n, [&] {
    return bench_arrivals_batched(n);
  }));
  rows.push_back(sample_boundary_timers());
  rows.push_back(sample_enodeb_dense_dl(
      options.full ? 600 * kSecond : 120 * kSecond, options.seed));

  std::printf("\n(sink=%llu)\n", static_cast<unsigned long long>(g_sink));
  if (!options.json_path.empty()) {
    write_json(options.json_path, rows);
  }
  return 0;
}

}  // namespace
}  // namespace tlc::bench

int main(int argc, char** argv) {
  return tlc::bench::run(tlc::bench::parse_options(argc, argv));
}
