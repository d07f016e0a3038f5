// eNodeB scheduler soak: the per-UE-FIFO EnodeB is run differentially
// against a transliteration of the shared-deque scheduler it replaced,
// on twin simulators with identically seeded radios, over hundreds of
// randomized scripts. The scripts mix 1-64 UEs, all three QCIs, outage
// radios, throttled UEs with mixed packet sizes, queue-limit drops,
// delay-budget discards, detach with backlog and dl_backlog probes.
// Every delivery (time, IMSI, packet), every probe, the final Stats and
// the simulator's event count must match. The sweep also checks that it
// reached the cases the backlog heaps and UE lookup must get right: one
// QCI queue with 22 UEs backlogged, so its heap reaches a fourth level,
// a throttled UE's packet passing its own older one, and a delivery
// that lands after its UE was removed and re-added. Runs under the asan
// preset via the `epc` label.
#include "epc/enodeb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tlc::epc {
namespace {

// Reference implementation: the shared-deque scheduler, kept in
// behaviour — three FIFOs per direction shared by every UE, a scan from
// the front for the first packet whose UE is in coverage and admitted
// by its token bucket, mid-deque erase, delay-budget discard from the
// front, and a full-queue scan for flush and dl_backlog. The RRC state
// machine is kept because it feeds Stats; COUNTER CHECK is left out
// (the scripts install no handler).
class ReferenceEnodeB {
 public:
  ReferenceEnodeB(sim::Simulator& sim, EnodebParams params, Rng rng)
      : sim_(sim), params_(params), rng_(rng) {}

  void add_ue(Imsi imsi, RrcEndpoint* endpoint, sim::RadioChannel* radio) {
    UeCtx& ue = ues_[imsi];
    ue.endpoint = endpoint;
    ue.radio = radio;
    ue.last_activity = sim_.now();
  }

  void remove_ue(Imsi imsi) {
    auto it = ues_.find(imsi);
    if (it == ues_.end()) return;
    flush_ue(dl_, imsi, stats_.dl_flushed);
    std::uint64_t ul_flushed = 0;
    flush_ue(ul_, imsi, ul_flushed);
    stats_.ul_queue_drops += ul_flushed;
    ues_.erase(it);
  }

  void set_uplink_sink(EnodeB::UplinkSinkFn sink) {
    uplink_sink_ = std::move(sink);
  }

  void downlink_submit(Imsi imsi, const sim::Packet& packet) {
    if (ues_.find(imsi) == ues_.end()) return;
    if (!enqueue(dl_, queue_index(packet.qci), imsi, packet)) {
      ++stats_.dl_queue_drops;
      return;
    }
    if (!dl_serving_) serve_dl();
  }

  void uplink_submit(Imsi imsi, const sim::Packet& packet) {
    auto it = ues_.find(imsi);
    if (it == ues_.end()) return;
    touch_rrc(imsi, it->second);
    if (!enqueue(ul_, queue_index(packet.qci), imsi, packet)) {
      ++stats_.ul_queue_drops;
      return;
    }
    if (!ul_serving_) serve_ul();
  }

  void set_rate_limit(Imsi imsi, double bps) {
    auto it = ues_.find(imsi);
    if (it == ues_.end()) return;
    it->second.rate_limit_bps = bps;
    it->second.tokens_bytes = 0.0;
    it->second.tokens_updated = sim_.now();
  }

  [[nodiscard]] const EnodeB::Stats& stats() const { return stats_; }

  [[nodiscard]] std::uint64_t dl_backlog(Imsi imsi) const {
    std::uint64_t total = 0;
    for (const auto& queue : dl_.queues) {
      for (const QueuedPacket& entry : queue) {
        if (entry.imsi == imsi) total += entry.packet.size_bytes;
      }
    }
    return total;
  }

  /// Most distinct UEs queued in any one downlink QCI queue: the size of
  /// EnodeB's largest downlink backlog heap in the same state.
  [[nodiscard]] std::size_t max_dl_queue_ues() const {
    std::size_t most = 0;
    for (const auto& queue : dl_.queues) {
      std::set<Imsi> ues;
      for (const QueuedPacket& entry : queue) ues.insert(entry.imsi);
      most = std::max(most, ues.size());
    }
    return most;
  }

 private:
  static constexpr std::size_t kQueues = 3;

  struct UeCtx {
    RrcEndpoint* endpoint = nullptr;
    sim::RadioChannel* radio = nullptr;
    bool rrc_connected = false;
    SimTime last_activity = 0;
    double rate_limit_bps = 0.0;
    double tokens_bytes = 0.0;
    SimTime tokens_updated = 0;
  };
  struct QueuedPacket {
    Imsi imsi;
    sim::Packet packet;
  };
  struct QueueSet {
    std::array<std::deque<QueuedPacket>, kQueues> queues;
    std::array<std::uint64_t, kQueues> bytes{};
  };

  static std::size_t queue_index(sim::Qci qci) {
    switch (qci) {
      case sim::Qci::kQci3:
        return 0;
      case sim::Qci::kQci7:
        return 1;
      case sim::Qci::kQci9:
        return 2;
    }
    return 2;
  }

  void flush_ue(QueueSet& set, Imsi imsi, std::uint64_t& flush_counter) {
    for (std::size_t q = 0; q < kQueues; ++q) {
      auto& queue = set.queues[q];
      for (auto it = queue.begin(); it != queue.end();) {
        if (it->imsi == imsi) {
          set.bytes[q] -= std::min<std::uint64_t>(set.bytes[q],
                                                  it->packet.size_bytes);
          it = queue.erase(it);
          ++flush_counter;
        } else {
          ++it;
        }
      }
    }
  }

  void touch_rrc(Imsi imsi, UeCtx& ue) {
    ue.last_activity = sim_.now();
    if (!ue.rrc_connected) {
      ue.rrc_connected = true;
      ++stats_.rrc_setups;
      sim_.schedule_after(params_.rrc_inactivity_timeout,
                          [this, imsi] { check_inactivity(imsi); });
    }
  }

  void check_inactivity(Imsi imsi) {
    auto it = ues_.find(imsi);
    if (it == ues_.end() || !it->second.rrc_connected) return;
    UeCtx& ue = it->second;
    const SimTime idle = sim_.now() - ue.last_activity;
    if (idle >= params_.rrc_inactivity_timeout) {
      ue.rrc_connected = false;
      ++stats_.rrc_releases;
    } else {
      sim_.schedule_after(params_.rrc_inactivity_timeout - idle,
                          [this, imsi] { check_inactivity(imsi); });
    }
  }

  [[nodiscard]] bool rate_tokens_available(const UeCtx& ue,
                                           std::uint32_t size_bytes) const {
    if (ue.rate_limit_bps <= 0.0) return true;
    const double elapsed_s = to_seconds(sim_.now() - ue.tokens_updated);
    const double tokens =
        std::min(ue.rate_limit_bps / 8.0,
                 ue.tokens_bytes + ue.rate_limit_bps / 8.0 * elapsed_s);
    return tokens >= static_cast<double>(size_bytes);
  }

  void consume_rate_tokens(UeCtx& ue, std::uint32_t size_bytes) {
    if (ue.rate_limit_bps <= 0.0) return;
    const SimTime now = sim_.now();
    const double elapsed_s = to_seconds(now - ue.tokens_updated);
    ue.tokens_bytes =
        std::min(ue.rate_limit_bps / 8.0,
                 ue.tokens_bytes + ue.rate_limit_bps / 8.0 * elapsed_s);
    ue.tokens_updated = now;
    if (ue.tokens_bytes < static_cast<double>(size_bytes)) return;
    ue.tokens_bytes -= static_cast<double>(size_bytes);
  }

  bool enqueue(QueueSet& set, std::size_t q, Imsi imsi,
               const sim::Packet& packet) {
    if (set.bytes[q] + packet.size_bytes > params_.queue_limit_bytes) {
      return false;
    }
    set.queues[q].push_back(QueuedPacket{imsi, packet});
    set.bytes[q] += packet.size_bytes;
    return true;
  }

  bool pick(QueueSet& set, std::size_t& out_queue, std::size_t& out_pos) {
    const SimTime now = sim_.now();
    for (std::size_t q = 0; q < kQueues; ++q) {
      const auto& queue = set.queues[q];
      for (std::size_t pos = 0; pos < queue.size(); ++pos) {
        auto it = ues_.find(queue[pos].imsi);
        if (it != ues_.end() && it->second.radio->connected(now) &&
            rate_tokens_available(it->second,
                                  queue[pos].packet.size_bytes)) {
          out_queue = q;
          out_pos = pos;
          return true;
        }
      }
    }
    return false;
  }

  /// Removes and returns the packet at (q, pos), charging its tokens.
  QueuedPacket take(QueueSet& set, std::size_t q, std::size_t pos) {
    const QueuedPacket entry = set.queues[q][pos];
    set.queues[q].erase(set.queues[q].begin() +
                        static_cast<std::ptrdiff_t>(pos));
    set.bytes[q] -=
        std::min<std::uint64_t>(set.bytes[q], entry.packet.size_bytes);
    consume_rate_tokens(ues_[entry.imsi], entry.packet.size_bytes);
    return entry;
  }

  void serve_dl() {
    if (params_.pdb_discard_factor > 0.0) {
      for (std::size_t q = 0; q < kQueues; ++q) {
        auto& queue = dl_.queues[q];
        while (!queue.empty()) {
          const sim::Packet& head = queue.front().packet;
          const auto budget = static_cast<SimTime>(
              params_.pdb_discard_factor *
              static_cast<double>(sim::qci_delay_budget(head.qci)));
          if (sim_.now() - head.created_at <= budget) break;
          dl_.bytes[q] -=
              std::min<std::uint64_t>(dl_.bytes[q], head.size_bytes);
          queue.pop_front();
          ++stats_.dl_pdb_drops;
        }
      }
    }

    std::size_t q = 0;
    std::size_t pos = 0;
    if (!pick(dl_, q, pos)) {
      dl_serving_ = false;
      bool pending = false;
      for (const auto& queue : dl_.queues) pending = pending || !queue.empty();
      if (pending && !dl_retry_armed_) {
        dl_retry_armed_ = true;
        sim_.schedule_after(params_.blocked_retry, [this] {
          dl_retry_armed_ = false;
          if (!dl_serving_) serve_dl();
        });
      }
      return;
    }

    dl_serving_ = true;
    const QueuedPacket entry = take(dl_, q, pos);
    const double tx_seconds = static_cast<double>(entry.packet.size_bytes) *
                              8.0 / params_.dl_capacity_bps;
    sim_.schedule_after(from_seconds(tx_seconds), [this, entry] {
      auto it = ues_.find(entry.imsi);
      if (it != ues_.end()) {
        UeCtx& target = it->second;
        const double loss = target.radio->packet_loss_probability(sim_.now());
        if (rng_.chance(loss)) {
          ++stats_.dl_air_drops;
        } else {
          ++stats_.dl_delivered;
          touch_rrc(entry.imsi, target);
          target.endpoint->modem_deliver(entry.packet);
        }
      }
      dl_serving_ = false;
      serve_dl();
    });
  }

  void serve_ul() {
    std::size_t q = 0;
    std::size_t pos = 0;
    if (!pick(ul_, q, pos)) {
      ul_serving_ = false;
      bool pending = false;
      for (const auto& queue : ul_.queues) pending = pending || !queue.empty();
      if (pending && !ul_retry_armed_) {
        ul_retry_armed_ = true;
        sim_.schedule_after(params_.blocked_retry, [this] {
          ul_retry_armed_ = false;
          if (!ul_serving_) serve_ul();
        });
      }
      return;
    }

    ul_serving_ = true;
    const QueuedPacket entry = take(ul_, q, pos);
    const double tx_seconds = static_cast<double>(entry.packet.size_bytes) *
                              8.0 / params_.ul_capacity_bps;
    sim_.schedule_after(from_seconds(tx_seconds), [this, entry] {
      auto it = ues_.find(entry.imsi);
      if (it != ues_.end()) {
        const double loss =
            it->second.radio->packet_loss_probability(sim_.now());
        if (rng_.chance(loss)) {
          ++stats_.ul_air_drops;
        } else {
          ++stats_.ul_delivered;
          if (uplink_sink_) uplink_sink_(entry.imsi, entry.packet);
        }
      }
      ul_serving_ = false;
      serve_ul();
    });
  }

  sim::Simulator& sim_;
  EnodebParams params_;
  Rng rng_;
  std::map<Imsi, UeCtx> ues_;
  QueueSet dl_;
  QueueSet ul_;
  EnodeB::UplinkSinkFn uplink_sink_;
  EnodeB::Stats stats_;
  bool dl_serving_ = false;
  bool ul_serving_ = false;
  bool dl_retry_armed_ = false;
  bool ul_retry_armed_ = false;
};

// (time, IMSI, packet id, 'D'ownlink or 'U'plink)
using Delivery = std::tuple<SimTime, std::uint64_t, std::uint64_t, char>;

/// What the downlink deliveries show about the paths they took.
struct DlWatch {
  struct Submitted {
    std::uint64_t arrival = 0;   // submission order over the whole run
    std::uint32_t removals = 0;  // the UE's remove_ue calls before it
  };
  std::vector<std::uint32_t> removals;  // per UE
  std::map<std::uint64_t, Submitted> submitted;  // by packet id
  /// Latest arrival delivered per (UE, QCI queue).
  std::map<std::pair<std::size_t, sim::Qci>, std::uint64_t> last_delivered;
  std::uint64_t next_arrival = 0;
  /// A packet arrived before one of its UE's same-QCI packets that was
  /// delivered ahead of it: only a throttle pass-through reorders a UE
  /// inside one queue.
  bool passed_own_older = false;
  /// A delivery fired after its UE was removed and added again.
  bool delivered_across_readd = false;

  void submit(std::size_t ue, std::uint64_t id) {
    submitted[id] = Submitted{next_arrival++, removals[ue]};
  }
  void deliver(std::size_t ue, const sim::Packet& packet) {
    const Submitted& s = submitted.at(packet.id);
    delivered_across_readd |= s.removals != removals[ue];
    auto [it, first] =
        last_delivered.try_emplace({ue, packet.qci}, s.arrival);
    if (!first) {
      passed_own_older |= s.arrival < it->second;
      it->second = std::max(it->second, s.arrival);
    }
  }
};

class TraceUe final : public RrcEndpoint {
 public:
  TraceUe(const sim::Simulator& sim, std::size_t ue, Imsi imsi,
          std::vector<Delivery>& trace, DlWatch& watch)
      : sim_(sim), ue_(ue), imsi_(imsi), trace_(trace), watch_(watch) {}
  [[nodiscard]] std::uint64_t modem_tx_bytes() const override { return 0; }
  [[nodiscard]] std::uint64_t modem_rx_bytes() const override { return 0; }
  void modem_deliver(const sim::Packet& packet) override {
    trace_.emplace_back(sim_.now(), imsi_.value, packet.id, 'D');
    watch_.deliver(ue_, packet);
  }

 private:
  const sim::Simulator& sim_;
  std::size_t ue_;
  Imsi imsi_;
  std::vector<Delivery>& trace_;
  DlWatch& watch_;
};

struct Op {
  enum Kind { kDownlink, kUplink, kRateLimit, kRemove, kAdd, kProbe };
  Kind kind = kDownlink;
  SimTime at = 0;
  std::size_t ue = 0;
  std::uint32_t count = 1;  // packets submitted back to back
  std::uint32_t size = 0;
  sim::Qci qci = sim::Qci::kQci9;
  SimTime age = 0;  // created_at = at - age (stale on arrival if large)
  double bps = 0.0;
};

struct Script {
  EnodebParams params;
  std::vector<sim::RadioParams> radios;  // one per UE
  std::vector<Op> ops;
  SimTime horizon = 0;
};

constexpr std::array kQcis{sim::Qci::kQci3, sim::Qci::kQci7, sim::Qci::kQci9};

Script make_script(std::uint64_t seed) {
  Rng rng(seed);
  Script script;
  EnodebParams& p = script.params;
  p.dl_capacity_bps = rng.uniform(1e6, 40e6);
  p.ul_capacity_bps = rng.uniform(1e6, 40e6);
  p.queue_limit_bytes =
      4000 + static_cast<std::uint32_t>(rng.uniform_u64(200000));
  const double factors[] = {0.0, 0.3, 1.0, 5.0};
  p.pdb_discard_factor = factors[rng.uniform_u64(4)];
  p.rrc_inactivity_timeout = from_seconds(rng.uniform(0.2, 3.0));
  p.blocked_retry = (1 + static_cast<SimTime>(rng.uniform_u64(30))) *
                    kMillisecond;

  const std::size_t ue_count = 1 + static_cast<std::size_t>(rng.uniform_u64(64));
  for (std::size_t i = 0; i < ue_count; ++i) {
    sim::RadioParams radio;
    const std::uint64_t role = rng.uniform_u64(10);
    if (role < 4) {
      radio.mean_rss_dbm = -70.0;  // clean
    } else if (role < 6) {
      radio.mean_rss_dbm = rng.uniform(-115.0, -100.0);  // lossy
    } else {
      radio.mean_rss_dbm = -80.0;  // outages
      radio.disconnect_ratio = rng.uniform(0.05, 0.7);
      radio.mean_outage_s = rng.uniform(0.05, 1.5);
      radio.tick = (5 + static_cast<SimTime>(rng.uniform_u64(100))) *
                   kMillisecond;
    }
    script.radios.push_back(radio);
  }

  script.horizon = from_seconds(rng.uniform(1.0, 6.0));
  const auto random_time = [&] {
    return static_cast<SimTime>(
        rng.uniform_u64(static_cast<std::uint64_t>(script.horizon)));
  };
  const auto random_ue = [&] {
    return static_cast<std::size_t>(rng.uniform_u64(ue_count));
  };

  // Some UEs start throttled.
  for (std::size_t i = 0; i < ue_count; ++i) {
    if (rng.chance(0.2)) {
      Op op;
      op.kind = Op::kRateLimit;
      op.ue = i;
      op.bps = rng.uniform(8e3, 2e6);
      script.ops.push_back(op);
    }
  }

  const std::size_t ops = 200 + static_cast<std::size_t>(rng.uniform_u64(600));
  for (std::size_t i = 0; i < ops; ++i) {
    Op op;
    op.at = random_time();
    op.ue = random_ue();
    const std::uint64_t roll = rng.uniform_u64(100);
    if (roll < 70) {
      op.kind = roll < 55 ? Op::kDownlink : Op::kUplink;
      op.count = 1 + static_cast<std::uint32_t>(
                         rng.chance(0.3) ? rng.uniform_u64(40) : 0);
      op.size = rng.chance(0.5)
                    ? 1400
                    : 40 + static_cast<std::uint32_t>(rng.uniform_u64(1461));
      op.qci = kQcis[rng.uniform_u64(3)];
      op.age = rng.chance(0.1) ? from_seconds(rng.uniform(0.0, 2.0)) : 0;
    } else if (roll < 78) {
      op.kind = Op::kRateLimit;
      op.bps = rng.chance(0.3) ? 0.0 : rng.uniform(8e3, 2e6);
    } else if (roll < 82) {
      op.kind = Op::kRemove;
    } else if (roll < 86) {
      op.kind = Op::kAdd;
    } else {
      op.kind = Op::kProbe;
    }
    script.ops.push_back(op);
  }

  // Some scripts also submit one packet per UE to a single QCI queue at
  // one instant and probe right after, so that queue's backlog heap
  // holds most UEs at once and its deep levels sift and get walked.
  if (rng.chance(0.25)) {
    Op op;
    op.at = random_time();
    op.qci = kQcis[rng.uniform_u64(3)];
    for (std::size_t i = 0; i < ue_count; ++i) {
      op.ue = i;
      op.size = 40 + static_cast<std::uint32_t>(rng.uniform_u64(1461));
      script.ops.push_back(op);
    }
    op.kind = Op::kProbe;
    script.ops.push_back(op);
  }
  return script;
}

struct Observed {
  std::vector<Delivery> deliveries;
  std::vector<std::uint64_t> backlogs;
  EnodeB::Stats stats;
  std::uint64_t events = 0;
  /// Most UEs a probe saw backlogged in one downlink QCI queue; only
  /// the reference replay, whose shared deques show it, fills this.
  std::size_t max_dl_queue_ues = 0;
  bool passed_own_older = false;
  bool delivered_across_readd = false;
};

Imsi imsi_of(std::size_t ue) { return Imsi{100 + ue}; }

template <typename Enb>
Observed replay(const Script& script, std::uint64_t seed) {
  Observed out;
  sim::Simulator sim;
  DlWatch watch;
  watch.removals.resize(script.radios.size());
  std::vector<sim::RadioChannel> radios;
  std::vector<TraceUe> ues;
  radios.reserve(script.radios.size());
  ues.reserve(script.radios.size());
  for (std::size_t i = 0; i < script.radios.size(); ++i) {
    radios.emplace_back(script.radios[i], Rng(seed * 1000 + i));
    ues.emplace_back(sim, i, imsi_of(i), out.deliveries, watch);
  }
  Enb enodeb(sim, script.params, Rng(seed ^ 0x5eedULL));
  enodeb.set_uplink_sink([&](Imsi imsi, const sim::Packet& packet) {
    out.deliveries.emplace_back(sim.now(), imsi.value, packet.id, 'U');
  });
  for (std::size_t i = 0; i < ues.size(); ++i) {
    enodeb.add_ue(imsi_of(i), &ues[i], &radios[i]);
  }

  std::uint64_t next_id = 1;
  for (const Op& op : script.ops) {
    const std::uint64_t first_id = next_id;
    if (op.kind == Op::kDownlink || op.kind == Op::kUplink) {
      next_id += op.count;
    }
    sim.schedule_at(op.at, [&, op, first_id] {
      const Imsi imsi = imsi_of(op.ue);
      switch (op.kind) {
        case Op::kDownlink:
        case Op::kUplink:
          for (std::uint32_t k = 0; k < op.count; ++k) {
            sim::Packet packet;
            packet.id = first_id + k;
            packet.size_bytes = op.size;
            packet.qci = op.qci;
            packet.created_at = sim.now() - op.age;
            if (op.kind == Op::kDownlink) {
              packet.direction = sim::Direction::Downlink;
              watch.submit(op.ue, packet.id);
              enodeb.downlink_submit(imsi, packet);
            } else {
              packet.direction = sim::Direction::Uplink;
              enodeb.uplink_submit(imsi, packet);
            }
          }
          break;
        case Op::kRateLimit:
          enodeb.set_rate_limit(imsi, op.bps);
          break;
        case Op::kRemove:
          out.backlogs.push_back(enodeb.dl_backlog(imsi));
          enodeb.remove_ue(imsi);
          ++watch.removals[op.ue];
          out.backlogs.push_back(enodeb.dl_backlog(imsi));
          break;
        case Op::kAdd:
          enodeb.add_ue(imsi, &ues[op.ue], &radios[op.ue]);
          break;
        case Op::kProbe:
          out.backlogs.push_back(enodeb.dl_backlog(imsi));
          if constexpr (std::is_same_v<Enb, ReferenceEnodeB>) {
            out.max_dl_queue_ues =
                std::max(out.max_dl_queue_ues, enodeb.max_dl_queue_ues());
          }
          break;
      }
    });
  }

  sim.run_until(script.horizon + 10 * kSecond);
  for (std::size_t i = 0; i < ues.size(); ++i) {
    out.backlogs.push_back(enodeb.dl_backlog(imsi_of(i)));
  }
  out.stats = enodeb.stats();
  out.events = sim.executed();
  out.passed_own_older = watch.passed_own_older;
  out.delivered_across_readd = watch.delivered_across_readd;
  return out;
}

auto stats_tuple(const EnodeB::Stats& s) {
  return std::make_tuple(s.dl_delivered, s.dl_queue_drops, s.dl_air_drops,
                         s.dl_pdb_drops, s.dl_flushed, s.ul_delivered,
                         s.ul_queue_drops, s.ul_air_drops, s.rrc_setups,
                         s.rrc_releases, s.counter_checks);
}

TEST(EnodebSchedulerSoakTest, MatchesSharedQueueReferenceOverRandomScripts) {
  EnodeB::Stats totals;
  std::size_t max_dl_queue_ues = 0;
  bool passed_own_older = false;
  bool delivered_across_readd = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Script script = make_script(seed);
    const Observed got = replay<EnodeB>(script, seed);
    const Observed want = replay<ReferenceEnodeB>(script, seed);
    ASSERT_EQ(got.deliveries, want.deliveries) << "seed " << seed;
    ASSERT_EQ(got.backlogs, want.backlogs) << "seed " << seed;
    ASSERT_EQ(stats_tuple(got.stats), stats_tuple(want.stats))
        << "seed " << seed;
    ASSERT_EQ(got.events, want.events) << "seed " << seed;
    totals.dl_delivered += got.stats.dl_delivered;
    totals.dl_queue_drops += got.stats.dl_queue_drops;
    totals.dl_pdb_drops += got.stats.dl_pdb_drops;
    totals.dl_flushed += got.stats.dl_flushed;
    totals.ul_delivered += got.stats.ul_delivered;
    totals.ul_queue_drops += got.stats.ul_queue_drops;
    max_dl_queue_ues = std::max(max_dl_queue_ues, want.max_dl_queue_ues);
    passed_own_older |= got.passed_own_older;
    delivered_across_readd |= got.delivered_across_readd;
  }
  // The scripts must actually reach every path the two schedulers could
  // disagree on.
  EXPECT_GT(totals.dl_delivered, 0u);
  EXPECT_GT(totals.dl_queue_drops, 0u);
  EXPECT_GT(totals.dl_pdb_drops, 0u);
  EXPECT_GT(totals.dl_flushed, 0u);
  EXPECT_GT(totals.ul_delivered, 0u);
  EXPECT_GT(totals.ul_queue_drops, 0u);
  // 1 + 4 + 16 UEs fill a 4-ary heap's first three levels; the 22nd
  // in the same queue starts the fourth.
  EXPECT_GE(max_dl_queue_ues, 22u);
  EXPECT_TRUE(passed_own_older);
  EXPECT_TRUE(delivered_across_readd);
}

template <typename Enb>
std::vector<std::uint64_t> serve_past_throttled_root() {
  // UE 0 sits at the heap root with a 1400-byte head its 8 kbps bucket
  // (1000 bytes at most) never admits, and a 100-byte second packet it
  // does. UE 1's head arrived between the two, so it sits in a child
  // with a lower seq than UE 0's admissible packet and goes first. UE 2
  // keeps the air busy while the three arrive, so one pick sees them.
  sim::Simulator sim;
  std::vector<Delivery> deliveries;
  DlWatch watch;
  watch.removals.resize(3);
  sim::RadioParams clean;
  clean.mean_rss_dbm = -70.0;
  std::vector<sim::RadioChannel> radios;
  std::vector<TraceUe> ues;
  radios.reserve(3);
  ues.reserve(3);
  for (std::size_t i = 0; i < 3; ++i) {
    radios.emplace_back(clean, Rng(7 + i));
    ues.emplace_back(sim, i, imsi_of(i), deliveries, watch);
  }
  EnodebParams params;
  params.dl_capacity_bps = 1e6;
  Enb enodeb(sim, params, Rng(11));
  for (std::size_t i = 0; i < 3; ++i) {
    enodeb.add_ue(imsi_of(i), &ues[i], &radios[i]);
  }
  enodeb.set_rate_limit(imsi_of(0), 8e3);
  sim.schedule_at(kSecond, [&] {
    std::uint64_t id = 1;
    for (const auto& [ue, size] :
         {std::pair{2, 1400}, {0, 1400}, {1, 500}, {0, 100}}) {
      sim::Packet packet;
      packet.id = id++;
      packet.size_bytes = static_cast<std::uint32_t>(size);
      packet.direction = sim::Direction::Downlink;
      packet.created_at = sim.now();
      watch.submit(static_cast<std::size_t>(ue), packet.id);
      enodeb.downlink_submit(imsi_of(static_cast<std::size_t>(ue)), packet);
    }
  });
  sim.run_until(2 * kSecond);
  std::vector<std::uint64_t> served;
  for (const Delivery& d : deliveries) served.push_back(std::get<2>(d));
  return served;
}

TEST(EnodebSchedulerSoakTest, ThrottledRootDoesNotHideAnOlderChildHead) {
  // UE 2's packet, then UE 1's, then UE 0's second; its head stays.
  const std::vector<std::uint64_t> want{1, 3, 4};
  EXPECT_EQ(serve_past_throttled_root<EnodeB>(), want);
  EXPECT_EQ(serve_past_throttled_root<ReferenceEnodeB>(), want);
}

}  // namespace
}  // namespace tlc::epc
