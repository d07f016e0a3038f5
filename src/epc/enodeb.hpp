// Small-cell eNodeB.
//
// Implements the pieces of the base station the charging gap depends on:
//  * a strict-priority air scheduler over shared per-QCI drop-tail
//    queues (QCI 3 > 7 > 9, per TS 23.203). Flows inside one QCI share
//    one FIFO *order* and one byte limit, so iperf background traffic
//    on QCI 9 congests the cell and same-class app traffic loses
//    proportionally — the Fig 3/13 effect — while QCI 7 gaming stays
//    clean (Fig 12d). Storage is per UE: each UE holds its own FIFO per
//    QCI queue, and an arrival sequence number shared by the queue set
//    restores the shared order (lowest sequence number first). A min-heap
//    of backlogged UEs keyed by their head's sequence number finds the
//    shared head without visiting every UE;
//  * per-packet air loss from the UE's radio channel (BLER from RSS,
//    forced loss during outages). Downlink air loss happens *after* the
//    SPGW charged the packet — the core over-charging mechanism;
//  * downlink buffering across short outages: packets whose UE is out
//    of coverage stay queued (later packets for other UEs are served
//    around them) and drain on reconnect — the t=240 s gap dip in
//    Fig 4 — with overflow drops when the outage outlasts the queue;
//  * the RRC connection state machine with inactivity release, and the
//    RRC COUNTER CHECK procedure (§5.4) used as the operator's
//    tamper-resilient monitor: on every RRC release (and on demand at
//    cycle end) the eNodeB queries the hardware modem's cumulative
//    counters and reports them to the operator.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "epc/ids.hpp"
#include "epc/rrc.hpp"
#include "sim/packet.hpp"
#include "sim/radio.hpp"
#include "sim/simulator.hpp"
#include "util/expected.hpp"

namespace tlc::epc {

/// The device side of the radio interface, implemented by UeDevice.
/// Counter reads model the hardware modem's statistics — tamper
/// resilient by construction (§5.4).
class RrcEndpoint {
 public:
  virtual ~RrcEndpoint() = default;
  /// Cumulative bytes the modem has transmitted on the uplink.
  [[nodiscard]] virtual std::uint64_t modem_tx_bytes() const = 0;
  /// Cumulative bytes the modem has received on the downlink.
  [[nodiscard]] virtual std::uint64_t modem_rx_bytes() const = 0;
  /// Delivers a downlink packet into the device.
  virtual void modem_deliver(const sim::Packet& packet) = 0;

  /// Handles an encoded RRC message from the base station and returns
  /// the encoded response. The default implements COUNTER CHECK from
  /// the modem counters — firmware behaviour the application processor
  /// cannot override, which is the §5.4 tamper-resilience argument.
  [[nodiscard]] virtual Expected<Bytes> handle_rrc(const Bytes& wire);
};

struct EnodebParams {
  /// Cell capacity per direction (20 MHz FDD band 2 small cell),
  /// calibrated so the Fig 3/13 background sweep (0-160 Mbps iperf)
  /// produces the paper's overload loss levels.
  double dl_capacity_bps = 115e6;
  double ul_capacity_bps = 100e6;
  /// Shared per-QCI drop-tail queue limit.
  std::uint32_t queue_limit_bytes = 1u << 20;
  /// RRC inactivity timeout before connection release.
  SimTime rrc_inactivity_timeout = 10 * kSecond;
  /// Re-poll period when queued traffic cannot be served (all candidate
  /// UEs out of coverage).
  SimTime blocked_retry = 20 * kMillisecond;
  /// Delay-budget discard (§3.1 cause 5: the operator's middlebox/RLC
  /// drops frames that blew their latency requirement). A packet whose
  /// queue sojourn exceeds `pdb_discard_factor` x its QCI delay budget
  /// is dropped at dequeue. 0 disables.
  double pdb_discard_factor = 5.0;
};

class EnodeB {
 public:
  /// Counter-check report: modem-cumulative UL/DL bytes at `at`.
  using CounterCheckFn = std::function<void(
      Imsi, std::uint64_t ul_bytes, std::uint64_t dl_bytes, SimTime at)>;
  using UplinkSinkFn = std::function<void(Imsi, const sim::Packet&)>;

  struct Stats {
    std::uint64_t dl_delivered = 0;
    std::uint64_t dl_queue_drops = 0;
    std::uint64_t dl_air_drops = 0;
    std::uint64_t dl_pdb_drops = 0;  // exceeded delay budget in queue
    std::uint64_t dl_flushed = 0;    // dropped on detach
    std::uint64_t ul_delivered = 0;
    std::uint64_t ul_queue_drops = 0;
    std::uint64_t ul_air_drops = 0;
    std::uint64_t rrc_setups = 0;
    std::uint64_t rrc_releases = 0;
    std::uint64_t counter_checks = 0;
  };

  EnodeB(sim::Simulator& sim, EnodebParams params, Rng rng);
  // Scheduled actions capture `this` and the queues point into `ues_`.
  EnodeB(const EnodeB&) = delete;
  EnodeB& operator=(const EnodeB&) = delete;

  /// Registers a UE served by this cell.
  void add_ue(Imsi imsi, RrcEndpoint* endpoint, sim::RadioChannel* radio);

  /// Detach: flushes the UE's queued traffic (counted as dl_flushed;
  /// those downlink bytes were already charged upstream).
  void remove_ue(Imsi imsi);

  /// Uplink packets that survive the air are forwarded here (-> SPGW).
  void set_uplink_sink(UplinkSinkFn sink) { uplink_sink_ = std::move(sink); }

  /// Activates the §5.4 tamper-resilient monitor.
  void set_counter_check_handler(CounterCheckFn handler) {
    counter_check_ = std::move(handler);
  }

  /// Downlink packet from the SPGW for `imsi`.
  void downlink_submit(Imsi imsi, const sim::Packet& packet);

  /// Uplink packet from the UE's modem.
  void uplink_submit(Imsi imsi, const sim::Packet& packet);

  /// On-demand COUNTER CHECK (the operator issues one at each charging
  /// cycle boundary). Silently skipped when the UE is out of coverage —
  /// that inaccuracy is part of the Fig 18 error budget.
  void request_counter_check(Imsi imsi);

  /// Applies the §2.1 "unlimited plan" throttle: the subscriber keeps
  /// service but is rate-limited (e.g. 128 kbps once the OFCS reports
  /// the quota exceeded). 0 clears the limit. Applies per direction via
  /// a token bucket at the scheduler.
  void set_rate_limit(Imsi imsi, double bps);
  [[nodiscard]] double rate_limit(Imsi imsi) const;

  [[nodiscard]] bool rrc_connected(Imsi imsi) const;
  [[nodiscard]] bool has_ue(Imsi imsi) const {
    return ues_.find(imsi) != ues_.end();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Bytes currently queued for one UE on the downlink (all QCIs).
  [[nodiscard]] std::uint64_t dl_backlog(Imsi imsi) const;

 private:
  // QCI 3 / 7 / 9 -> queue index 0 / 1 / 2 (sim::qci_index).
  static constexpr std::size_t kQueues = 3;

  /// Index into a QueueSet's node pool; kNil ends a list.
  static constexpr std::uint32_t kNil = 0xffffffffu;
  // QueueSet::direction values, indexing UeCtx::fifos.
  static constexpr std::size_t kDownlink = 0;
  static constexpr std::size_t kUplink = 1;

  /// One UE's packets in one QCI queue, oldest first: a singly linked
  /// list through the QueueSet's node pool.
  struct UeFifo {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    /// Position in QueueSet::backlogged[q] while the list is non-empty.
    std::uint32_t heap_pos = 0;
  };

  struct UeCtx {
    Imsi imsi;
    RrcEndpoint* endpoint = nullptr;
    sim::RadioChannel* radio = nullptr;
    bool rrc_connected = false;
    SimTime last_activity = 0;
    // Quota throttle (token bucket; 0 bps = unlimited).
    double rate_limit_bps = 0.0;
    double tokens_bytes = 0.0;
    SimTime tokens_updated = 0;
    /// Queued packets, [direction][queue].
    std::array<std::array<UeFifo, kQueues>, 2> fifos{};
  };

  /// Token-bucket admission for a throttled UE; consumes on success.
  bool consume_rate_tokens(UeCtx& ue, std::uint32_t size_bytes);
  [[nodiscard]] bool rate_tokens_available(const UeCtx& ue,
                                           std::uint32_t size_bytes) const;

  struct Node {
    sim::Packet packet;
    /// Arrival order within the QueueSet: a QCI queue's shared FIFO
    /// order is ascending `seq` across its UEs' lists.
    std::uint64_t seq = 0;
    std::uint32_t next = kNil;
  };
  /// A backlogged UE in a queue's heap, keyed by its FIFO head's seq.
  struct HeapItem {
    std::uint64_t head_seq = 0;
    UeCtx* ue = nullptr;
  };
  /// One direction's queues. Per QCI queue: the byte count the drop-tail
  /// limit applies to, and a 4-ary min-heap on head seq of the UEs whose
  /// FIFO in that queue is non-empty. Seqs are unique, so the heap top
  /// is the shared FIFO's head.
  struct QueueSet {
    explicit QueueSet(std::size_t dir) : direction(dir) {}
    std::size_t direction;
    std::vector<Node> pool;
    std::uint32_t free_head = kNil;
    std::uint64_t next_seq = 0;
    std::array<std::vector<HeapItem>, kQueues> backlogged;
    std::array<std::uint64_t, kQueues> bytes{};
  };
  /// A queued packet: `node` in `ue`'s FIFO for queue `queue`, after
  /// `prev` (kNil when it is the head).
  struct Entry {
    UeCtx* ue = nullptr;
    std::size_t queue = 0;
    std::uint32_t node = kNil;
    std::uint32_t prev = kNil;
  };

  void touch_rrc(Imsi imsi, UeCtx& ue);
  void check_inactivity(Imsi imsi);
  void release_rrc(Imsi imsi, UeCtx& ue);
  void do_counter_check(Imsi imsi);

  bool enqueue(QueueSet& set, std::size_t q, UeCtx& ue,
               const sim::Packet& packet);
  /// Finds the first servable packet by strict priority: within a QCI
  /// queue, the lowest-`seq` packet whose UE is in coverage and whose
  /// token bucket admits it. Packets of UEs out of coverage stay
  /// queued. Empty when nothing can be served now.
  std::optional<Entry> pick(QueueSet& set);
  /// Oldest packet of queue `q` across its UEs (the shared FIFO head).
  std::optional<Entry> queue_head(QueueSet& set, std::size_t q);
  /// Unlinks the packet at `entry`, frees its node and returns it.
  sim::Packet take(QueueSet& set, const Entry& entry);
  void flush_ue(QueueSet& set, UeCtx& ue, std::uint64_t& flush_counter);
  [[nodiscard]] static bool has_backlog(const QueueSet& set);

  // Heap maintenance on QueueSet::backlogged[q]; each keeps the moved
  // UEs' UeFifo::heap_pos current.
  void heap_place(QueueSet& set, std::size_t q, std::uint32_t pos,
                  HeapItem item);
  void heap_sift_down(QueueSet& set, std::size_t q, std::uint32_t pos);
  void heap_sift_up(QueueSet& set, std::size_t q, std::uint32_t pos);
  void heap_erase(QueueSet& set, std::size_t q, std::uint32_t pos);

  void serve_dl();
  void serve_ul();

  sim::Simulator& sim_;
  EnodebParams params_;
  Rng rng_;
  /// Rehashing never moves an element, so the heaps' UeCtx pointers
  /// stay valid until remove_ue erases the (flushed) context.
  std::unordered_map<Imsi, UeCtx> ues_;
  QueueSet dl_{kDownlink};
  QueueSet ul_{kUplink};
  UplinkSinkFn uplink_sink_;
  CounterCheckFn counter_check_;
  Stats stats_;
  std::uint32_t next_rrc_transaction_ = 1;
  bool dl_serving_ = false;
  bool ul_serving_ = false;
  bool dl_retry_armed_ = false;
  bool ul_retry_armed_ = false;
};

}  // namespace tlc::epc
