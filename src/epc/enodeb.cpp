#include "epc/enodeb.hpp"

#include <algorithm>
#include <cassert>

#include "util/logging.hpp"

namespace tlc::epc {
namespace {

/// COUNTER CHECK request/response round trip over RRC.
constexpr SimTime kCounterCheckDelay = 20 * kMillisecond;

/// Children of heap position i are kArity * i + 1 ... kArity * i + kArity.
constexpr std::uint32_t kArity = 4;
/// pick's walk stack: it holds at most kArity - 1 waiting siblings per
/// level above the current one plus kArity children, 52 entries for the
/// 17 levels of a 4-ary heap with 2^32 entries.
constexpr std::size_t kWalkStack = 64;

}  // namespace

Expected<Bytes> RrcEndpoint::handle_rrc(const Bytes& wire) {
  auto check = RrcCounterCheck::decode(wire);
  if (!check) return Err(check.error());
  RrcCounterCheckResponse response;
  response.transaction_id = check->transaction_id;
  response.uplink_bytes = modem_tx_bytes();
  response.downlink_bytes = modem_rx_bytes();
  return response.encode();
}

EnodeB::EnodeB(sim::Simulator& sim, EnodebParams params, Rng rng)
    : sim_(sim), params_(params), rng_(rng) {}

void EnodeB::add_ue(Imsi imsi, RrcEndpoint* endpoint,
                    sim::RadioChannel* radio) {
  UeCtx& ue = ues_[imsi];
  ue.imsi = imsi;
  ue.endpoint = endpoint;
  ue.radio = radio;
  ue.last_activity = sim_.now();
}

void EnodeB::flush_ue(QueueSet& set, UeCtx& ue,
                      std::uint64_t& flush_counter) {
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (ue.fifos[set.direction][q].head != kNil) {
      take(set, Entry{&ue, q, ue.fifos[set.direction][q].head, kNil});
      ++flush_counter;
    }
  }
}

void EnodeB::remove_ue(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  flush_ue(dl_, it->second, stats_.dl_flushed);
  std::uint64_t ul_flushed = 0;
  flush_ue(ul_, it->second, ul_flushed);
  stats_.ul_queue_drops += ul_flushed;
  ues_.erase(it);
}

std::uint64_t EnodeB::dl_backlog(Imsi imsi) const {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return 0;
  std::uint64_t total = 0;
  for (const UeFifo& fifo : it->second.fifos[kDownlink]) {
    for (std::uint32_t n = fifo.head; n != kNil; n = dl_.pool[n].next) {
      total += dl_.pool[n].packet.size_bytes;
    }
  }
  return total;
}

void EnodeB::touch_rrc(Imsi imsi, UeCtx& ue) {
  ue.last_activity = sim_.now();
  if (!ue.rrc_connected) {
    ue.rrc_connected = true;
    ++stats_.rrc_setups;
    sim_.schedule_after(params_.rrc_inactivity_timeout,
                        [this, imsi] { check_inactivity(imsi); });
  }
}

void EnodeB::check_inactivity(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end() || !it->second.rrc_connected) return;
  UeCtx& ue = it->second;
  const SimTime idle = sim_.now() - ue.last_activity;
  if (idle >= params_.rrc_inactivity_timeout) {
    release_rrc(imsi, ue);
  } else {
    sim_.schedule_after(params_.rrc_inactivity_timeout - idle,
                        [this, imsi] { check_inactivity(imsi); });
  }
}

void EnodeB::release_rrc(Imsi imsi, UeCtx& ue) {
  // §5.4: before releasing the connection the base station queries the
  // device-received traffic with RRC COUNTER CHECK.
  if (counter_check_ && ue.radio->connected(sim_.now())) {
    do_counter_check(imsi);
  }
  ue.rrc_connected = false;
  ++stats_.rrc_releases;
  TLC_DEBUG("enodeb") << "RRC release for " << imsi.to_string() << " at "
                      << format_time(sim_.now());
}

void EnodeB::do_counter_check(Imsi imsi) {
  ++stats_.counter_checks;
  const std::uint32_t transaction = next_rrc_transaction_++;
  // The response returns after one RRC round trip; counters are read at
  // response time (the modem answers with its state when it replies).
  sim_.schedule_after(kCounterCheckDelay, [this, imsi, transaction] {
    auto it = ues_.find(imsi);
    if (it == ues_.end() || counter_check_ == nullptr) return;
    const RrcCounterCheck check{transaction};
    auto response_wire = it->second.endpoint->handle_rrc(check.encode());
    if (!response_wire) {
      TLC_WARN("enodeb") << "counter check failed: " << response_wire.error();
      return;
    }
    auto response = RrcCounterCheckResponse::decode(*response_wire);
    if (!response || response->transaction_id != transaction) {
      TLC_WARN("enodeb") << "counter check response invalid";
      return;
    }
    counter_check_(imsi, response->uplink_bytes, response->downlink_bytes,
                   sim_.now());
  });
}

void EnodeB::request_counter_check(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  if (!it->second.radio->connected(sim_.now())) return;  // unreachable
  do_counter_check(imsi);
}

bool EnodeB::rrc_connected(Imsi imsi) const {
  auto it = ues_.find(imsi);
  return it != ues_.end() && it->second.rrc_connected;
}

void EnodeB::set_rate_limit(Imsi imsi, double bps) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  it->second.rate_limit_bps = bps;
  it->second.tokens_bytes = 0.0;
  it->second.tokens_updated = sim_.now();
}

double EnodeB::rate_limit(Imsi imsi) const {
  auto it = ues_.find(imsi);
  return it == ues_.end() ? 0.0 : it->second.rate_limit_bps;
}

namespace {

/// Token bucket burst allowance: one second of the limited rate.
double bucket_cap(double bps) { return bps / 8.0; }

}  // namespace

bool EnodeB::rate_tokens_available(const UeCtx& ue,
                                   std::uint32_t size_bytes) const {
  if (ue.rate_limit_bps <= 0.0) return true;
  const double elapsed_s = to_seconds(sim_.now() - ue.tokens_updated);
  const double tokens = std::min(
      bucket_cap(ue.rate_limit_bps),
      ue.tokens_bytes + ue.rate_limit_bps / 8.0 * elapsed_s);
  return tokens >= static_cast<double>(size_bytes);
}

bool EnodeB::consume_rate_tokens(UeCtx& ue, std::uint32_t size_bytes) {
  if (ue.rate_limit_bps <= 0.0) return true;
  const SimTime now = sim_.now();
  const double elapsed_s = to_seconds(now - ue.tokens_updated);
  ue.tokens_bytes = std::min(
      bucket_cap(ue.rate_limit_bps),
      ue.tokens_bytes + ue.rate_limit_bps / 8.0 * elapsed_s);
  ue.tokens_updated = now;
  if (ue.tokens_bytes < static_cast<double>(size_bytes)) return false;
  ue.tokens_bytes -= static_cast<double>(size_bytes);
  return true;
}

bool EnodeB::enqueue(QueueSet& set, std::size_t q, UeCtx& ue,
                     const sim::Packet& packet) {
  if (set.bytes[q] + packet.size_bytes > params_.queue_limit_bytes) {
    return false;
  }
  std::uint32_t node = set.free_head;
  if (node != kNil) {
    set.free_head = set.pool[node].next;
  } else {
    node = static_cast<std::uint32_t>(set.pool.size());
    set.pool.emplace_back();
  }
  const std::uint64_t seq = set.next_seq++;
  set.pool[node] = Node{packet, seq, kNil};
  UeFifo& fifo = ue.fifos[set.direction][q];
  if (fifo.head == kNil) {
    // The newest seq in the set is above every queued head, so the UE
    // joins at the heap's end and needs no sift.
    auto& heap = set.backlogged[q];
    const auto pos = static_cast<std::uint32_t>(heap.size());
    assert(pos == 0 || heap[(pos - 1) / kArity].head_seq < seq);
    fifo.head = node;
    fifo.heap_pos = pos;
    heap.push_back(HeapItem{seq, &ue});
  } else {
    set.pool[fifo.tail].next = node;
  }
  fifo.tail = node;
  set.bytes[q] += packet.size_bytes;
  return true;
}

void EnodeB::heap_place(QueueSet& set, std::size_t q, std::uint32_t pos,
                        HeapItem item) {
  item.ue->fifos[set.direction][q].heap_pos = pos;
  set.backlogged[q][pos] = item;
}

void EnodeB::heap_sift_down(QueueSet& set, std::size_t q,
                            std::uint32_t pos) {
  auto& heap = set.backlogged[q];
  const auto size = static_cast<std::uint32_t>(heap.size());
  const HeapItem item = heap[pos];
  for (;;) {
    const std::uint32_t first = kArity * pos + 1;
    if (first >= size) break;
    const std::uint32_t last = std::min(first + kArity, size);
    std::uint32_t least = first;
    for (std::uint32_t c = first + 1; c < last; ++c) {
      if (heap[c].head_seq < heap[least].head_seq) least = c;
    }
    if (heap[least].head_seq > item.head_seq) break;
    heap_place(set, q, pos, heap[least]);
    pos = least;
  }
  heap_place(set, q, pos, item);
}

void EnodeB::heap_sift_up(QueueSet& set, std::size_t q, std::uint32_t pos) {
  auto& heap = set.backlogged[q];
  const HeapItem item = heap[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / kArity;
    if (heap[parent].head_seq < item.head_seq) break;
    heap_place(set, q, pos, heap[parent]);
    pos = parent;
  }
  heap_place(set, q, pos, item);
}

void EnodeB::heap_erase(QueueSet& set, std::size_t q, std::uint32_t pos) {
  auto& heap = set.backlogged[q];
  const HeapItem moved = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;
  heap_place(set, q, pos, moved);
  heap_sift_up(set, q, pos);
  heap_sift_down(set, q, moved.ue->fifos[set.direction][q].heap_pos);
}

sim::Packet EnodeB::take(QueueSet& set, const Entry& entry) {
  UeFifo& fifo = entry.ue->fifos[set.direction][entry.queue];
  Node& node = set.pool[entry.node];
  if (entry.prev == kNil) {
    fifo.head = node.next;
  } else {
    set.pool[entry.prev].next = node.next;
  }
  if (fifo.tail == entry.node) fifo.tail = entry.prev;
  node.next = set.free_head;
  set.free_head = entry.node;
  set.bytes[entry.queue] -= node.packet.size_bytes;

  if (fifo.head == kNil) {
    heap_erase(set, entry.queue, fifo.heap_pos);
  } else if (entry.prev == kNil) {
    // The UE's head moved back in the shared order.
    set.backlogged[entry.queue][fifo.heap_pos].head_seq =
        set.pool[fifo.head].seq;
    heap_sift_down(set, entry.queue, fifo.heap_pos);
  }
  return node.packet;
}

bool EnodeB::has_backlog(const QueueSet& set) {
  return std::any_of(set.backlogged.begin(), set.backlogged.end(),
                     [](const auto& heap) { return !heap.empty(); });
}

void EnodeB::downlink_submit(Imsi imsi, const sim::Packet& packet) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) {
    return;  // no context (detached): dies here, uncharged downstream
  }
  const std::size_t q = sim::qci_index(packet.qci);
  if (!enqueue(dl_, q, it->second, packet)) {
    ++stats_.dl_queue_drops;
    return;
  }
  if (!dl_serving_) serve_dl();
}

void EnodeB::uplink_submit(Imsi imsi, const sim::Packet& packet) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  touch_rrc(imsi, it->second);
  const std::size_t q = sim::qci_index(packet.qci);
  if (!enqueue(ul_, q, it->second, packet)) {
    ++stats_.ul_queue_drops;
    return;
  }
  if (!ul_serving_) serve_ul();
}

std::optional<EnodeB::Entry> EnodeB::pick(QueueSet& set) {
  // Each backlogged UE offers its oldest packet the token bucket admits
  // (a throttled UE's smaller packet can pass its own too-large head);
  // the lowest seq among in-coverage UEs is the packet a scan of the
  // shared FIFO would reach first. The walk starts at the heap root and
  // skips every subtree whose root head is above the best seq found:
  // a UE offers no packet below its head, and its heap descendants'
  // heads are above its own. A UE that offers its head ends its
  // subtree the same way. connected(now) is asked at most once per UE:
  // the radio's state at `now` does not depend on whether it is asked.
  const SimTime now = sim_.now();
  for (std::size_t q = 0; q < kQueues; ++q) {
    const auto& heap = set.backlogged[q];
    const auto size = static_cast<std::uint32_t>(heap.size());
    if (size == 0) continue;
    std::optional<Entry> best;
    std::uint64_t best_seq = 0;
    std::array<std::uint32_t, kWalkStack> stack;
    std::size_t depth = 0;
    stack[depth++] = 0;
    while (depth > 0) {
      const std::uint32_t pos = stack[--depth];
      const HeapItem& item = heap[pos];
      if (best && item.head_seq > best_seq) continue;
      UeCtx* ue = item.ue;
      bool offers_head = false;
      if (ue->radio->connected(now)) {
        std::uint32_t prev = kNil;
        for (std::uint32_t n = ue->fifos[set.direction][q].head; n != kNil;
             prev = n, n = set.pool[n].next) {
          const Node& node = set.pool[n];
          if (best && node.seq > best_seq) break;
          if (rate_tokens_available(*ue, node.packet.size_bytes)) {
            best = Entry{ue, q, n, prev};
            best_seq = node.seq;
            offers_head = prev == kNil;
            break;
          }
        }
      }
      if (offers_head) continue;
      const std::uint32_t first = kArity * pos + 1;
      const std::uint32_t last = std::min(first + kArity, size);
      for (std::uint32_t c = last; c > first;) stack[depth++] = --c;
    }
    if (best) return best;
  }
  return std::nullopt;
}

std::optional<EnodeB::Entry> EnodeB::queue_head(QueueSet& set,
                                               std::size_t q) {
  const auto& heap = set.backlogged[q];
  if (heap.empty()) return std::nullopt;
  UeCtx* ue = heap.front().ue;
  return Entry{ue, q, ue->fifos[set.direction][q].head, kNil};
}

void EnodeB::serve_dl() {
  // Delay-budget discard before service: stale head-of-line packets
  // (typically buffered through an outage) are dropped, not delivered.
  if (params_.pdb_discard_factor > 0.0) {
    for (std::size_t q = 0; q < kQueues; ++q) {
      while (const auto head = queue_head(dl_, q)) {
        const sim::Packet& packet = dl_.pool[head->node].packet;
        const auto budget = static_cast<SimTime>(
            params_.pdb_discard_factor *
            static_cast<double>(sim::qci_delay_budget(packet.qci)));
        if (sim_.now() - packet.created_at <= budget) break;
        take(dl_, *head);
        ++stats_.dl_pdb_drops;
      }
    }
  }

  const auto picked = pick(dl_);
  if (!picked) {
    dl_serving_ = false;
    // Traffic may be waiting for a UE out of coverage: poll again while
    // any DL queue is non-empty.
    if (has_backlog(dl_) && !dl_retry_armed_) {
      dl_retry_armed_ = true;
      sim_.schedule_after(params_.blocked_retry, [this] {
        dl_retry_armed_ = false;
        if (!dl_serving_) serve_dl();
      });
    }
    return;
  }

  dl_serving_ = true;
  const Imsi imsi = picked->ue->imsi;
  const sim::Packet packet = take(dl_, *picked);
  consume_rate_tokens(*picked->ue, packet.size_bytes);

  const double tx_seconds =
      static_cast<double>(packet.size_bytes) * 8.0 / params_.dl_capacity_bps;
  sim_.schedule_after(from_seconds(tx_seconds), [this, imsi, packet] {
    auto it = ues_.find(imsi);
    if (it != ues_.end()) {
      UeCtx& target = it->second;
      const double loss = target.radio->packet_loss_probability(sim_.now());
      if (rng_.chance(loss)) {
        ++stats_.dl_air_drops;
      } else {
        ++stats_.dl_delivered;
        touch_rrc(imsi, target);
        target.endpoint->modem_deliver(packet);
      }
    }
    dl_serving_ = false;
    serve_dl();
  });
}

void EnodeB::serve_ul() {
  const auto picked = pick(ul_);
  if (!picked) {
    ul_serving_ = false;
    if (has_backlog(ul_) && !ul_retry_armed_) {
      ul_retry_armed_ = true;
      sim_.schedule_after(params_.blocked_retry, [this] {
        ul_retry_armed_ = false;
        if (!ul_serving_) serve_ul();
      });
    }
    return;
  }

  ul_serving_ = true;
  const Imsi imsi = picked->ue->imsi;
  const sim::Packet packet = take(ul_, *picked);
  consume_rate_tokens(*picked->ue, packet.size_bytes);

  const double tx_seconds =
      static_cast<double>(packet.size_bytes) * 8.0 / params_.ul_capacity_bps;
  sim_.schedule_after(from_seconds(tx_seconds), [this, imsi, packet] {
    auto it = ues_.find(imsi);
    if (it != ues_.end()) {
      UeCtx& source = it->second;
      const double loss = source.radio->packet_loss_probability(sim_.now());
      if (rng_.chance(loss)) {
        ++stats_.ul_air_drops;
      } else {
        ++stats_.ul_delivered;
        if (uplink_sink_) uplink_sink_(imsi, packet);
      }
    }
    ul_serving_ = false;
    serve_ul();
  });
}

}  // namespace tlc::epc
