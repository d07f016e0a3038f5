#include "workloads/trace.hpp"

#include <algorithm>
#include <fstream>

#include "crypto/hmac.hpp"
#include "util/serde.hpp"

namespace tlc::workloads {
namespace {

constexpr std::uint32_t kTraceMagic = 0x544c4354;  // "TLCT"

Bytes integrity_key() { return bytes_of("tlc-trace-integrity-v1"); }

}  // namespace

std::uint64_t Trace::total_bytes() const {
  std::uint64_t total = 0;
  for (const TraceEntry& e : entries) total += e.size_bytes;
  return total;
}

SimTime Trace::duration() const {
  return entries.empty() ? 0 : entries.back().offset;
}

// tlclint: codec(workload_trace, encode)
Bytes Trace::serialize() const {
  ByteWriter w;
  w.u32(kTraceMagic);
  w.str(description);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const TraceEntry& e : entries) {
    w.i64(e.offset);
    w.u32(e.size_bytes);
    w.u8(static_cast<std::uint8_t>(e.direction));
    w.u8(static_cast<std::uint8_t>(e.qci));
  }
  Bytes body = w.take();
  const Bytes tag = crypto::hmac_sha256(integrity_key(), body);
  append(body, tag);
  return body;
}

// tlclint: codec(workload_trace, decode)
Expected<Trace> Trace::deserialize(const Bytes& data) {
  if (data.size() < 32) return Err("trace: too short");
  const Bytes body(data.begin(), data.end() - 32);
  const Bytes tag(data.end() - 32, data.end());
  if (!constant_time_equal(tag, crypto::hmac_sha256(integrity_key(), body))) {
    return Err("trace: integrity tag mismatch");
  }
  ByteReader r(body);
  if (r.u32() != kTraceMagic) r.fail("trace: bad magic");
  Trace trace;
  trace.description = r.str();
  constexpr std::size_t kMinEntrySize = 8 + 4 + 1 + 1;
  trace.entries.resize(r.count(kMinEntrySize));
  for (TraceEntry& entry : trace.entries) {
    entry.offset = r.i64();
    entry.size_bytes = r.u32();
    const std::uint8_t direction = r.u8();
    if (direction > 1) r.fail("trace: bad direction");
    entry.direction = static_cast<sim::Direction>(direction);
    const auto qci = static_cast<sim::Qci>(r.u8());
    if (qci != sim::Qci::kQci3 && qci != sim::Qci::kQci7 &&
        qci != sim::Qci::kQci9) {
      r.fail("trace: unknown qci");
    }
    entry.qci = qci;
  }
  if (!r.ok()) return r.error_or("trace: truncated");
  if (!r.exhausted()) return Err("trace: trailing bytes");
  return trace;
}

Status Trace::save(const std::string& path) const {
  const Bytes data = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Err("trace: cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return Err("trace: write failed for " + path);
  return Status::Ok();
}

Expected<Trace> Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Err("trace: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Err("trace: read failed for " + path);
  return deserialize(data);
}

TraceRecorder::TraceRecorder(std::string description) {
  trace_.description = std::move(description);
}

TrafficSource::EmitFn TraceRecorder::tap(TrafficSource::EmitFn downstream) {
  return [this, downstream = std::move(downstream)](const sim::Packet& p) {
    if (first_at_ < 0) first_at_ = p.created_at;
    trace_.entries.push_back(
        TraceEntry{p.created_at - first_at_, p.size_bytes, p.direction, p.qci});
    if (downstream) downstream(p);
  };
}

std::uint64_t TraceReplaySource::next_packet_id_ = 1u << 30;

TraceReplaySource::TraceReplaySource(sim::Simulator& sim, EmitFn emit,
                                     std::uint32_t flow_id, Trace trace,
                                     bool loop)
    : sim_(sim),
      emit_fn_(std::move(emit)),
      flow_id_(flow_id),
      trace_(std::move(trace)),
      loop_(loop) {}

void TraceReplaySource::start(SimTime at) {
  if (trace_.entries.empty()) return;
  running_ = true;
  started_at_ = at;
  next_ = 0;
  sim_.schedule_at(at + trace_.entries.front().offset,
                   [this] { emit_next(); });
}

void TraceReplaySource::emit_next() {
  if (!running_ || next_ >= trace_.entries.size()) return;
  const TraceEntry& entry = trace_.entries[next_++];
  sim::Packet packet;
  packet.id = next_packet_id_++;
  packet.flow_id = flow_id_;
  packet.size_bytes = entry.size_bytes;
  packet.direction = entry.direction;
  packet.qci = entry.qci;
  packet.created_at = sim_.now();
  ++packets_;
  bytes_ += entry.size_bytes;
  emit_fn_(packet);
  if (next_ < trace_.entries.size()) {
    sim_.schedule_at(started_at_ + trace_.entries[next_].offset,
                     [this] { emit_next(); });
  } else if (loop_) {
    // Rebase and restart (one mean inter-packet gap between loops so a
    // single-packet trace cannot spin the simulator).
    const SimTime gap = std::max<SimTime>(
        kMillisecond,
        trace_.duration() /
            static_cast<SimTime>(std::max<std::size_t>(
                trace_.entries.size() - 1, 1)));
    next_ = 0;
    started_at_ = sim_.now() + gap - trace_.entries.front().offset;
    sim_.schedule_at(started_at_ + trace_.entries.front().offset,
                     [this] { emit_next(); });
  }
}

}  // namespace tlc::workloads
