#include "workloads/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "crypto/hmac.hpp"
#include "workloads/gaming.hpp"

namespace tlc::workloads {
namespace {

Trace sample_trace() {
  Trace trace;
  trace.description = "unit-test trace";
  trace.entries = {
      TraceEntry{0, 100, sim::Direction::Downlink, sim::Qci::kQci7},
      TraceEntry{10 * kMillisecond, 200, sim::Direction::Downlink,
                 sim::Qci::kQci7},
      TraceEntry{25 * kMillisecond, 1400, sim::Direction::Uplink,
                 sim::Qci::kQci9},
  };
  return trace;
}

TEST(TraceTest, Aggregates) {
  const Trace trace = sample_trace();
  EXPECT_EQ(trace.total_bytes(), 1700u);
  EXPECT_EQ(trace.duration(), 25 * kMillisecond);
  EXPECT_EQ(Trace{}.duration(), 0);
}

TEST(TraceTest, SerializeRoundTrip) {
  const Trace trace = sample_trace();
  auto back = Trace::deserialize(trace.serialize());
  ASSERT_TRUE(back);
  EXPECT_EQ(back->description, trace.description);
  EXPECT_EQ(back->entries, trace.entries);
}

TEST(TraceTest, CorruptionDetected) {
  Bytes data = sample_trace().serialize();
  data[data.size() / 2] ^= 0x01;
  auto result = Trace::deserialize(data);
  ASSERT_FALSE(result);
  EXPECT_NE(result.error().find("integrity"), std::string::npos);
}

TEST(TraceTest, TruncationDetected) {
  Bytes data = sample_trace().serialize();
  data.resize(data.size() - 5);
  EXPECT_FALSE(Trace::deserialize(data));
  EXPECT_FALSE(Trace::deserialize(Bytes(10, 0)));
}

TEST(TraceTest, EntryCountPastTheBytesIsATypedError) {
  // The integrity key is public, so anyone can re-tag a trace. An empty
  // trace whose entry count reads 0xffffffff once sized a reserve of
  // four billion entries and threw std::bad_alloc.
  Trace empty;
  empty.description = "forged";
  const Bytes valid = empty.serialize();
  Bytes body(valid.begin(), valid.end() - 32);
  // magic, then the description's length and text, then the count.
  const std::size_t count_at = 4 + 4 + empty.description.size();
  ASSERT_EQ(body.size(), count_at + 4);
  for (std::size_t i = 0; i < 4; ++i) body[count_at + i] = 0xff;
  append(body, crypto::hmac_sha256(bytes_of("tlc-trace-integrity-v1"), body));

  const auto result = Trace::deserialize(body);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().rfind("trace: ", 0), 0u) << result.error();
  ASSERT_TRUE(Trace::deserialize(valid));
}

TEST(TraceTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tlc_trace_test.bin";
  const Trace trace = sample_trace();
  ASSERT_TRUE(trace.save(path).ok());
  auto back = Trace::load(path);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->entries, trace.entries);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadMissingFileFails) {
  EXPECT_FALSE(Trace::load("/nonexistent/trace.bin"));
}

TEST(TraceTest, RecorderCapturesStream) {
  // Record a gaming stream (the paper records King of Glory with
  // tcpdump), then verify structure.
  sim::Simulator sim;
  TraceRecorder recorder("gaming capture");
  int downstream = 0;
  auto sink = recorder.tap(
      [&](const sim::Packet&) { ++downstream; });
  GamingSource source(sim, sink, 1, sim::Direction::Downlink,
                      sim::Qci::kQci7, GamingParams{}, Rng(1));
  source.start(kSecond);
  sim.run_until(11 * kSecond);
  source.stop();

  const Trace& trace = recorder.trace();
  EXPECT_EQ(trace.entries.size(), static_cast<std::size_t>(downstream));
  EXPECT_NEAR(static_cast<double>(trace.entries.size()), 300.0, 5.0);
  // Offsets are relative to the first packet.
  EXPECT_EQ(trace.entries.front().offset, 0);
  EXPECT_LE(trace.duration(), 10 * kSecond + kMillisecond);
}

TEST(TraceTest, ReplayPreservesTimingAndContent) {
  // Record, then replay, then compare packet-by-packet (the §7.1
  // tcprelay workflow).
  sim::Simulator record_sim;
  TraceRecorder recorder("replay-source");
  auto sink = recorder.tap(nullptr);
  GamingSource source(record_sim, sink, 1, sim::Direction::Downlink,
                      sim::Qci::kQci7, GamingParams{}, Rng(2));
  source.start(0);
  record_sim.run_until(5 * kSecond);
  source.stop();
  const Trace trace = recorder.trace();
  ASSERT_GT(trace.entries.size(), 100u);

  sim::Simulator replay_sim;
  std::vector<sim::Packet> replayed;
  TraceReplaySource replay(
      replay_sim, [&](const sim::Packet& p) { replayed.push_back(p); }, 9,
      trace);
  replay.start(kSecond);  // replay begins at t=1 s
  replay_sim.run_until(10 * kSecond);

  ASSERT_EQ(replayed.size(), trace.entries.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].size_bytes, trace.entries[i].size_bytes);
    EXPECT_EQ(replayed[i].created_at, kSecond + trace.entries[i].offset);
    EXPECT_EQ(replayed[i].qci, trace.entries[i].qci);
    EXPECT_EQ(replayed[i].flow_id, 9u);
  }
}

TEST(TraceTest, ReplayStopHalts) {
  Trace trace = sample_trace();
  trace.entries.push_back(
      TraceEntry{10 * kSecond, 100, sim::Direction::Downlink,
                 sim::Qci::kQci9});
  sim::Simulator sim;
  int emitted = 0;
  TraceReplaySource replay(
      sim, [&](const sim::Packet&) { ++emitted; }, 1, trace);
  replay.start(0);
  sim.run_until(kSecond);
  replay.stop();
  sim.run_until(kMinute);
  EXPECT_EQ(emitted, 3);  // the 10 s entry never fires
}

TEST(TraceTest, EmptyTraceReplaySafe) {
  sim::Simulator sim;
  TraceReplaySource replay(sim, [](const sim::Packet&) {}, 1, Trace{});
  replay.start(0);
  sim.run();
  SUCCEED();
}

}  // namespace
}  // namespace tlc::workloads
