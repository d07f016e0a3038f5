#include "traced.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>

#include "core/batch_settlement.hpp"
#include "fleet/engine_detail.hpp"
#include "fleet/shard.hpp"
#include "probes.hpp"
#include "summary.hpp"
#include "transport/coded_session.hpp"
#include "transport/lossy_settlement.hpp"

namespace tlc::bench {

void TraceLog::span(std::string name, double start, double end,
                    Json::Object args) {
  spans_.push_back(Span{std::move(name), start, end, std::move(args)});
}

Status TraceLog::write(const std::string& path) const {
  double origin = 0.0;
  for (const Span& span : spans_) {
    origin = origin == 0.0 ? span.start : std::min(origin, span.start);
  }
  Json events = Json::Array{};
  for (const Span& span : spans_) {
    Json event = Json::Object{};
    event.set("name", span.name);
    event.set("cat", "tlc");
    event.set("ph", "X");
    event.set("ts", (span.start - origin) * 1e6);
    event.set("dur", (span.end - span.start) * 1e6);
    event.set("pid", 1.0);
    event.set("tid", 1.0);
    event.set("args", span.args);
    events.push(std::move(event));
  }
  Json doc = Json::Object{};
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.dump() << '\n';
  if (!out.flush()) return Err("cannot write trace " + path);
  return Status::Ok();
}

TracedPass run_traced(const fleet::FleetConfig& config, TraceLog* log) {
  const auto record = [log](std::string name, double start, double end,
                            Json::Object args = {}) {
    if (log != nullptr) log->span(std::move(name), start, end, std::move(args));
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  TracedPass pass;
  fleet::FleetResult& result = pass.result;
  const double pass_start = wall_now();

  double t0 = wall_now();
  const core::RsaKeyCache keys(config.rsa_bits, config.key_cache_slots,
                               fleet::detail::key_cache_seed(config));
  const double keygen_s = wall_now() - t0;
  record("keygen", t0, t0 + keygen_s,
         {{"bits", count(config.rsa_bits)},
          {"slots", count(config.key_cache_slots)}});
  const core::BatchConfig batch = fleet::detail::make_batch_config(config);
  const bool coded = config.transport.coding == transport::Coding::Rlnc;

  double build_s = 0.0, teardown_s = 0.0, gap_s = 0.0, merge_s = 0.0;
  double settle_s = 0.0, transport_s = 0.0, reference_s = 0.0;
  double path_total_s = 0.0, path_fallback_s = 0.0;
  std::vector<double> shard_runs;
  std::uint64_t events = 0, delivered = 0, dropped = 0;
  std::uint64_t rounds = 0, completed = 0, fallbacks = 0;

  for (const fleet::detail::ShardSlice& slice :
       fleet::detail::partition_shards(config)) {
    const std::string shard = "shard[" + std::to_string(slice.shard_index) + "]";
    t0 = wall_now();
    auto world = std::make_unique<fleet::FleetShard>(
        config, slice.shard_index, slice.first_ue, slice.ue_count);
    const double t1 = wall_now();
    std::vector<fleet::UeRecord> records = world->run();
    const double t2 = wall_now();
    const std::uint64_t shard_events = world->simulator().executed();
    const epc::EnodeB::Stats& stats = world->enodeb().stats();
    const std::uint64_t shard_delivered = stats.dl_delivered + stats.ul_delivered;
    const std::uint64_t shard_dropped =
        stats.dl_queue_drops + stats.dl_air_drops + stats.dl_pdb_drops +
        stats.dl_flushed + stats.ul_queue_drops + stats.ul_air_drops;
    world.reset();
    const double t3 = wall_now();
    build_s += t1 - t0;
    shard_runs.push_back(t2 - t1);
    teardown_s += t3 - t2;
    events += shard_events;
    delivered += shard_delivered;
    dropped += shard_dropped;
    record(shard + ".build", t0, t1, {{"ues", count(slice.ue_count)}});
    record(shard + ".run", t1, t2,
           {{"events", count(shard_events)},
            {"pkts_delivered", count(shard_delivered)},
            {"pkts_dropped", count(shard_dropped)}});
    record(shard + ".teardown", t2, t3);

    t0 = wall_now();
    std::map<testbed::Scheme, Samples> gap_samples;
    fleet::detail::collect_gap_samples(records, gap_samples);
    const double t4 = wall_now();
    gap_s += t4 - t0;
    record(shard + ".gap_eval", t0, t4);

    t0 = wall_now();
    const std::vector<core::SettlementItem> items =
        fleet::detail::settlement_items(records, config);
    merge_s += wall_now() - t0;

    // One settle call per UE: receipts are pure per-UE functions, so
    // this changes no output and times each UE separately.
    std::vector<core::SettlementReceipt> receipts;
    receipts.reserve(items.size());
    for (std::size_t begin = 0; begin < items.size();) {
      std::size_t end = begin;
      while (end < items.size() && items[end].ue_id == items[begin].ue_id) ++end;
      const std::vector<core::SettlementItem> ue_items(
          items.begin() + static_cast<std::ptrdiff_t>(begin),
          items.begin() + static_cast<std::ptrdiff_t>(end));
      const std::string ue = std::to_string(items[begin].ue_id);

      t0 = wall_now();
      std::vector<core::SettlementReceipt> ue_receipts =
          core::BatchSettler(batch, keys).settle(ue_items, 1);
      const double t5 = wall_now();
      settle_s += t5 - t0;
      double path_s = t5 - t0;
      pass.settle_ms_per_ue_cycle.push_back(
          (t5 - t0) * 1e3 / static_cast<double>(ue_items.size()));
      record("settle[" + ue + "]", t0, t5, {{"cycles", count(ue_items.size())}});

      if (config.lossy_transport) {
        // The in-process call above is only the reference the transport
        // cost is measured against; run_fleet keeps these receipts.
        t0 = wall_now();
        transport::LossyBatchReport report =
            coded ? transport::CodedSettler(batch, config.transport, keys)
                        .settle(ue_items, 1)
                  : transport::LossySettler(batch, config.transport, keys)
                        .settle(ue_items, 1);
        const double t6 = wall_now();
        reference_s += path_s;
        transport_s += (t6 - t0) - path_s;
        path_s = t6 - t0;
        result.coded_totals += report.coded;
        ue_receipts = std::move(report.receipts);
        record("transport[" + ue + "]", t0, t6,
               {{"packets_sent", count(report.coded.packets_sent)},
                {"ladder_fallbacks", count(report.coded.fallbacks)}});
      }

      bool fell_back = false;
      for (const core::SettlementReceipt& receipt : ue_receipts) {
        if (receipt.completed) {
          rounds += static_cast<std::uint64_t>(receipt.rounds);
          ++completed;
        } else {
          ++fallbacks;
          fell_back = true;
        }
      }
      path_total_s += path_s;
      if (fell_back) path_fallback_s += path_s;
      std::move(ue_receipts.begin(), ue_receipts.end(),
                std::back_inserter(receipts));
      begin = end;
    }

    // Merge in shard order, as run_fleet does after its pool drains.
    t0 = wall_now();
    std::move(records.begin(), records.end(), std::back_inserter(result.records));
    std::move(receipts.begin(), receipts.end(),
              std::back_inserter(result.receipts));
    for (const auto& [scheme, samples] : gap_samples) {
      result.gap_samples[scheme].add_all(samples.values());
    }
    merge_s += wall_now() - t0;
  }

  t0 = wall_now();
  epc::Ofcs ofcs(fleet::detail::fleet_plan(config));
  fleet::detail::aggregate_fleet(config, ofcs, result, nullptr);
  const double aggregate_s = wall_now() - t0;
  record("aggregate", t0, t0 + aggregate_s,
         {{"cdrs", count(result.receipts.size())},
          {"batches_sealed", count(result.ingest_batches.size())}});

  t0 = wall_now();
  fleet::detail::compute_digests(result);
  const double digest_s = wall_now() - t0;
  record("digest", t0, t0 + digest_s);

  const double wall = wall_now() - pass_start - reference_s;
  double run_s = 0.0;
  for (const double s : shard_runs) run_s += s;
  const double parts = keygen_s + build_s + run_s + teardown_s + gap_s +
                       merge_s + settle_s + transport_s + aggregate_s +
                       digest_s;
  const auto ue_cycles = static_cast<double>(result.receipts.size());
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const transport::CodedCounters& coded_totals = result.coded_totals;
  const Summary runs = summarize(shard_runs);

  std::map<std::string, double>& m = pass.metrics;
  m["fleet.traced_wall_s"] = wall;
  m["fleet.keygen_s"] = keygen_s;
  m["fleet.shard_build_s"] = build_s;
  m["fleet.shard_run_p50_s"] = runs.median;
  m["fleet.shard_run_max_s"] =
      shard_runs.empty() ? 0.0
                         : *std::max_element(shard_runs.begin(), shard_runs.end());
  m["fleet.shard_teardown_s"] = teardown_s;
  m["fleet.merge_s"] = merge_s;
  m["fleet.digest_s"] = digest_s;
  m["fleet.unattributed_s"] = wall - parts;
  m["sim.run_s"] = run_s;
  m["sim.events"] = count(events);
  m["sim.events_per_ue_cycle"] = ratio(count(events), ue_cycles);
  m["sim.ns_per_event"] = ratio(run_s * 1e9, count(events));
  m["epc.pkts_delivered"] = count(delivered);
  m["epc.drop_ratio"] = ratio(count(dropped), count(delivered + dropped));
  m["testbed.gap_eval_s"] = gap_s;
  m["core.settle_s"] = settle_s;
  m["core.rounds_mean"] = ratio(count(rounds), count(completed));
  m["core.fallback_cycles"] = count(fallbacks);
  m["core.fallback_settle_share"] = ratio(path_fallback_s, path_total_s);
  m["transport.s"] = transport_s;
  m["transport.packets_per_ue_cycle"] =
      ratio(count(coded_totals.packets_sent), ue_cycles);
  m["transport.innovative_ratio"] =
      ratio(count(coded_totals.packets_delivered - coded_totals.packets_dependent),
            count(coded_totals.packets_sent));
  m["transport.corrupt_rejects"] = count(coded_totals.packets_corrupt);
  m["transport.ladder_fallbacks"] = count(coded_totals.fallbacks);
  m["transport.bytes_on_wire"] = count(coded_totals.bytes_on_wire);
  m["ofcs.aggregate_s"] = aggregate_s;
  m["ofcs.us_per_cdr"] = ratio(aggregate_s * 1e6, ue_cycles);
  m["ingest.batches_sealed"] = count(result.ingest_batches.size());
  m["trace.attributed_ratio"] = ratio(parts, wall);
  return pass;
}

}  // namespace tlc::bench
