// tlc_bench: the fleet benchmark (README.md).
//
// A closed loop with one client: each `fleet::run_fleet` call is one
// batch job that turns three charging cycles of fleet traffic into
// verified PoCs and bills, and the next job starts when it returns.
// End-to-end metrics come only from those untraced calls; a separate
// traced pass (traced.hpp) gives the per-layer numbers.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "compare.hpp"
#include "core/batch_settlement.hpp"
#include "fleet/engine.hpp"
#include "fleet/engine_detail.hpp"
#include "json.hpp"
#include "metrics.hpp"
#include "probes.hpp"
#include "summary.hpp"
#include "traced.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace tlc::bench {
namespace {

// Rounds of the full protocol; each runs every workload once.
constexpr int kRounds = 7;
// Key-material builds per workload; setup_s is their median.
constexpr int kSetupBuilds = 5;
// Fewest samples a time-bounded (--seconds) run reports.
constexpr std::size_t kMinSamples = 3;

struct Options {
  std::uint64_t seed = 1;
  std::string json_path;
  std::string trace_path;
  std::string compare;
  std::string workload;
  double seconds = 0.0;
  bool smoke = false;
  bool layers = false;
};

constexpr const char* kUsage =
    "usage: tlc_bench [--seed=N] [--json=PATH] [--trace=PATH] [--smoke]\n"
    "       tlc_bench --workload=NAME --seconds=S [--layers] [--seed=N]\n"
    "                 [--json=PATH] [--trace=PATH]\n"
    "       tlc_bench --compare=BASE.json,CHANGE.json\n";

std::optional<Options> parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string value =
        eq == std::string_view::npos ? "" : std::string(arg.substr(eq + 1));
    char* end = nullptr;
    if (key == "--seed" && !value.empty()) {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (key == "--seconds" && !value.empty()) {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return std::nullopt;
    } else if (key == "--json" && !value.empty()) {
      options.json_path = value;
    } else if (key == "--trace" && !value.empty()) {
      options.trace_path = value;
    } else if (key == "--compare" && !value.empty()) {
      options.compare = value;
    } else if (key == "--workload" && !value.empty()) {
      if (find_workload(value) == nullptr) return std::nullopt;
      options.workload = value;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--layers") {
      options.layers = true;
    } else {
      return std::nullopt;
    }
  }
  // A time budget applies to one workload; the full protocol has fixed
  // rounds.
  if ((options.seconds > 0.0) != !options.workload.empty()) return std::nullopt;
  if (options.smoke && options.seconds > 0.0) return std::nullopt;
  return options;
}

/// One workload's state across the protocol.
struct Run {
  const Workload* workload = nullptr;
  fleet::FleetConfig config;
  std::uint64_t ue_cycles = 0;

  std::vector<double> setup_s;
  std::unique_ptr<core::RsaKeyCache> keys;
  crypto::RsaKeyPair ingest_key;

  Digests reference;
  double legacy_fallback_ratio = 0.0;
  double wire_bytes_per_ue_cycle = 0.0;
  std::uint64_t failed_per_job = 0;  // UE-cycles a job's outputs fail

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> rss_mb;
  std::vector<std::map<std::string, double>> passes;
  std::vector<double> settle_ms;

  std::uint64_t jobs = 0;
  std::uint64_t mismatched_jobs = 0;
  std::vector<std::string> errors;
};

std::string digest_list(const Digests& digests) {
  std::string out;
  for (std::size_t i = 0; i < digests.hex.size(); ++i) {
    out += std::string(i == 0 ? "" : " ") + Digests::kNames[i] + "=" +
           digests.hex[i].substr(0, 16);
  }
  return out;
}

/// Set-up (key material, timed), then one unrecorded warm-up job whose
/// outputs pass every check and become the reference digests.
void prepare(Run& run, const Options& options) {
  const fleet::FleetConfig& config = run.config;
  for (int i = 0; i < kSetupBuilds; ++i) {
    const double start = wall_now();
    run.keys = std::make_unique<core::RsaKeyCache>(
        config.rsa_bits, config.key_cache_slots,
        fleet::detail::key_cache_seed(config));
    if (config.streaming_ingest) {
      Rng rng(ingest_key_seed(config));
      run.ingest_key = crypto::rsa_generate(config.rsa_bits, rng);
    }
    run.setup_s.push_back(wall_now() - start);
  }

  const fleet::FleetResult result = fleet::run_fleet(config);
  run.reference = digests_of(result);
  if (options.seed == 1) {
    const std::optional<Digests> golden =
        golden_digests(run.workload->name, options.smoke);
    if (!golden.has_value()) {
      run.errors.push_back("no seed-1 golden digests pinned");
    } else {
      for (std::size_t i = 0; i < golden->hex.size(); ++i) {
        if (golden->hex[i] != run.reference.hex[i]) {
          run.errors.push_back(std::string(Digests::kNames[i]) +
                               " digest differs from the seed-1 golden");
        }
      }
    }
  }
  const CheckReport report =
      check_outputs(config, result, *run.keys,
                    config.streaming_ingest ? &run.ingest_key.public_key : nullptr);
  run.errors.insert(run.errors.end(), report.errors.begin(), report.errors.end());
  run.failed_per_job = report.failed_ue_cycles;

  const epc::SettlementCounters& s = result.settlement_totals;
  const auto ue_cycles = static_cast<double>(run.ue_cycles);
  run.legacy_fallback_ratio =
      static_cast<double>(s.degraded + s.rejected_tamper) / ue_cycles;
  run.wire_bytes_per_ue_cycle =
      static_cast<double>(result.coded_totals.bytes_on_wire) / ue_cycles;
  std::printf("%-16s checked %llu receipts, %llu ingest batches; %s\n",
              std::string(run.workload->name).c_str(),
              static_cast<unsigned long long>(report.receipts_verified),
              static_cast<unsigned long long>(report.batches_verified),
              digest_list(run.reference).c_str());
}

/// One untraced, timed job.
void sample(Run& run) {
  reset_peak_rss();
  double wall = 0.0, cpu = 0.0;
  Digests digests;
  {
    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    const fleet::FleetResult result = fleet::run_fleet(run.config);
    wall = wall_now() - wall0;
    cpu = cpu_now() - cpu0;
    run.rss_mb.push_back(peak_rss_mb());
    digests = digests_of(result);
  }
  run.wall_s.push_back(wall);
  run.cpu_s.push_back(cpu);
  ++run.jobs;
  if (!(digests == run.reference)) {
    ++run.mismatched_jobs;
    run.errors.push_back("job " + std::to_string(run.jobs) +
                         " digests differ from the warm-up's");
  }
}

/// One traced pass; its outputs must equal run_fleet's.
void trace(Run& run, TraceLog* log) {
  const double start = wall_now();
  TracedPass pass = run_traced(run.config, log);
  if (log != nullptr) {
    log->span("workload:" + std::string(run.workload->name), start, wall_now(),
              {{"ue_count", static_cast<double>(run.config.ue_count)},
               {"shards", static_cast<double>(run.config.shards)},
               {"seed", static_cast<double>(run.config.seed)}});
  }
  ++run.jobs;
  if (!(digests_of(pass.result) == run.reference)) {
    ++run.mismatched_jobs;
    run.errors.push_back("traced pass digests differ from run_fleet's");
  }
  run.passes.push_back(std::move(pass.metrics));
  run.settle_ms.insert(run.settle_ms.end(), pass.settle_ms_per_ue_cycle.begin(),
                       pass.settle_ms_per_ue_cycle.end());
}

/// `gated`: an end-to-end metric, whose bound `--compare` applies.
Json metric_json(const MetricDef& def, const std::vector<double>& samples,
                 bool gated) {
  const Summary s = summarize(samples);
  Json out = Json::Object{};
  out.set("unit", def.unit);
  out.set("better", def.better == Better::Higher ? "higher" : "lower");
  if (gated) out.set("bound", def.bound);
  out.set("deterministic", def.deterministic);
  out.set("median", s.median);
  out.set("q1", s.q1);
  out.set("q3", s.q3);
  out.set("n", static_cast<double>(s.n));
  Json values = Json::Array{};
  for (const double v : samples) values.push(v);
  out.set("samples", std::move(values));
  return out;
}

std::map<std::string, std::vector<double>> end_to_end_samples(const Run& run) {
  std::map<std::string, std::vector<double>> m;
  const auto ue_cycles = static_cast<double>(run.ue_cycles);
  for (std::size_t i = 0; i < run.wall_s.size(); ++i) {
    m["ue_cycles_per_s"].push_back(ue_cycles / run.wall_s[i]);
    m["cpu_us_per_ue_cycle"].push_back(run.cpu_s[i] * 1e6 / ue_cycles);
  }
  m["setup_s"] = run.setup_s;
  m["peak_rss_mb"] = run.rss_mb;
  m["legacy_fallback_ratio"] = {run.legacy_fallback_ratio};
  m["wire_bytes_per_ue_cycle"] = {run.wire_bytes_per_ue_cycle};
  return m;
}

std::map<std::string, std::vector<double>> layer_samples(const Run& run) {
  std::map<std::string, std::vector<double>> m;
  for (const std::map<std::string, double>& pass : run.passes) {
    for (const auto& [name, value] : pass) m[name].push_back(value);
  }
  if (run.passes.empty()) return m;
  Samples settle;
  settle.add_all(run.settle_ms);
  m["core.settle_p50_ms"] = {settle.quantile(0.50)};
  m["core.settle_p99_ms"] = {settle.quantile(0.99)};
  // Against untraced CPU time, not wall: the traced pass is serial, and
  // CPU time is what the 2-thread untraced run spends on the same work.
  const double untraced_cpu = summarize(run.cpu_s).median;
  for (const std::map<std::string, double>& pass : run.passes) {
    m["trace.overhead_ratio"].push_back(
        untraced_cpu > 0.0 ? pass.at("fleet.traced_wall_s") / untraced_cpu : 0.0);
  }
  return m;
}

Json params_json(const Run& run) {
  const fleet::FleetConfig& c = run.config;
  Json p = Json::Object{};
  const auto num = [](auto v) { return static_cast<double>(v); };
  p.set("ue_count", num(c.ue_count));
  p.set("shards", num(c.shards));
  p.set("ues_per_cell", num(run.workload->ues_per_cell));
  p.set("threads", num(c.threads));
  p.set("cycles", num(c.base.cycles));
  p.set("cycle_s", to_seconds(c.base.cycle_length));
  Json apps = Json::Array{};
  for (const testbed::AppKind app : c.app_mix) apps.push(testbed::app_name(app));
  p.set("app_mix", std::move(apps));
  p.set("weak_signal_fraction", c.weak_signal_fraction);
  p.set("intermittent_fraction", c.intermittent_fraction);
  p.set("background_mbps", c.base.background_mbps);
  p.set("adversary_fraction", c.adversary.fraction);
  p.set("rsa_bits", num(c.rsa_bits));
  p.set("key_cache_slots", num(c.key_cache_slots));
  p.set("settlement",
        !c.lossy_transport ? "in-process"
        : c.transport.coding == transport::Coding::Rlnc ? "rlnc-coded"
                                                        : "stop-and-wait");
  if (c.lossy_transport) {
    Json faults = Json::Object{};
    faults.set("drop", c.transport.to_operator.drop);
    faults.set("corrupt", c.transport.to_operator.corrupt);
    faults.set("duplicate", c.transport.to_operator.duplicate);
    faults.set("reorder", c.transport.to_operator.reorder);
    p.set("faults_each_direction", std::move(faults));
  }
  p.set("streaming_ingest", c.streaming_ingest);
  if (c.streaming_ingest) p.set("ingest_batch_size", num(c.ingest_batch_size));
  return p;
}

void print_table(const char* title, std::span<const MetricDef> defs,
                 const std::map<std::string, std::vector<double>>& m) {
  std::printf("  %-30s %-6s %14s %14s %14s %5s\n", title, "unit", "median", "q1",
              "q3", "n");
  for (const MetricDef& def : defs) {
    const auto it = m.find(def.name);
    if (it == m.end()) continue;
    const Summary s = summarize(it->second);
    std::printf("  %-30s %-6s %14.6g %14.6g %14.6g %5zu\n", def.name, def.unit,
                s.median, s.q1, s.q3, s.n);
  }
}

Json report_run(const Run& run) {
  Json out = Json::Object{};
  out.set("name", std::string(run.workload->name));
  out.set("why", std::string(run.workload->why));
  out.set("params", params_json(run));
  out.set("attempted", static_cast<double>(run.jobs * run.ue_cycles));
  out.set("failed", static_cast<double>(run.jobs * run.failed_per_job +
                                        run.mismatched_jobs * run.ue_cycles));
  Json digests = Json::Object{};
  for (std::size_t i = 0; i < run.reference.hex.size(); ++i) {
    digests.set(Digests::kNames[i], run.reference.hex[i]);
  }
  out.set("digests", std::move(digests));
  Json errors = Json::Array{};
  for (const std::string& e : run.errors) errors.push(e);
  out.set("errors", std::move(errors));

  Json metrics = Json::Object{};
  const auto e2e = end_to_end_samples(run);
  for (const MetricDef& def : kEndToEnd) {
    if (!e2e.at(def.name).empty()) {
      metrics.set(def.name, metric_json(def, e2e.at(def.name), true));
    }
  }
  out.set("metrics", std::move(metrics));
  Json layers = Json::Object{};
  const auto per_layer = layer_samples(run);
  for (const MetricDef& def : kLayers) {
    const auto it = per_layer.find(def.name);
    if (it != per_layer.end()) layers.set(def.name, metric_json(def, it->second, false));
  }
  out.set("layers", std::move(layers));

  std::printf("\n== %s (seed %llu%s): %d UEs, %d shards, %u thread%s\n",
              std::string(run.workload->name).c_str(),
              static_cast<unsigned long long>(run.config.seed),
              run.config.ue_count < run.workload->ue_count ? ", smoke" : "",
              run.config.ue_count, run.config.shards, run.config.threads,
              run.config.threads == 1 ? "" : "s");
  print_table("end-to-end", kEndToEnd, e2e);
  if (!per_layer.empty()) print_table("per-layer (traced pass)", kLayers, per_layer);
  for (const std::string& e : run.errors) std::printf("  CHECK FAILED: %s\n", e.c_str());
  return out;
}

int run_benchmark(const Options& options) {
  set_log_level(LogLevel::Error);  // round-cap warnings would flood stderr
  std::vector<Run> runs;
  for (const Workload& workload : workloads()) {
    if (!options.workload.empty() && workload.name != options.workload) continue;
    Run run;
    run.workload = &workload;
    run.config = make_config(workload, options.seed, options.smoke);
    run.ue_cycles = ue_cycles(run.config);
    runs.push_back(std::move(run));
  }
  for (Run& run : runs) prepare(run, options);

  TraceLog log;
  TraceLog* log_ptr = options.trace_path.empty() ? nullptr : &log;
  if (options.seconds > 0.0) {
    Run& run = runs.front();
    const double start = wall_now();
    while (run.wall_s.size() < kMinSamples || wall_now() - start < options.seconds) {
      sample(run);
      if (options.layers) trace(run, run.passes.empty() ? log_ptr : nullptr);
    }
  } else {
    // Rotate the order each round so a slow phase of a shared host
    // spreads over every workload instead of landing on one.
    const int rounds = options.smoke ? 1 : kRounds;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t k = 0; k < runs.size(); ++k) {
        sample(runs[(k + static_cast<std::size_t>(r)) % runs.size()]);
      }
    }
    for (Run& run : runs) trace(run, log_ptr);
  }

  Json report = Json::Object{};
  report.set("benchmark", "tlc_bench");
  report.set("seed", static_cast<double>(options.seed));
  report.set("smoke", options.smoke);
  report.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.set("protocol", options.seconds > 0.0
                             ? "time-bounded, " + std::to_string(options.seconds) + " s"
                             : std::to_string(options.smoke ? 1 : kRounds) +
                                   " rotating rounds");
  bool correct = true;
  double attempted = 0.0, failed = 0.0;
  Json workload_reports = Json::Array{};
  for (const Run& run : runs) {
    Json r = report_run(run);
    attempted += r.find("attempted")->number();
    failed += r.find("failed")->number();
    correct = correct && run.errors.empty();
    workload_reports.push(std::move(r));
  }
  report.set("correct", correct);
  report.set("attempted", attempted);
  report.set("failed", failed);
  report.set("workloads", std::move(workload_reports));

  if (!options.json_path.empty()) {
    std::FILE* f = std::fopen(options.json_path.c_str(), "w");
    const std::string text = report.dump(1) + "\n";
    if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
      std::fprintf(stderr, "tlc_bench: cannot write %s\n", options.json_path.c_str());
      correct = false;
    }
    if (f != nullptr) std::fclose(f);
  }
  if (log_ptr != nullptr) {
    if (const Status written = log.write(options.trace_path); !written.ok()) {
      std::fprintf(stderr, "tlc_bench: %s\n", written.error().c_str());
      correct = false;
    }
  }
  std::printf("\n%s\n", correct ? "all correctness checks passed"
                                : "CORRECTNESS CHECKS FAILED");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tlc::bench

int main(int argc, char** argv) {
  const std::optional<tlc::bench::Options> options =
      tlc::bench::parse_options(argc, argv);
  if (!options.has_value()) {
    std::fputs(tlc::bench::kUsage, stderr);
    return 2;
  }
  if (!options->compare.empty()) {
    const std::size_t comma = options->compare.find(',');
    if (comma == std::string::npos) {
      std::fputs(tlc::bench::kUsage, stderr);
      return 2;
    }
    return tlc::bench::run_compare(options->compare.substr(0, comma),
                                   options->compare.substr(comma + 1));
  }
  return tlc::bench::run_benchmark(*options);
}
