#include "compare.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "json.hpp"

namespace tlc::bench {
namespace {

struct Side {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::vector<double> samples;
};

Expected<Json> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Err("cannot open " + path);
  std::stringstream text;
  text << in.rdbuf();
  Expected<Json> doc = Json::parse(text.str());
  if (!doc) return Err(path + ": " + doc.error());
  if (doc->find("workloads") == nullptr || !doc->find("workloads")->is_array()) {
    return Err(path + ": no workloads array");
  }
  return doc;
}

double number_or(const Json* value, double fallback) {
  return value != nullptr && value->is_number() ? value->number() : fallback;
}

Side side_of(const Json& metric) {
  Side side;
  side.median = number_or(metric.find("median"), 0.0);
  side.q1 = number_or(metric.find("q1"), side.median);
  side.q3 = number_or(metric.find("q3"), side.median);
  if (const Json* samples = metric.find("samples");
      samples != nullptr && samples->is_array()) {
    for (const Json& s : samples->array()) {
      if (s.is_number()) side.samples.push_back(s.number());
    }
  }
  return side;
}

const Json* find_workload(const Json& doc, const std::string& name) {
  for (const Json& workload : doc.find("workloads")->array()) {
    const Json* n = workload.find("name");
    if (n != nullptr && n->is_string() && n->string() == name) return &workload;
  }
  return nullptr;
}

/// The choosing-metrics guide's rule (§6.5, §8) for one metric.
const char* verdict(const Side& base, const Side& change, bool higher_better,
                    double bound, bool deterministic) {
  const double sign = higher_better ? -1.0 : 1.0;
  const double shift = sign * (change.median - base.median);
  if (deterministic) {
    return shift > 0.0 ? "worse" : shift < 0.0 ? "better" : "same";
  }
  const auto better = [&](double c, double b) { return sign * (c - b) < 0.0; };
  bool every_better = !base.samples.empty() && !change.samples.empty();
  bool every_worse = every_better;
  for (const double c : change.samples) {
    for (const double b : base.samples) {
      every_better = every_better && better(c, b);
      every_worse = every_worse && better(b, c);
    }
  }
  const auto spread = [](const Side& s) {
    return s.median == 0.0 ? 0.0 : (s.q3 - s.q1) / std::fabs(s.median);
  };
  // Noise wider than the bound decides nothing, unless the two sample
  // sets do not overlap at all.
  if (std::max(spread(base), spread(change)) > bound) {
    return every_better ? "better" : every_worse ? "worse" : "unresolved";
  }
  const double worse_share = base.median == 0.0 ? 0.0 : shift / std::fabs(base.median);
  if (worse_share > bound) return "worse";
  // A gain needs 9 of 10 paired runs and a median shift beyond the
  // base's own quartile spread.
  const std::size_t pairs = std::min(base.samples.size(), change.samples.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(change.samples[i], base.samples[i])) ++wins;
  }
  if (shift < 0.0 && -shift > base.q3 - base.q1 && pairs > 0 &&
      static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs)) {
    return "better";
  }
  return "same";
}

}  // namespace

int run_compare(const std::string& base_path, const std::string& change_path) {
  const Expected<Json> base = load(base_path);
  const Expected<Json> change = load(change_path);
  if (!base || !change) {
    std::fprintf(stderr, "compare: %s\n",
                 (!base ? base.error() : change.error()).c_str());
    return 2;
  }
  int exit_code = 0;
  for (const Json* doc : {&*base, &*change}) {
    const Json* correct = doc->find("correct");
    if (correct == nullptr || !correct->is_bool() || !correct->boolean()) {
      std::printf("compare: %s run failed its correctness checks\n",
                  doc == &*base ? "base" : "change");
      exit_code = 1;
    }
  }

  std::printf("%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric",
              "base", "change", "shift", "bound", "verdict");
  for (const Json& base_workload : base->find("workloads")->array()) {
    const Json* name = base_workload.find("name");
    if (name == nullptr || !name->is_string()) continue;
    const Json* change_workload = find_workload(*change, name->string());
    if (change_workload == nullptr) {
      std::printf("%-16s missing from %s\n", name->string().c_str(),
                  change_path.c_str());
      exit_code = std::max(exit_code, 2);
      continue;
    }
    for (const char* section : {"metrics", "layers"}) {
      const Json* base_metrics = base_workload.find(section);
      const Json* change_metrics = change_workload->find(section);
      if (base_metrics == nullptr || !base_metrics->is_object() ||
          change_metrics == nullptr) {
        continue;
      }
      const bool gated = std::string(section) == "metrics";
      for (const auto& [metric, base_metric] : base_metrics->object()) {
        const Json* change_metric = change_metrics->find(metric);
        if (change_metric == nullptr) continue;
        const Side b = side_of(base_metric);
        const Side c = side_of(*change_metric);
        const Json* better = base_metric.find("better");
        const bool higher = better != nullptr && better->is_string() &&
                            better->string() == "higher";
        const double share =
            b.median == 0.0 ? 0.0 : (c.median - b.median) / std::fabs(b.median);
        if (!gated) {
          std::printf("%-16s %-26s %14.6g %14.6g %+8.1f%%\n",
                      name->string().c_str(), metric.c_str(), b.median,
                      c.median, share * 100.0);
          continue;
        }
        const double bound = number_or(base_metric.find("bound"), 0.0);
        const Json* det = base_metric.find("deterministic");
        const bool deterministic = det != nullptr && det->is_bool() && det->boolean();
        const char* v = verdict(b, c, higher, bound, deterministic);
        if (std::string(v) == "worse") exit_code = std::max(exit_code, 1);
        std::printf("%-16s %-26s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
                    name->string().c_str(), metric.c_str(), b.median, c.median,
                    share * 100.0, bound * 100.0, v);
      }
    }
  }
  return exit_code;
}

}  // namespace tlc::bench
