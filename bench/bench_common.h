// Shared helpers for the figure/table benches: each bench binary regenerates
// one table or figure of the paper (see DESIGN.md §4 for the index) and
// prints the same rows/series the paper reports. Absolute values are
// simulator-calibrated; the *shape* (who wins, by what factor, where
// crossovers fall) is the reproduction target (EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config_search.h"
#include "core/perf_model.h"
#include "obs/metrics.h"
#include "sim/simulate.h"
#include "support/json.h"
#include "support/table.h"
#include "tensor/kernels.h"

namespace chimera::bench {

/// Machine-readable bench output. Every fig/ablation binary accepts
/// `--json <path>` and mirrors its headline rows into a JSON array of
///   {"bench": ..., "name": ..., "config": ..., "kernel_policy": ...,
///    "kernel_tier": ..., "throughput": ..., "iteration_seconds": ...,
///    <extra metrics>}
/// records (convention: BENCH_<figure>.json), so the perf trajectory can be
/// tracked by tooling instead of scraping tables. kernel_policy is the
/// configured KernelPolicy (env pin included); kernel_tier is the tier it
/// resolved to on this host — artifacts from different tiers are never
/// compared as if they were the same machine state.
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv, std::string bench_name)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--json") path_ = argv[i + 1];
  }
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;
  ~JsonReporter() { flush(); }

  bool enabled() const { return !path_.empty(); }

  /// One result row. `throughput` in sequences/s; pass 0 when the bench
  /// measures something else and record it via `extra` instead.
  void add(const std::string& name, const std::string& config,
           double throughput, double iteration_seconds,
           std::vector<std::pair<std::string, double>> extra = {}) {
    if (!enabled()) return;
    std::string r = "  {\"bench\": \"" + json::escape(bench_) +
                    "\", \"name\": \"" + json::escape(name) +
                    "\", \"config\": \"" + json::escape(config) +
                    "\", \"kernel_policy\": \"" +
                    json::escape(kernel_policy_name(kernel_policy())) +
                    "\", \"kernel_tier\": \"" +
                    json::escape(kernel_tier_name(active_kernel_tier())) +
                    "\", \"throughput\": " + num(throughput) +
                    ", \"iteration_seconds\": " + num(iteration_seconds);
    for (const auto& [k, v] : extra)
      r += ", \"" + json::escape(k) + "\": " + num(v);
    r += "}";
    records_.push_back(std::move(r));
  }

  void flush() {
    if (!enabled() || flushed_) return;
    flushed_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i)
      out << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    out << "]\n";
    std::printf("wrote %zu records to %s\n", records_.size(), path_.c_str());
  }

 private:
  static std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

  std::string bench_;
  std::string path_;
  std::vector<std::string> records_;
  bool flushed_ = false;
};

inline Evaluator sim_evaluator(const ModelSpec& model, const MachineSpec& machine) {
  return [&model, &machine](const ExecConfig& cfg, bool) {
    return sim::simulated_throughput(cfg, model, machine);
  };
}

/// The paper's §4.2.3 tuning grid: the tuning-sweep figures (10/11/13)
/// keep the even layer split so their (W, D, B) tables track the paper's
/// deployments point for point. Everywhere a *tuned best* is reported,
/// best_config sweeps the partition policy too — with the head priced
/// into the pipeline clock, the balanced planner is what keeps deep even
/// pipelines (Chimera D=32) competitive; see bench_ablation_partition.
inline const std::vector<PartitionPolicy>& paper_partition() {
  static const std::vector<PartitionPolicy> even = {PartitionPolicy::kEven};
  return even;
}

/// Best configuration of `scheme` at scale P (baselines: full sweep;
/// Chimera: greedy-B + model-selected (W, D), validated by the simulator).
/// The partition policy is part of the swept space for every scheme.
inline Candidate best_config(Scheme scheme, const ModelSpec& model,
                             const MachineSpec& machine, int P, long minibatch,
                             int max_B = 32) {
  const Evaluator eval = sim_evaluator(model, machine);
  if (scheme == Scheme::kChimera)
    return chimera_greedy_search(model, machine, P, minibatch, max_B, eval).best;
  return sweep_configs(scheme, model, machine, P, minibatch, max_B, eval).best;
}

/// "D=8, B=4, R" annotation string for figure legends.
inline std::string config_label(const Candidate& c) {
  if (!c.feasible) return "OOM";
  std::string s = "W=" + std::to_string(c.cfg.W) + ", D=" + std::to_string(c.cfg.D) +
                  ", B=" + std::to_string(c.cfg.B);
  if (c.cfg.partition != PartitionPolicy::kEven)
    s += std::string(", ") + partition_policy_name(c.cfg.partition);
  if (c.recompute) s += ", R";
  return s;
}

inline const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kPipeDream, Scheme::kPipeDream2BW, Scheme::kGPipe,
      Scheme::kGems, Scheme::kDapple, Scheme::kChimera};
  return schemes;
}

/// Appends a MetricsRegistry's flattened (name, value) pairs to a
/// JsonReporter `extra` list, skipping names the caller already set — hand-
/// computed values (timed-phase deltas, ratios) take precedence over the
/// engine's lifetime counters.
inline std::vector<std::pair<std::string, double>> with_metrics(
    std::vector<std::pair<std::string, double>> extra,
    const obs::MetricsRegistry& reg) {
  for (const auto& [name, value] : reg.flatten()) {
    bool present = false;
    for (const auto& [have, _] : extra)
      if (have == name) {
        present = true;
        break;
      }
    if (!present) extra.emplace_back(name, value);
  }
  return extra;
}

}  // namespace chimera::bench
