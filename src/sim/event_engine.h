// Discrete-event execution engine for pipeline schedules.
//
// This is the cluster substrate of the reproduction (DESIGN.md §1): it
// executes a PipelineSchedule on a simulated machine with
//   - one compute resource per worker (ops run in schedule order),
//   - one serializing outgoing network link per worker (α–β transfers queue
//     behind each other),
//   - a nonblocking collective engine (a stage's allreduce completes a
//     Rabenseifner-time after the last participant launched it; launching
//     steals nonblocking_cpu_fraction of the collective time from the
//     worker, the §3.2 progression overhead),
//   - optional deterministic compute jitter.
//
// Unlike the analytic replay in core/schedule_analysis (the paper's
// performance model), the engine bills per-stage compute durations and link
// serialization — it is the "measurement" side of Fig. 13.
#pragma once

#include <vector>

#include "core/execution_plan.h"
#include "core/schedule.h"
#include "obs/trace_json.h"

namespace chimera::sim {

/// Per-op and per-link costs, fully resolved by the caller.
struct EngineCosts {
  /// forward_seconds[stage]: one micro-batch forward on that stage.
  std::vector<double> forward_seconds;
  /// backward multiple of forward (2, or 3 with recomputation).
  double backward_factor = 2.0;
  /// Backward halving runs micro-batches of B/2 at lower kernel saturation:
  /// time of one half-backward = forward·backward_factor/2 · this (≥ 1).
  double half_backward_scale = 1.0;
  /// Forward doubling fuses two micro-batches into one better-saturated
  /// kernel: time = 2·forward · this (≤ 1).
  double double_forward_scale = 1.0;
  /// p2p message: alpha + beta·bytes, bytes = boundary_bytes·volume.
  double alpha = 0.0;
  double beta = 0.0;
  double boundary_bytes = 0.0;
  /// Hierarchical interconnect (MachineSpec::node_size): transfers between
  /// workers in the same node_size block use the intra-node parameters.
  int node_size = 0;
  double intra_alpha = 0.0;
  double intra_beta = 0.0;
  /// allreduce_seconds[stage]: duration of that stage's gradient allreduce.
  std::vector<double> allreduce_seconds;
  /// CPU fraction of the collective duration billed to the launching worker.
  double begin_cpu_fraction = 0.0;
  /// Multiplicative compute jitter (stddev fraction); 0 = deterministic.
  double jitter = 0.0;
  std::uint64_t seed = 0x5eed;
};

struct EngineResult {
  double makespan = 0.0;            ///< end of last op (incl. sync waits)
  double compute_makespan = 0.0;    ///< end of last compute op
  std::vector<double> busy;         ///< per-worker compute seconds
  std::vector<std::vector<double>> op_start;  ///< [worker][op]
  std::vector<std::vector<double>> op_end;

  /// bubble = compute_makespan − busy, averaged over workers.
  double bubble_ratio() const;
};

/// Runs the plan to completion. Throws CheckError on deadlock. The engine
/// executes exactly the dependencies the shared ExecutionPlan precomputed —
/// the same lists the analyzer's replay and the threaded runtime honor.
EngineResult run_engine(const ExecutionPlan& plan, const EngineCosts& costs);

/// Convenience overload: lowers the schedule onto a fresh ExecutionPlan.
EngineResult run_engine(const PipelineSchedule& schedule, const EngineCosts& costs);

/// The run as a chimera-trace-v1 document, one plan-op span per op at the
/// engine's times in µs; `meta` carries the deployment and model shape.
obs::TraceDoc engine_trace(const ExecutionPlan& plan,
                           const EngineResult& result,
                           const obs::TraceMeta& meta);

}  // namespace chimera::sim
