#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "core/decode_schedule.h"
#include "core/execution_plan.h"
#include "core/inference_schedule.h"
#include "core/partition.h"
#include "core/sync_placement.h"
#include "nn/stage.h"
#include "support/check.h"

namespace chimera::obs {

namespace {

// ---- canonical-name inversions ------------------------------------------
// The library only exposes enum→name (scheme_name & co.); the trace carries
// names, so the inversions live here, scanning the full enum ranges.

Scheme scheme_from_name(const std::string& name) {
  for (Scheme s : {Scheme::kChimera, Scheme::kGPipe, Scheme::kDapple,
                   Scheme::kGems, Scheme::kPipeDream, Scheme::kPipeDream2BW,
                   Scheme::kOneF1B})
    if (name == scheme_name(s)) return s;
  CHIMERA_CHECK_MSG(false, "unknown scheme \"" << name << '"');
  return Scheme::kChimera;
}

ScaleMethod scale_from_name(const std::string& name) {
  for (ScaleMethod m : {ScaleMethod::kDirect, ScaleMethod::kForwardDoubling,
                        ScaleMethod::kBackwardHalving})
    if (name == scale_method_name(m)) return m;
  CHIMERA_CHECK_MSG(false, "unknown scale method \"" << name << '"');
  return ScaleMethod::kDirect;
}

SyncPolicy sync_from_name(const std::string& name) {
  for (SyncPolicy p : {SyncPolicy::kNone, SyncPolicy::kAtEnd,
                       SyncPolicy::kEager, SyncPolicy::kEagerOpt})
    if (name == sync_policy_name(p)) return p;
  CHIMERA_CHECK_MSG(false, "unknown sync policy \"" << name << '"');
  return SyncPolicy::kNone;
}

PartitionPolicy partition_from_name(const std::string& name) {
  for (PartitionPolicy p : {PartitionPolicy::kEven,
                            PartitionPolicy::kBalancedFlops,
                            PartitionPolicy::kBalancedMemory})
    if (name == partition_policy_name(p)) return p;
  CHIMERA_CHECK_MSG(false, "unknown partition policy \"" << name << '"');
  return PartitionPolicy::kEven;
}

/// Rebuilds the schedule the trace was recorded under, replicating the
/// trainer's construction: the trace records the *effective* sync policy
/// (kNone→kAtEnd resolution already applied; "none" for async schemes).
PipelineSchedule rebuild_schedule(const TraceMeta& m) {
  CHIMERA_CHECK_MSG(m.depth >= 1 && m.num_micro >= 1 && m.pipes_f >= 1 &&
                        m.data_parallel >= 1,
                    "trace metadata has non-positive deployment shape");
  const Scheme scheme = scheme_from_name(m.scheme);
  ScheduleConfig cfg;
  cfg.depth = m.depth;
  cfg.num_micro = m.num_micro;
  cfg.pipes_f = m.pipes_f;
  cfg.scale = scale_from_name(m.scale);
  if (m.workload == "training") {
    PipelineSchedule s = build_schedule(scheme, cfg);
    if (m.sync != "none") s = with_gradient_sync(s, sync_from_name(m.sync));
    return s;
  }
  if (m.workload == "serving") return build_inference_schedule(scheme, cfg);
  if (m.workload == "decode") return build_decode_schedule(scheme, cfg);
  CHIMERA_CHECK_MSG(false, "unknown workload \"" << m.workload << '"');
  return PipelineSchedule{};
}

Partition rebuild_partition(const TraceMeta& m, const PipelineSchedule& s) {
  nn::SmallModelConfig mc;
  mc.vocab = m.vocab;
  mc.hidden = m.hidden;
  mc.heads = m.heads;
  mc.layers = m.layers;
  mc.seq = m.seq;
  mc.causal = m.causal;
  // Mirrors rt::runtime_partition: same dispatcher, same default B.
  return plan_partition(mc.spec(), m.depth, partition_from_name(m.partition),
                        &s);
}

/// Plan-op spans grouped per rank, in per-rank recording (= execution)
/// order; ranks above `num_ranks` are rejected.
std::vector<std::vector<const TraceEvent*>> ops_by_rank(const TraceDoc& doc,
                                                        int num_ranks) {
  std::vector<std::vector<const TraceEvent*>> ops(num_ranks);
  for (const TraceEvent& e : doc.events) {
    if (!is_plan_op(e.kind)) continue;
    CHIMERA_CHECK_MSG(e.worker >= 0 && e.worker < num_ranks,
                      "plan-op span on unknown rank " << e.worker);
    CHIMERA_CHECK_MSG(e.lane == 0,
                      "plan-op span recorded off a rank thread (lane "
                          << e.lane << ")");
    CHIMERA_CHECK_MSG(e.t1_us >= e.t0_us, "span with negative duration");
    ops[e.worker].push_back(&e);
  }
  return ops;
}

/// Per-rank sorted [t0, t1] of the recv spans. The executors receive a
/// compute op's inputs inside its span (rt::WorkerExecutor, serving,
/// decode), and a rank blocked in recv is idle, not busy.
using Intervals = std::vector<std::pair<double, double>>;
std::vector<Intervals> recvs_by_rank(const TraceDoc& doc, int num_ranks) {
  std::vector<Intervals> recvs(num_ranks);
  for (const TraceEvent& e : doc.events)
    if (e.kind == EventKind::kRecv && e.worker >= 0 && e.worker < num_ranks)
      recvs[e.worker].emplace_back(e.t0_us, e.t1_us);
  for (Intervals& r : recvs) std::sort(r.begin(), r.end());
  return recvs;
}

/// An op span's duration less the recv spans its rank recorded inside it.
double compute_us(const TraceEvent& op, const Intervals& recvs) {
  double busy = op.t1_us - op.t0_us;
  for (auto it = std::lower_bound(recvs.begin(), recvs.end(),
                                  std::pair(op.t0_us, -HUGE_VAL));
       it != recvs.end() && it->first <= op.t1_us; ++it)
    if (it->second <= op.t1_us) busy -= it->second - it->first;
  return busy;
}

/// The paper's bubble-ratio expression applied to per-rank rows — term
/// order and operations identical to ReplayResult::bubble_ratio so
/// measured and predicted ratios are comparable bitwise.
double bubble_ratio_of(const std::vector<WorkerBubbleRow>& rows, double cm) {
  if (cm <= 0.0 || rows.empty()) return 0.0;
  double total = 0.0;
  for (const WorkerBubbleRow& row : rows) total += row.bubble_us;
  return total / (cm * static_cast<double>(rows.size()));
}

TraceReport analyze_training(const TraceDoc& doc,
                             const PipelineSchedule& sched,
                             const ExecutionPlan& plan) {
  const TraceMeta& meta = doc.meta;
  const int D = sched.depth;
  const int R = meta.data_parallel * D;
  TraceReport r;
  r.meta = meta;

  const auto ops = ops_by_rank(doc, R);
  const auto recvs = recvs_by_rank(doc, R);

  // Iteration count: every rank must hold k complete plan walks.
  int k = -1;
  for (int rank = 0; rank < R; ++rank) {
    const std::size_t P = plan.worker_plan(rank % D).size();
    CHIMERA_CHECK_MSG(ops[rank].size() % P == 0,
                      "rank " << rank << " recorded " << ops[rank].size()
                              << " op spans, not a multiple of its plan size "
                              << P);
    const int kr = static_cast<int>(ops[rank].size() / P);
    CHIMERA_CHECK_MSG(k < 0 || kr == k,
                      "ranks disagree on iteration count (" << kr << " vs "
                                                            << k << ")");
    k = kr;
  }
  CHIMERA_CHECK_MSG(k >= 1, "trace holds no plan-op spans");
  r.iterations = k;

  // Every span must be the plan op it claims to be, in plan order.
  for (int rank = 0; rank < R; ++rank) {
    const auto& wplan = plan.worker_plan(rank % D);
    const std::size_t P = wplan.size();
    for (std::size_t i = 0; i < ops[rank].size(); ++i) {
      const TraceEvent& e = *ops[rank][i];
      const int oi = static_cast<int>(i % P);
      const Op& op = wplan[oi].op;
      CHIMERA_CHECK_MSG(e.op_index == oi,
                        "rank " << rank << " span " << i << " carries op_index "
                                << e.op_index << ", expected " << oi);
      CHIMERA_CHECK_MSG(e.kind == op_event_kind(op.kind),
                        "rank " << rank << " op " << oi << " recorded kind \""
                                << event_kind_name(e.kind)
                                << "\" mismatching the plan");
      CHIMERA_CHECK_MSG(e.micro == op.micro && e.stage == op.stage &&
                            e.pipe == op.pipe,
                        "rank " << rank << " op " << oi
                                << " (micro/stage/pipe) disagrees with the "
                                   "plan");
    }
  }

  // Measured accounting, replicating the replay's accumulation: busy[w] is
  // the sum of compute durations in op order; bubble = compute_makespan −
  // busy; means over iterations (exact for identical per-iteration values).
  std::vector<double> busy_sum(R, 0.0);
  double cm_sum = 0.0;
  for (int it = 0; it < k; ++it) {
    double origin = std::numeric_limits<double>::infinity();
    double last = -std::numeric_limits<double>::infinity();
    for (int rank = 0; rank < R; ++rank) {
      const std::size_t P = plan.worker_plan(rank % D).size();
      double busy = 0.0;
      for (std::size_t i = it * P; i < (it + 1) * P; ++i) {
        const TraceEvent& e = *ops[rank][i];
        origin = std::min(origin, e.t0_us);
        if (is_compute_kind(e.kind)) {
          busy += compute_us(e, recvs[rank]);
          last = std::max(last, e.t1_us);
        }
      }
      busy_sum[rank] += busy;
    }
    CHIMERA_CHECK_MSG(last >= origin, "iteration " << it << " has no compute");
    cm_sum += last - origin;
  }
  const double kk = static_cast<double>(k);
  r.compute_makespan_us = cm_sum / kk;
  r.workers.resize(R);
  for (int rank = 0; rank < R; ++rank) {
    WorkerBubbleRow& row = r.workers[rank];
    row.rank = rank;
    row.busy_us = busy_sum[rank] / kk;
    row.bubble_us = r.compute_makespan_us - row.busy_us;
    row.bubble_fraction = r.compute_makespan_us > 0.0
                              ? row.bubble_us / r.compute_makespan_us
                              : 0.0;
  }
  r.measured_bubble_ratio = bubble_ratio_of(r.workers, r.compute_makespan_us);

  // Per-stage cost inversion — the exact inverse of the replay's op_cost:
  // forward spans cost F̂ₛ·chunk, backward spans (B̂ₛ + recompute·F̂ₛ)/halves.
  std::vector<double> fsum(D, 0.0), bsum(D, 0.0);
  std::vector<long> fn(D, 0), bn(D, 0);
  for (int rank = 0; rank < R; ++rank) {
    const auto& wplan = plan.worker_plan(rank % D);
    for (std::size_t i = 0; i < ops[rank].size(); ++i) {
      const TraceEvent& e = *ops[rank][i];
      const Op& op = wplan[i % wplan.size()].op;
      const double dur = compute_us(e, recvs[rank]);
      if (op.kind == OpKind::kForward) {
        fsum[op.stage] += dur / op.chunk;
        ++fn[op.stage];
      } else if (op.kind == OpKind::kBackward) {
        bsum[op.stage] += dur * op.half_count;
        ++bn[op.stage];
      }
    }
  }
  ReplayCosts costs;
  costs.forward_by_stage.resize(D);
  costs.backward_by_stage.resize(D);
  costs.recompute = meta.recompute;
  for (int s = 0; s < D; ++s) {
    CHIMERA_CHECK_MSG(fn[s] > 0 && bn[s] > 0,
                      "stage " << s << " has no measured forward/backward");
    const double f = fsum[s] / static_cast<double>(fn[s]);
    const double braw = bsum[s] / static_cast<double>(bn[s]);
    costs.forward_by_stage[s] = f;
    costs.backward_by_stage[s] = braw - (meta.recompute ? f : 0.0);
  }

  // Predicted timeline: the dependency-exact replay under the inverted
  // costs, comm at zero — the compute-only accounting the paper's bubble
  // ratios use. With armed-plan-time traces this reproduces the original
  // replay bitwise.
  const ReplayResult pred = replay(plan, costs);
  r.has_prediction = true;
  r.predicted_compute_makespan_us = pred.compute_makespan;
  r.predicted_bubble_ratio = pred.bubble_ratio();
  for (int rank = 0; rank < R; ++rank) {
    WorkerBubbleRow& row = r.workers[rank];
    row.predicted_busy_us = pred.busy[rank % D];
    row.predicted_bubble_us = pred.bubble[rank % D];
    row.predicted_fraction = pred.compute_makespan > 0.0
                                 ? row.predicted_bubble_us /
                                       pred.compute_makespan
                                 : 0.0;
  }

  // Critical-path micro-equivalents per (kind, stage): ∂makespan/∂cost via
  // a small forward difference (the core/perf_model.cc Cf/Cb technique,
  // here per stage). With recomputation a forward perturbation also touches
  // every backward; cancel it so the derivative isolates the forwards.
  std::vector<double> crit_f(D, 0.0), crit_b(D, 0.0);
  if (pred.compute_makespan > 0.0) {
    const double m0 = pred.compute_makespan;
    const double eps = m0 * 1e-8;
    for (int s = 0; s < D; ++s) {
      ReplayCosts cf = costs;
      cf.forward_by_stage[s] += eps;
      if (costs.recompute) cf.backward_by_stage[s] -= eps;
      crit_f[s] = (replay(plan, cf).compute_makespan - m0) / eps;
      ReplayCosts cb = costs;
      cb.backward_by_stage[s] += eps;
      crit_b[s] = (replay(plan, cb).compute_makespan - m0) / eps;
    }
  }

  // Perf-model error: measured per-micro-equivalent means vs FLOP-
  // proportional shares (backward = 2×forward), scaled so totals match.
  const Partition part = rebuild_partition(meta, sched);
  const int B = std::max(1, meta.micro_batch);
  std::vector<double> model_f(D, 0.0);
  double measured_total = 0.0, model_total = 0.0;
  for (int s = 0; s < D; ++s) {
    model_f[s] = part.stage_fwd_flops(s, B);
    measured_total += costs.forward_by_stage[s] + costs.backward_by_stage[s];
    model_total += 3.0 * model_f[s];
  }
  const double alpha = model_total > 0.0 ? measured_total / model_total : 0.0;
  for (int s = 0; s < D; ++s) {
    OpModelRow row;
    row.kind = EventKind::kForward;
    row.stage = s;
    row.samples = fn[s];
    row.measured_us = costs.forward_by_stage[s];
    row.model_us = alpha * model_f[s];
    row.error = row.model_us > 0.0
                    ? (row.measured_us - row.model_us) / row.model_us
                    : 0.0;
    row.critical = crit_f[s];
    r.model.push_back(row);
  }
  for (int s = 0; s < D; ++s) {
    OpModelRow row;
    row.kind = EventKind::kBackward;
    row.stage = s;
    row.samples = bn[s];
    row.measured_us = costs.backward_by_stage[s];
    row.model_us = alpha * 2.0 * model_f[s];
    row.error = row.model_us > 0.0
                    ? (row.measured_us - row.model_us) / row.model_us
                    : 0.0;
    row.critical = crit_b[s];
    r.model.push_back(row);
  }
  return r;
}

/// Serving/decode traces: inactive slots are skipped by design, so there is
/// no 1:1 plan walk to segment — measured whole-trace accounting plus
/// per-span plan consistency.
TraceReport analyze_measured(const TraceDoc& doc,
                             const PipelineSchedule& sched,
                             const ExecutionPlan& plan) {
  const int D = sched.depth;
  TraceReport r;
  r.meta = doc.meta;
  const auto ops = ops_by_rank(doc, D);
  const auto recvs = recvs_by_rank(doc, D);

  for (int rank = 0; rank < D; ++rank) {
    const auto& wplan = plan.worker_plan(rank);
    for (const TraceEvent* ep : ops[rank]) {
      const TraceEvent& e = *ep;
      CHIMERA_CHECK_MSG(e.op_index >= 0 &&
                            e.op_index < static_cast<int>(wplan.size()),
                        "rank " << rank << " span carries op_index "
                                << e.op_index << " outside its plan");
      const Op& op = wplan[e.op_index].op;
      const bool kind_ok =
          sched.decode ? (e.kind == EventKind::kPrefillOp ||
                          e.kind == EventKind::kDecodeOp)
                       : e.kind == EventKind::kForward;
      CHIMERA_CHECK_MSG(kind_ok, "rank " << rank << " op " << e.op_index
                                         << " recorded kind \""
                                         << event_kind_name(e.kind)
                                         << "\" mismatching the plan");
      CHIMERA_CHECK_MSG(e.micro == op.micro && e.stage == op.stage &&
                            e.pipe == op.pipe,
                        "rank " << rank << " op " << e.op_index
                                << " (micro/stage/pipe) disagrees with the "
                                   "plan");
    }
  }

  double origin = std::numeric_limits<double>::infinity();
  double last = -std::numeric_limits<double>::infinity();
  bool any = false;
  r.workers.resize(D);
  for (int rank = 0; rank < D; ++rank) {
    double busy = 0.0;
    for (const TraceEvent* e : ops[rank]) {
      origin = std::min(origin, e->t0_us);
      if (is_compute_kind(e->kind)) {
        busy += compute_us(*e, recvs[rank]);
        last = std::max(last, e->t1_us);
        any = true;
      }
    }
    r.workers[rank].rank = rank;
    r.workers[rank].busy_us = busy;
  }
  r.compute_makespan_us = any ? last - origin : 0.0;
  for (WorkerBubbleRow& row : r.workers) {
    row.bubble_us = r.compute_makespan_us - row.busy_us;
    row.bubble_fraction = r.compute_makespan_us > 0.0
                              ? row.bubble_us / r.compute_makespan_us
                              : 0.0;
  }
  r.measured_bubble_ratio = bubble_ratio_of(r.workers, r.compute_makespan_us);
  return r;
}

}  // namespace

TraceReport analyze_trace(const TraceDoc& doc) {
  const PipelineSchedule sched = rebuild_schedule(doc.meta);
  const ExecutionPlan plan(sched);
  if (doc.meta.workload == "training")
    return analyze_training(doc, sched, plan);
  return analyze_measured(doc, sched, plan);
}

std::vector<std::string> check_trace(const TraceDoc& doc) {
  std::vector<std::string> issues;
  for (std::size_t i = 1; i < doc.events.size(); ++i) {
    if (!trace_event_before(doc.events[i - 1], doc.events[i])) {
      issues.push_back("events out of trace_event_before order at index " +
                       std::to_string(i));
      break;
    }
  }
  std::map<long, long> sends, recvs;
  for (const TraceEvent& e : doc.events) {
    if (e.t1_us < e.t0_us)
      issues.push_back(std::string("negative-duration \"") +
                       event_kind_name(e.kind) + "\" span");
    if (is_instant_kind(e.kind) && e.t0_us != e.t1_us)
      issues.push_back(std::string("instant \"") + event_kind_name(e.kind) +
                       "\" with nonzero duration");
    if (is_plan_op(e.kind) && e.op_index < 0)
      issues.push_back(std::string("plan-op span \"") +
                       event_kind_name(e.kind) + "\" without an op_index");
    if (e.kind == EventKind::kSend) ++sends[e.tag];
    if (e.kind == EventKind::kRecv) ++recvs[e.tag];
  }
  if (sends != recvs) {
    long unmatched = 0;
    for (const auto& [tag, n] : sends) {
      auto it = recvs.find(tag);
      unmatched += std::abs(n - (it == recvs.end() ? 0 : it->second));
    }
    for (const auto& [tag, n] : recvs)
      if (sends.find(tag) == sends.end()) unmatched += n;
    issues.push_back("p2p send/recv tags unpaired (" +
                     std::to_string(unmatched) + " unmatched events)");
  }
  try {
    analyze_trace(doc);
  } catch (const CheckError& err) {
    issues.push_back(err.what());
  }
  return issues;
}

std::string format_report(const TraceReport& r) {
  std::ostringstream os;
  char line[256];
  const TraceMeta& m = r.meta;
  os << "trace: " << m.workload << " " << m.scheme << "  D=" << m.depth
     << " N=" << m.num_micro << " f=" << m.pipes_f << " scale=" << m.scale
     << " sync=" << m.sync << " recompute=" << (m.recompute ? 1 : 0)
     << " W=" << m.data_parallel << " B=" << m.micro_batch
     << " partition=" << m.partition << "\n";
  os << "model: hidden=" << m.hidden << " heads=" << m.heads
     << " layers=" << m.layers << " seq=" << m.seq << " vocab=" << m.vocab
     << "\n";
  if (r.iterations > 0)
    os << "iterations: " << r.iterations << "\n";
  std::snprintf(line, sizeof line, "compute makespan: %.3f us",
                r.compute_makespan_us);
  os << line;
  if (r.has_prediction) {
    std::snprintf(line, sizeof line, "  (predicted %.3f us)",
                  r.predicted_compute_makespan_us);
    os << line;
  }
  os << "\n";
  std::snprintf(line, sizeof line, "bubble ratio: measured %.6f",
                r.measured_bubble_ratio);
  os << line;
  if (r.has_prediction) {
    std::snprintf(line, sizeof line, "  predicted %.6f",
                  r.predicted_bubble_ratio);
    os << line;
  }
  os << "\n\n";

  os << "  rank      busy_us    bubble_us  fraction";
  if (r.has_prediction) os << "  pred_fraction";
  os << "\n";
  for (const WorkerBubbleRow& row : r.workers) {
    std::snprintf(line, sizeof line, "  %4d %12.3f %12.3f  %8.4f", row.rank,
                  row.busy_us, row.bubble_us, row.bubble_fraction);
    os << line;
    if (r.has_prediction) {
      std::snprintf(line, sizeof line, "       %8.4f", row.predicted_fraction);
      os << line;
    }
    os << "\n";
  }

  if (!r.model.empty()) {
    os << "\nper-op perf-model error (FLOP shares, backward = 2x forward; "
          "critical = critical-path micro-equivalents)\n";
    os << "  kind      stage  samples  measured_us     model_us    error%  "
          "critical\n";
    for (const OpModelRow& row : r.model) {
      std::snprintf(line, sizeof line,
                    "  %-9s %5d %8ld %12.3f %12.3f  %+7.2f%% %9.2f",
                    event_kind_name(row.kind), row.stage, row.samples,
                    row.measured_us, row.model_us, 100.0 * row.error,
                    row.critical);
      os << line << "\n";
    }
  }
  return os.str();
}

}  // namespace chimera::obs
