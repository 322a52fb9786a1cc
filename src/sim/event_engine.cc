#include "sim/event_engine.h"

#include <algorithm>
#include <queue>

#include "core/schedule_analysis.h"
#include "support/rng.h"

namespace chimera::sim {
namespace {

constexpr double kUnknown = -1.0;

struct Event {
  double time;
  int worker;  // worker to poke
  bool operator>(const Event& other) const { return time > other.time; }
};

/// Flattened per-op runtime state.
struct OpState {
  std::vector<OpRef> deps;
  /// Availability time of each dep: same-worker deps become available at the
  /// producer's end; cross-worker deps when the message arrives.
  std::vector<double> dep_avail;
  int unresolved = 0;
};

double compute_duration(const Op& op, const EngineCosts& c) {
  switch (op.kind) {
    case OpKind::kForward:
      return c.forward_seconds.at(op.stage) * op.chunk *
             (op.chunk > 1 ? c.double_forward_scale : 1.0);
    case OpKind::kBackward:
      return c.forward_seconds.at(op.stage) * c.backward_factor /
             op.half_count * (op.half_count > 1 ? c.half_backward_scale : 1.0);
    case OpKind::kAllReduceBegin:
      return c.begin_cpu_fraction *
             (c.allreduce_seconds.empty() ? 0.0
                                          : c.allreduce_seconds.at(op.stage));
    case OpKind::kAllReduceWait:
      return 0.0;
  }
  return 0.0;
}

double message_bytes(const Op& consumer, const EngineCosts& c) {
  if (consumer.kind == OpKind::kForward)
    return c.boundary_bytes * consumer.chunk;
  if (consumer.kind == OpKind::kBackward)
    return c.boundary_bytes / consumer.half_count;
  return 0.0;
}

}  // namespace

double EngineResult::bubble_ratio() const {
  if (compute_makespan <= 0.0 || busy.empty()) return 0.0;
  double total = 0.0;
  for (double b : busy) total += compute_makespan - b;
  return total / (compute_makespan * static_cast<double>(busy.size()));
}

EngineResult run_engine(const ExecutionPlan& plan, const EngineCosts& costs) {
  const PipelineSchedule& schedule = plan.schedule();
  const int D = schedule.depth;
  Rng rng(costs.seed);

  // --- static setup: the plan's precomputed deps + reverse edges ----------
  std::vector<std::vector<OpState>> state(D);
  // dependents[producer worker][producer op] -> list of consumer refs with
  // the slot of this dep in the consumer's dep list.
  struct Dependent {
    OpRef consumer;
    int dep_slot;
  };
  std::vector<std::vector<std::vector<Dependent>>> dependents(D);
  for (int w = 0; w < D; ++w) {
    state[w].resize(schedule.worker_ops[w].size());
    dependents[w].resize(schedule.worker_ops[w].size());
  }
  for (int w = 0; w < D; ++w) {
    for (int i = 0; i < static_cast<int>(schedule.worker_ops[w].size()); ++i) {
      const std::vector<OpRef>& deps = plan.worker_plan(w)[i].deps;
      OpState& st = state[w][i];
      st.deps = deps;
      st.dep_avail.assign(deps.size(), kUnknown);
      st.unresolved = static_cast<int>(deps.size());
      for (int d = 0; d < static_cast<int>(deps.size()); ++d)
        dependents[deps[d].worker][deps[d].index].push_back({OpRef{w, i}, d});
    }
  }

  EngineResult result;
  result.busy.assign(D, 0.0);
  result.op_start.resize(D);
  result.op_end.resize(D);
  for (int w = 0; w < D; ++w) {
    result.op_start[w].assign(schedule.worker_ops[w].size(), kUnknown);
    result.op_end[w].assign(schedule.worker_ops[w].size(), kUnknown);
  }

  std::vector<int> next(D, 0);
  std::vector<double> worker_free(D, 0.0);
  std::vector<double> link_free(D, 0.0);
  // Collective bookkeeping per stage: number of Begins still outstanding and
  // the latest Begin completion.
  std::vector<int> ar_missing(schedule.depth, 0);
  std::vector<double> ar_last_begin(schedule.depth, 0.0);
  std::vector<double> ar_done(schedule.depth, kUnknown);
  std::vector<double> coll_link_free(D, 0.0);
  for (int w = 0; w < D; ++w)
    for (const Op& op : schedule.worker_ops[w])
      if (op.kind == OpKind::kAllReduceBegin) ++ar_missing[op.stage];

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  for (int w = 0; w < D; ++w) queue.push({0.0, w});

  std::size_t remaining = schedule.total_ops();
  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    const int w = ev.worker;
    if (next[w] >= static_cast<int>(schedule.worker_ops[w].size())) continue;
    const int i = next[w];
    const Op& op = schedule.worker_ops[w][i];
    OpState& st = state[w][i];
    if (st.unresolved > 0) continue;  // poked again when deps resolve

    double start = std::max(ev.time, worker_free[w]);
    for (double a : st.dep_avail) start = std::max(start, a);
    if (op.kind == OpKind::kAllReduceWait) {
      CHIMERA_CHECK_MSG(ar_done[op.stage] != kUnknown,
                        "wait scheduled before collective completion known");
      start = std::max(start, ar_done[op.stage]);
    }
    if (start > ev.time + 1e-15) {
      queue.push({start, w});  // not actually ready yet; retry at `start`
      continue;
    }

    double dur = compute_duration(op, costs);
    if (costs.jitter > 0.0 && op.is_compute()) {
      Rng op_rng = rng.split(static_cast<std::uint64_t>(w) * 1000003u + i);
      dur *= std::max(0.2, 1.0 + costs.jitter * op_rng.normal());
    }
    const double end = start + dur;
    result.op_start[w][i] = start;
    result.op_end[w][i] = end;
    worker_free[w] = end;
    result.makespan = std::max(result.makespan, end);
    if (op.is_compute()) {
      result.busy[w] += dur;
      result.compute_makespan = std::max(result.compute_makespan, end);
    }

    if (op.kind == OpKind::kAllReduceBegin) {
      ar_last_begin[op.stage] = std::max(ar_last_begin[op.stage], end);
      if (--ar_missing[op.stage] == 0) {
        const double coll =
            costs.allreduce_seconds.empty() ? 0.0 : costs.allreduce_seconds[op.stage];
        // A collective occupies the network interface of every participant,
        // so collectives sharing a worker serialize behind each other (the
        // host-based GLOO reality). This is what eager placement exploits:
        // early stages' allreduces drain during bubbles instead of queueing
        // together after the flush.
        double coll_start = ar_last_begin[op.stage];
        for (int g : plan.allreduce_group(op.stage))
          coll_start = std::max(coll_start, coll_link_free[g]);
        ar_done[op.stage] = coll_start + coll;
        for (int g : plan.allreduce_group(op.stage)) {
          coll_link_free[g] = ar_done[op.stage];
          queue.push({ar_done[op.stage], g});
        }
      }
    }

    // Resolve dependents: same-worker edges complete at `end`; cross-worker
    // edges go through the serializing out-link.
    for (const Dependent& dep : dependents[w][i]) {
      const Op& consumer = schedule.op(dep.consumer);
      double avail = end;
      if (dep.consumer.worker != w && consumer.is_compute()) {
        const bool intra =
            costs.node_size > 0 &&
            w / costs.node_size == dep.consumer.worker / costs.node_size;
        const double beta = intra ? costs.intra_beta : costs.beta;
        const double alpha = intra ? costs.intra_alpha : costs.alpha;
        const double bytes = message_bytes(consumer, costs);
        const double send_end = std::max(link_free[w], end) + beta * bytes;
        link_free[w] = send_end;
        avail = send_end + alpha;
      }
      OpState& cst = state[dep.consumer.worker][dep.consumer.index];
      cst.dep_avail[dep.dep_slot] = avail;
      if (--cst.unresolved == 0)
        queue.push({avail, dep.consumer.worker});
    }

    ++next[w];
    --remaining;
    queue.push({end, w});  // try this worker's next op once free
  }
  CHIMERA_CHECK_MSG(remaining == 0,
                    "event engine stalled with " << remaining << " ops left");
  return result;
}

EngineResult run_engine(const PipelineSchedule& schedule,
                        const EngineCosts& costs) {
  return run_engine(ExecutionPlan(schedule), costs);
}

obs::TraceDoc engine_trace(const ExecutionPlan& plan,
                           const EngineResult& result,
                           const obs::TraceMeta& meta) {
  const PipelineSchedule& s = plan.schedule();
  CHIMERA_CHECK(result.op_start.size() == static_cast<std::size_t>(s.depth));
  obs::TraceDoc doc;
  doc.meta = meta;
  for (int w = 0; w < s.depth; ++w) {
    const std::vector<PlannedOp>& ops = plan.worker_plan(w);
    CHIMERA_CHECK(result.op_start[w].size() == ops.size() &&
                  result.op_end[w].size() == ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Op& op = ops[i].op;
      doc.events.push_back(
          {.kind = s.decode ? obs::EventKind::kDecodeOp
                            : obs::op_event_kind(op.kind),
           .worker = w, .micro = op.micro, .stage = op.stage, .pipe = op.pipe,
           .op_index = static_cast<int>(i),
           .t0_us = result.op_start[w][i] * 1e6,
           .t1_us = result.op_end[w][i] * 1e6, .seq = i});
    }
  }
  return doc;
}

}  // namespace chimera::sim
