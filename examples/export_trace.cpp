// Export a simulated pipeline execution as a chimera-trace-v1 document, the
// format the runtime records — the paper's schedule diagrams (Fig. 2/3/7/8)
// to open in chrome://tracing, https://ui.perfetto.dev or trace_report:
//
//   $ ./examples/export_trace [scheme] [D] [N] [out.json]
//     scheme ∈ {chimera, gpipe, dapple, gems, 1f1b}; default chimera 8 8
//   $ ./tools/trace_report out.json [--check]
//
// The engine bills forward = 1 unit, backward = 2 units and the eager-opt
// gradient-sync placement, so the exported timeline matches the practical
// schedules in the paper (uneven forward/backward, overlapped allreduce).
// The trace names that deployment and a small GPT model (nn::stage.h), from
// which trace_report rebuilds the plan and the layer partition.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sync_placement.h"
#include "nn/stage.h"
#include "obs/trace_json.h"
#include "sim/event_engine.h"
#include "support/timeline.h"

using namespace chimera;

int main(int argc, char** argv) {
  Scheme scheme = Scheme::kChimera;
  int D = 8, N = 8;
  std::string path = "pipeline_trace.json";
  if (argc > 1) {
    const std::string s = argv[1];
    if (s == "gpipe") scheme = Scheme::kGPipe;
    else if (s == "dapple") scheme = Scheme::kDapple;
    else if (s == "gems") scheme = Scheme::kGems;
    else if (s == "1f1b") scheme = Scheme::kOneF1B;
    else if (s != "chimera") {
      std::fprintf(stderr, "unknown scheme %s\n", s.c_str());
      return 1;
    }
  }
  if (argc > 2) D = std::atoi(argv[2]);
  if (argc > 3) N = std::atoi(argv[3]);
  if (argc > 4) path = argv[4];

  PipelineSchedule sched =
      build_schedule(scheme, {D, N, 1, ScaleMethod::kDirect});
  validate(sched);
  sched = with_gradient_sync(sched, SyncPolicy::kEagerOpt);
  const ExecutionPlan plan(sched);

  sim::EngineCosts costs;
  costs.forward_seconds.assign(D, 1.0);
  costs.backward_factor = 2.0;
  costs.allreduce_seconds.assign(D, 1.0);
  costs.begin_cpu_fraction = 0.1;
  const sim::EngineResult r = run_engine(plan, costs);

  std::printf("%s D=%d N=%d: makespan %.1f units, bubble ratio %.1f%%\n",
              scheme_name(scheme), D, N, r.makespan, 100.0 * r.bubble_ratio());
  std::printf("%s\n", render_timeline(sched).c_str());
  nn::SmallModelConfig model;
  model.layers = std::max(model.layers, D);  // every stage hosts a layer
  const obs::TraceMeta meta{
      .workload = "training", .scheme = scheme_name(scheme), .depth = D,
      .num_micro = N, .sync = sync_policy_name(SyncPolicy::kEagerOpt),
      .hidden = model.hidden, .heads = model.heads, .layers = model.layers,
      .seq = model.seq, .vocab = model.vocab, .causal = model.causal};
  if (!obs::write_trace(path, sim::engine_trace(plan, r, meta))) return 1;
  std::printf("trace written to %s — open in perfetto or run trace_report\n",
              path.c_str());
  return 0;
}
