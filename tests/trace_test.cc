// Simulator trace export tests: the engine's run becomes a chimera-trace-v1
// document with one plan-op span per op, stamped with the engine's times,
// that round-trips through the strict parser and that trace_report's
// analysis reads like a measured trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "core/sync_placement.h"
#include "obs/report.h"
#include "obs/trace_json.h"
#include "sim/event_engine.h"

namespace chimera::sim {
namespace {

EngineCosts unit_costs(int depth) {
  EngineCosts c;
  c.forward_seconds.assign(depth, 1.0);
  c.backward_factor = 2.0;
  c.allreduce_seconds.assign(depth, 0.5);
  return c;
}

/// Training metadata for `s`, with the small model shape trace_report
/// needs to rebuild the partition.
obs::TraceMeta training_meta(Scheme scheme, const ScheduleConfig& sc,
                             SyncPolicy sync) {
  obs::TraceMeta m;
  m.workload = "training";
  m.scheme = scheme_name(scheme);
  m.depth = sc.depth;
  m.num_micro = sc.num_micro;
  m.pipes_f = sc.pipes_f;
  m.scale = scale_method_name(sc.scale);
  m.sync = sync_policy_name(sync);
  m.hidden = 32;
  m.heads = 4;
  m.layers = 8;
  m.seq = 8;
  m.vocab = 97;
  return m;
}

struct SimRun {
  PipelineSchedule schedule;
  EngineResult result;
  obs::TraceDoc doc;
};

SimRun simulate(Scheme scheme, const ScheduleConfig& sc, SyncPolicy sync) {
  SimRun run;
  run.schedule = with_gradient_sync(build_schedule(scheme, sc), sync);
  const ExecutionPlan plan(run.schedule);
  run.result = run_engine(plan, unit_costs(sc.depth));
  run.doc = engine_trace(plan, run.result, training_meta(scheme, sc, sync));
  return run;
}

TEST(SimTrace, OneSpanPerOpAtTheEngineTimes) {
  const SimRun run = simulate(
      Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect}, SyncPolicy::kEagerOpt);
  const PipelineSchedule& s = run.schedule;
  ASSERT_EQ(run.doc.events.size(), s.total_ops());
  std::size_t n = 0;
  for (int w = 0; w < s.depth; ++w)
    for (std::size_t i = 0; i < s.worker_ops[w].size(); ++i, ++n) {
      const obs::TraceEvent& e = run.doc.events[n];
      const Op& op = s.worker_ops[w][i];
      EXPECT_EQ(e.kind, obs::op_event_kind(op.kind));
      EXPECT_EQ(e.worker, w);
      EXPECT_EQ(e.lane, 0);
      EXPECT_EQ(e.op_index, static_cast<int>(i));
      EXPECT_EQ(e.micro, op.micro);
      EXPECT_EQ(e.stage, op.stage);
      EXPECT_EQ(e.pipe, op.pipe);
      EXPECT_EQ(e.t0_us, run.result.op_start[w][i] * 1e6);
      EXPECT_EQ(e.t1_us, run.result.op_end[w][i] * 1e6);
    }
  EXPECT_TRUE(std::is_sorted(run.doc.events.begin(), run.doc.events.end(),
                             obs::trace_event_before));
}

TEST(SimTrace, SpansCountedPerKind) {
  const SimRun run = simulate(
      Scheme::kDapple, {4, 8, 1, ScaleMethod::kDirect}, SyncPolicy::kAtEnd);
  std::map<obs::EventKind, int> count;
  for (const obs::TraceEvent& e : run.doc.events) ++count[e.kind];
  // 8 micro-batches × 4 stages forwards, same backwards.
  EXPECT_EQ(count[obs::EventKind::kForward], 32);
  EXPECT_EQ(count[obs::EventKind::kBackward], 32);
  // DAPPLE hosts one stage per worker: Begin+Wait per worker.
  EXPECT_EQ(count[obs::EventKind::kAllReduceBegin], 4);
  EXPECT_EQ(count[obs::EventKind::kAllReduceWait], 4);
}

TEST(SimTrace, StrictRoundTripAndFileWrite) {
  const SimRun run = simulate(
      Scheme::kGPipe, {2, 2, 1, ScaleMethod::kDirect}, SyncPolicy::kAtEnd);
  const std::string json = obs::trace_doc_to_json(run.doc);
  EXPECT_EQ(obs::trace_from_json(json), run.doc);
  EXPECT_EQ(obs::trace_doc_to_json(obs::trace_from_json(json)), json);

  const std::string path =
      ::testing::TempDir() + "chimera_trace_test.trace.json";
  ASSERT_TRUE(obs::write_trace(path, run.doc));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  const std::string content((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, json);
  std::remove(path.c_str());
}

TEST(SimTrace, TraceReportReadsTheSimulatedBubble) {
  const SimRun run = simulate(
      Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect}, SyncPolicy::kEagerOpt);
  ASSERT_TRUE(run.schedule.synchronous);
  EXPECT_TRUE(obs::check_trace(run.doc).empty());
  const obs::TraceReport rep = obs::analyze_trace(run.doc);
  EXPECT_EQ(rep.iterations, 1);
  const double want = run.result.bubble_ratio();
  ASSERT_GT(want, 0.0);
  EXPECT_LE(std::abs(rep.measured_bubble_ratio - want), 1e-12 * want);
}

}  // namespace
}  // namespace chimera::sim
