// Entry points of the three workloads and the layer probes, plus the pieces
// they share: run arguments, the open-loop ladder verdicts and the trace
// helpers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "obs/trace_json.h"
#include "report.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run
  bool trace = false;
  std::string trace_dir;  ///< where traced runs write their Perfetto traces
};

/// Engines a run constructs, one after another. Each is set up (timed) and
/// then carries an equal slice of the measurement: fresh engines in one
/// process differed by up to 30% in decode throughput, so pooling slices
/// from several engines keeps the run-to-run spread down.
constexpr int kEngines = 5;

// ---- end-to-end runs (tracing off): every end-to-end metric -------------
void train_end_to_end(const RunArgs& args, Report& rep);
void serve_end_to_end(const RunArgs& args, Report& rep);
void decode_end_to_end(const RunArgs& args, Report& rep);

// ---- traced segments: the engine-derived per-layer metrics --------------
// Each runs its engine for `seconds` with the span recorder on, writes the
// trace to `trace_dir/<workload>.trace.json`, and reads the layer metrics
// off the trace and the engine's counters. With `overhead` set it first
// runs the same load untraced for `seconds` and records obs.overhead_share.
void train_traced(const RunArgs& args, double seconds, bool overhead,
                  Report& rep);
void serve_traced(const RunArgs& args, double seconds, bool overhead,
                  Report& rep);
void decode_traced(const RunArgs& args, double seconds, bool overhead,
                   Report& rep);

/// Benchmark-side timing of each module's public functions (nn stages,
/// tensor kernels, comm, optim, WorkerPool dispatch, core planning).
void layer_probes(const RunArgs& args, Report& rep);

// ---- open-loop ladder ---------------------------------------------------
/// One rung of an open-loop phase, accumulated over the engines it ran on.
struct Rung {
  double rate = 0.0;     ///< offered requests per second
  double limit_s = 0.0;  ///< completion time of a request within the limits
  long sent = 0;         ///< requests due in the rung
  long met = 0;          ///< requests that met the latency limits
  /// Unfinished requests when each slice's last request was due.
  std::vector<double> outstanding;
  std::vector<double> lateness_ms;  ///< generator: submit time − due time

  double attainment() const {
    return sent > 0 ? static_cast<double>(met) / static_cast<double>(sent)
                    : 0.0;
  }
  /// No growing backlog: what is still in flight when the last request is
  /// due fits in what the offered rate keeps in flight within the limit
  /// (Little's law), in the median slice. A burst of host load at the end
  /// of one slice leaves a backlog that drains; a rate past capacity leaves
  /// one in every slice.
  bool steady() const {
    return median(outstanding) <= rate * limit_s + 1.0;
  }
  void merge(const Rung& slice);
};

/// Share of a rung's requests that must meet the latency limits.
constexpr double kSloShare = 0.9;

/// Goodput of a ladder: the highest rate whose rung meets kSloShare with no
/// growing backlog, refined toward the next rung by linear interpolation of
/// the attainment, so that a small change in capacity moves the figure by a
/// small amount instead of a whole rung. When no rung passes, the lowest
/// rate times its attainment. Prints one line per rung.
double ladder_goodput(const std::vector<Rung>& rungs);

// ---- trace helpers -------------------------------------------------------
/// Self-contained trace metadata for one engine deployment.
chimera::obs::TraceMeta trace_meta(const char* workload,
                                   const chimera::ScheduleConfig& sc,
                                   int micro_batch, const char* sync);

/// Collects every recorded event into a document, resets the recorder, and
/// writes the document to `trace_dir/<name>.trace.json`.
chimera::obs::TraceDoc finish_trace(const chimera::obs::TraceMeta& meta,
                                    const RunArgs& args, const char* name,
                                    Report& rep);

/// Durations in ms of the spans of `kind` in `doc`.
std::vector<double> span_ms(const chimera::obs::TraceDoc& doc,
                            chimera::obs::EventKind kind);

}  // namespace perfbench
