#include "bench.h"

#include <algorithm>
#include <cstdio>

#include "core/partition.h"
#include "obs/trace.h"
#include "workload.h"

namespace perfbench {

void Rung::merge(const Rung& slice) {
  rate = slice.rate;
  limit_s = slice.limit_s;
  sent += slice.sent;
  met += slice.met;
  outstanding.insert(outstanding.end(), slice.outstanding.begin(),
                     slice.outstanding.end());
  lateness_ms.insert(lateness_ms.end(), slice.lateness_ms.begin(),
                     slice.lateness_ms.end());
}

double ladder_goodput(const std::vector<Rung>& rungs) {
  auto pass = [](const Rung& r) {
    return r.attainment() >= kSloShare && r.steady();
  };
  int best = -1;
  for (int i = 0; i < static_cast<int>(rungs.size()); ++i) {
    const Rung& r = rungs[i];
    std::printf(
        "  rung %.1f req/s: %ld sent, %.3f met the limit, %.0f in flight at "
        "the last due time (median of %zu slices)%s; generator lateness p50 "
        "%.3f ms, max %.3f ms\n",
        r.rate, r.sent, r.attainment(), median(r.outstanding),
        r.outstanding.size(),
        r.steady() ? "" : " (backlog growing)", median(r.lateness_ms),
        percentile(r.lateness_ms, 100.0));
    if (pass(r)) best = i;
  }
  if (best < 0) return rungs.front().rate * rungs.front().attainment();
  if (best + 1 == static_cast<int>(rungs.size())) return rungs[best].rate;
  const Rung& lo = rungs[best];
  const Rung& hi = rungs[best + 1];
  // A rung that fails only on its backlog counts as just below the share.
  const double a_hi =
      hi.steady() ? hi.attainment() : std::min(hi.attainment(), kSloShare);
  const double span = lo.attainment() - a_hi;
  const double frac =
      span > 0.0 ? std::clamp((lo.attainment() - kSloShare) / span, 0.0, 1.0)
                 : 0.0;
  return lo.rate + frac * (hi.rate - lo.rate);
}

chimera::obs::TraceMeta trace_meta(const char* workload,
                                   const chimera::ScheduleConfig& sc,
                                   int micro_batch, const char* sync) {
  const chimera::nn::SmallModelConfig m = bench_model();
  chimera::obs::TraceMeta meta;
  meta.workload = workload;
  meta.scheme = chimera::scheme_name(chimera::Scheme::kChimera);
  meta.depth = sc.depth;
  meta.num_micro = sc.num_micro;
  meta.pipes_f = sc.pipes_f;
  meta.scale = chimera::scale_method_name(sc.scale);
  meta.sync = sync;
  meta.micro_batch = micro_batch;
  meta.partition = chimera::partition_policy_name(chimera::PartitionPolicy::kEven);
  meta.hidden = m.hidden;
  meta.heads = m.heads;
  meta.layers = m.layers;
  meta.seq = m.seq;
  meta.vocab = m.vocab;
  meta.causal = m.causal;
  return meta;
}

chimera::obs::TraceDoc finish_trace(const chimera::obs::TraceMeta& meta,
                                    const RunArgs& args, const char* name,
                                    Report& rep) {
  chimera::obs::TraceDoc doc;
  doc.meta = meta;
  doc.events = chimera::obs::collect();
  chimera::obs::reset();
  const std::string path = args.trace_dir + "/" + name + ".trace.json";
  if (chimera::obs::write_trace(path, doc))
    std::printf("trace: %zu events -> %s\n", doc.events.size(), path.c_str());
  else
    rep.fail("cannot write " + path);
  return doc;
}

std::vector<double> span_ms(const chimera::obs::TraceDoc& doc,
                            chimera::obs::EventKind kind) {
  std::vector<double> out;
  for (const chimera::obs::TraceEvent& e : doc.events)
    if (e.kind == kind) out.push_back((e.t1_us - e.t0_us) / 1000.0);
  return out;
}

}  // namespace perfbench
