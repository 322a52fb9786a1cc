// perfbench: the repository benchmark. One process, one load thread, three
// workloads through the public engine APIs.
//
//   perfbench --workload train|serve|decode --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs every engine with the span recorder on (the named workload for
// longer, and untraced as well for the tracing overhead), writes one
// Perfetto trace per engine into DIR, and adds the benchmark-side layer
// probes. Either way every output is checked, and the last line of stdout
// is the JSON result. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "workload.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|serve|decode --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.trace_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(val);
    else if (key == "--trace") args.trace = std::atoi(val) != 0;
    else if (key == "--trace-dir") args.trace_dir = val;
    else return usage();
  }
  if (argc % 2 != 1 || args.seconds <= 0.0 ||
      (args.workload != "train" && args.workload != "serve" &&
       args.workload != "decode"))
    return usage();

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report rep;
  std::string why;
  if (!loadgen_self_test(args.seed, bench_model(), &why)) rep.incorrect(why);
  try {
    if (!args.trace) {
      if (args.workload == "train") train_end_to_end(args, rep);
      if (args.workload == "serve") serve_end_to_end(args, rep);
      if (args.workload == "decode") decode_end_to_end(args, rep);
    } else {
      // The named workload gets the long traced segment plus an untraced
      // twin for obs.overhead_share; the other engines run a short traced
      // segment so that every per-layer metric is present in every run.
      const double own = 0.3 * args.seconds, other = 0.1 * args.seconds;
      const std::string& w = args.workload;
      train_traced(args, w == "train" ? own : other, w == "train", rep);
      serve_traced(args, w == "serve" ? own : other, w == "serve", rep);
      decode_traced(args, w == "decode" ? own : other, w == "decode", rep);
      layer_probes(args, rep);
    }
  } catch (const std::exception& e) {
    rep.fail(std::string("uncaught: ") + e.what());
  }
  print_host(kDepth);
  rep.print();
  return 0;
}
