// verify_plan: certify one exported ExecutionPlan document, or export one.
//
//   verify_plan <plan.json>          verify a document ("-" reads stdin)
//   verify_plan --export <scheme> <depth> <micro> [f]
//                                    build + lower + export to stdout
//
// Exit status: 0 when the plan is certified (or the export succeeded),
// 1 when diagnostics were found, 2 on usage / IO errors. The two modes
// compose: `verify_plan --export chimera 4 8 | verify_plan -`.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/execution_plan.h"
#include "core/plan_json.h"
#include "core/schedule.h"
#include "core/sync_placement.h"
#include "support/check.h"
#include "verify/verifier.h"

namespace {

int usage() {
  std::cerr << "usage: verify_plan <plan.json | ->\n"
               "       verify_plan --export <scheme> <depth> <micro> [f]\n"
               "schemes: chimera gpipe dapple gems pipedream pipedream-2bw "
               "1f1b\n";
  return 2;
}

bool parse_scheme(const std::string& name, chimera::Scheme& out) {
  using chimera::Scheme;
  if (name == "chimera") out = Scheme::kChimera;
  else if (name == "gpipe") out = Scheme::kGPipe;
  else if (name == "dapple") out = Scheme::kDapple;
  else if (name == "gems") out = Scheme::kGems;
  else if (name == "pipedream") out = Scheme::kPipeDream;
  else if (name == "pipedream-2bw") out = Scheme::kPipeDream2BW;
  else if (name == "1f1b") out = Scheme::kOneF1B;
  else return false;
  return true;
}

/// A whole-argument decimal int; false on garbage or out-of-range values.
bool parse_int(const char* arg, int& out) {
  const char* end = arg + std::strlen(arg);
  const auto [last, ec] = std::from_chars(arg, end, out);
  return ec == std::errc() && last == end;
}

int run_export(int argc, char** argv) {
  if (argc < 5 || argc > 6) return usage();
  chimera::Scheme scheme;
  if (!parse_scheme(argv[2], scheme)) return usage();
  chimera::ScheduleConfig cfg;
  if (!parse_int(argv[3], cfg.depth) || !parse_int(argv[4], cfg.num_micro) ||
      (argc == 6 && !parse_int(argv[5], cfg.pipes_f)))
    return usage();
  try {
    chimera::PipelineSchedule schedule = chimera::build_schedule(scheme, cfg);
    schedule = chimera::with_gradient_sync(schedule,
                                           chimera::SyncPolicy::kEagerOpt);
    const chimera::ExecutionPlan plan(schedule);
    std::cout << chimera::plan_to_json(plan);
  } catch (const chimera::CheckError& e) {
    std::cerr << "verify_plan: cannot build: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--export")
    return run_export(argc, argv);
  if (argc != 2) return usage();

  std::string json;
  const std::string path = argv[1];
  if (path == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    json = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "verify_plan: cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json = buffer.str();
  }

  const chimera::verify::Diagnostics diags =
      chimera::verify::verify_json(json);
  if (diags.empty()) {
    std::cout << "plan certified: no diagnostics\n";
    return 0;
  }
  for (const auto& d : diags) std::cout << d.str() << "\n";
  std::cout << diags.size() << " diagnostic(s)\n";
  return 1;
}
