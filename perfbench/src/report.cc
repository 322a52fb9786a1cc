#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tensor/compute_pool.h"
#include "tensor/kernels.h"

namespace perfbench {

std::vector<double> to_ms(std::vector<double> seconds) {
  for (double& x : seconds) x *= 1000.0;
  return seconds;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Tail tail(const std::vector<double>& v, double nominal_pct) {
  const double n = static_cast<double>(v.size());
  // Ten samples beyond percentile p means n·(1 − p/100) ≥ 10.
  const double supported = n > 0 ? 100.0 * (1.0 - 10.0 / n) : 0.0;
  Tail t;
  t.pct = std::max(50.0, std::min(nominal_pct, supported));
  t.value = percentile(v, t.pct);
  return t;
}

std::vector<double> quiet_samples(
    const std::vector<std::vector<double>>& slices, std::size_t window) {
  std::vector<std::vector<double>> windows;
  for (const std::vector<double>& s : slices) {
    if (s.empty()) continue;
    if (s.size() < window) windows.push_back(s);
    for (std::size_t i = 0; i + window <= s.size(); i += window)
      windows.emplace_back(s.begin() + i, s.begin() + i + window);
  }
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t i = 0; i < windows.size(); ++i)
    order.emplace_back(median(windows[i]), i);
  std::sort(order.begin(), order.end());
  const std::size_t keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(kQuietShare * static_cast<double>(order.size()))));
  std::vector<double> out;
  for (std::size_t k = 0; k < std::min(keep, order.size()); ++k) {
    const std::vector<double>& w = windows[order[k].second];
    out.insert(out.end(), w.begin(), w.end());
  }
  return out;
}

std::string Tail::label() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%.3g", pct);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, long samples,
                 const std::string& note) {
  metrics_[name] = Entry{value, unit, samples, note};
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::printf("FAILED: %s\n", why.c_str());
}

void Report::incorrect(const std::string& why) {
  correct_ = false;
  std::printf("INCORRECT: %s\n", why.c_str());
}

void Report::print() const {
  std::printf("\n%-34s %16s %-8s %8s  %s\n", "metric", "value", "unit",
              "samples", "how");
  for (const auto& [name, e] : metrics_)
    std::printf("%-34s %16.6g %-8s %8ld  %s\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples, e.note.c_str());
  std::printf("operations: %ld attempted, %ld failed; outputs %s\n",
              attempted_, failed_, correct_ ? "correct" : "INCORRECT");
  std::string json = "{\"correct\": ";
  json += correct_ && failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max(attempted_, 1L));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(e.value) ? e.value : -1.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num +
            ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_host(int ranks) {
  const int cpus = cpus_available();
  const int helpers = chimera::ComputePool::instance().helpers();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool fma = __builtin_cpu_supports("fma");
  const char* pin = std::getenv("CHIMERA_KERNEL_TIER");
  // The load thread blocks inside every engine call it makes (iterations,
  // rounds, steps) or sleeps until the next due time, so only rank and
  // helper threads compete for cores.
  const bool oversubscribed = ranks + helpers > cpus;
  std::printf(
      "host: nproc=%d avx2=%d fma=%d kernel_policy=%s kernel_tier=%s "
      "CHIMERA_KERNEL_TIER=%s\n"
      "threads: %d ranks + %d helpers + 1 load thread on %d cores%s\n",
      cpus, avx2, fma,
      chimera::kernel_policy_name(chimera::kernel_policy()),
      chimera::kernel_tier_name(chimera::active_kernel_tier()),
      pin ? pin : "(unset)", ranks, helpers, cpus,
      oversubscribed ? "  OVERSUBSCRIBED" : "");
}

}  // namespace perfbench
