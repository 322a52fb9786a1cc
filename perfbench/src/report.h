// Result accounting for one benchmark run: named metrics with units and
// sample counts, operation attempts and failures, the percentile rules the
// benchmark reports timings with, and the host fingerprint.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds to milliseconds, element-wise.
std::vector<double> to_ms(std::vector<double> seconds);

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// A tail percentile as the benchmark reports it: the nominal percentile
/// when at least ten samples lie beyond it, otherwise the highest
/// percentile that still has ten samples beyond it.
struct Tail {
  double value = 0.0;
  double pct = 0.0;  ///< the percentile actually used
  /// "p99" or, when the sample cannot support it, e.g. "p97.3".
  std::string label() const;
};
Tail tail(const std::vector<double>& v, double nominal_pct);

/// Share of a run's windows whose samples the timing metrics summarize.
constexpr double kQuietShare = 0.25;

/// The samples of the quietest stretches of a run. The benchmark runs on a
/// shared host whose speed swings by tens of percent from second to second
/// with the load of its other tenants; a slower program is slower in every
/// stretch, a busier host only in some. Splits each slice of time-ordered
/// samples (one per engine) into consecutive windows of `window` samples,
/// drops a slice's partial last window, ranks all windows by their median,
/// and returns the samples of the fastest kQuietShare of the windows, at
/// least one. A slice shorter than one window counts as one window.
std::vector<double> quiet_samples(
    const std::vector<std::vector<double>>& slices, std::size_t window);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Logical CPUs this process may run on.
int cpus_available();

/// Everything one run prints: the human-readable table on stdout and, as
/// the last line, the JSON result object.
class Report {
 public:
  /// Records metric `name`. `samples` is how many measurements the value
  /// summarizes; `note` says how (printed, not part of the JSON line).
  void set(const std::string& name, double value, const std::string& unit,
           long samples, const std::string& note = "");

  void attempt(long n = 1) { attempted_ += n; }
  /// Counts one failed operation and prints why.
  void fail(const std::string& why);
  /// Marks the run incorrect (a broken output or self-test) without an
  /// operation to charge it to.
  void incorrect(const std::string& why);

  /// Prints the metric table followed by the one-line JSON result
  /// {"correct", "attempted", "failed", "metrics"}.
  void print() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    long samples = 0;
    std::string note;
  };
  std::map<std::string, Entry> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
  bool correct_ = true;
};

/// Prints the host fingerprint and the thread budget of the run: cores,
/// AVX2/FMA support, the kernel tier engines resolved to, any
/// CHIMERA_KERNEL_TIER pin, and ranks + helpers + load thread against the
/// cores, flagged when rank and helper threads oversubscribe the host.
void print_host(int ranks);

}  // namespace perfbench
