// Workload `serve`: a ServingEngine (Chimera f=1, D=4, nonzero batch
// deadline) fed full-length requests. The offline phase drains queued
// backlogs of one full round each; the open-loop phase offers Poisson
// arrivals at a ladder of fixed rates to the running engine. This is the
// stash-free infer path with padded micro-batches and a head-dominated last
// stage: no backward, optimizer, allreduce or KV cache, so a forward-path
// change that helps `train` but costs serving shows up here.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "runtime/serving.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace chimera;

constexpr int kRoundRequests = kServeSlots * kServeBatch;
constexpr int kWarmupRounds = 2;
/// The ladder. Latency is reported at the middle rung, well below the
/// open-loop capacity of a 4-core AVX-512 host (about 200 req/s: partial
/// rounds waste slots), where queueing does not amplify host noise. The top
/// rung is well past capacity, so that the ladder always brackets the
/// goodput, and short, so that its backlog drains well within kTimeoutS.
constexpr double kRates[] = {50.0, 100.0, 600.0};
constexpr int kMidRung = 1;
constexpr double kLatencyLimitS = 0.300;
/// quiet_samples windows, each about half a second: offline rounds, and
/// middle-rung requests in the order they complete.
constexpr std::size_t kRoundWindow = 5;
constexpr std::size_t kLatencyWindow = 50;
/// A request not answered this long after it was due counts as failed.
constexpr double kTimeoutS = 10.0;

ScheduleConfig serve_config() {
  return ScheduleConfig{kDepth, kServeSlots, 1, ScaleMethod::kDirect};
}

rt::ServeOptions serve_options() {
  rt::ServeOptions o;
  o.max_batch = kServeBatch;
  o.batch_deadline_us = kServeDeadlineUs;
  o.intra_op = 0;
  return o;
}

class ServeLoad {
 public:
  ServeLoad(const RunArgs& args, Report& rep)
      : rep_(rep), model_(bench_model()), gen_(args.seed, model_) {}

  double tokens_per_round() const {
    return static_cast<double>(kRoundRequests) * model_.seq;
  }

  /// Constructs a fresh engine and serves the warm-up rounds; returns the
  /// seconds taken.
  double setup() {
    engine_.reset();
    checks_left_ = 0;
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<rt::ServingEngine>(
        model_, Scheme::kChimera, serve_config(), serve_options());
    for (int i = 0; i < kWarmupRounds; ++i) drain_round();
    const double secs = seconds_since(t0);
    if (!chain_) chain_ = std::make_unique<StageChain>(model_, engine_->partition());
    checks_left_ = 1;
    return secs;
  }

  /// Offline phase: one-round backlogs drained back to back for `seconds`.
  /// Returns each drain's seconds.
  std::vector<double> offline(double seconds) {
    std::vector<double> rounds;
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < seconds) rounds.push_back(drain_round());
    return rounds;
  }

  /// Open-loop phase at `rate` for `duration` seconds on the running
  /// engine. Appends each answered request's latency from its due time.
  Rung open_rung(double rate, double duration, std::uint64_t stream,
                 std::vector<double>* latency_ms) {
    const std::vector<Arrival> schedule =
        gen_.poisson(rate, duration, false, stream);
    Rung rung;
    rung.rate = rate;
    rung.limit_s = kLatencyLimitS;
    rung.sent = static_cast<long>(schedule.size());
    std::map<std::uint64_t, double> late_s;  // by request id
    auto collect = [&] {
      for (rt::ServeResult& r : engine_->take_completed()) {
        const auto it = late_s.find(r.id);
        if (it == late_s.end()) continue;
        const double lat = it->second + r.latency_us() * 1e-6;
        late_s.erase(it);
        latency_ms->push_back(lat * 1000.0);
        if (lat <= kLatencyLimitS) ++rung.met;
        keep_for_check(r);
      }
    };
    const Clock::time_point t0 = Clock::now();
    for (const Arrival& a : schedule) {
      while (seconds_since(t0) < a.due_s) {
        collect();
        const double wait = a.due_s - seconds_since(t0);
        if (wait > 0)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(wait, 0.0005)));
      }
      const double late = seconds_since(t0) - a.due_s;
      rung.lateness_ms.push_back(late * 1000.0);
      if (const std::uint64_t id = submit(a.prompt)) late_s[id] = late;
    }
    collect();
    rung.outstanding = {static_cast<double>(late_s.size())};
    const double end = schedule.empty() ? 0.0 : schedule.back().due_s;
    while (!late_s.empty() && seconds_since(t0) < end + kTimeoutS) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      collect();
    }
    for (std::size_t i = 0; i < late_s.size(); ++i)
      rep_.fail("serve request not answered within the timeout");
    return rung;
  }

  /// Compares the kept results with the StageModule::infer chain. Called
  /// between phases, so reference compute never delays a timed request.
  void verify() {
    for (const auto& [prompt, logits] : kept_) {
      const double d = max_rel_diff(logits, chain_->logits(prompt));
      if (!(d <= 1e-4))
        rep_.fail("serve logits differ from the StageModule::infer chain "
                  "by " + std::to_string(d));
    }
    kept_.clear();
  }

  rt::ServingEngine& engine() { return *engine_; }
  /// Keeps the next `n` answered requests for verify().
  void check_next(int n) { checks_left_ = n; }

 private:
  /// Submits one request; returns its id, or 0 when it was refused.
  std::uint64_t submit(std::vector<int> prompt) {
    rep_.attempt();
    try {
      const std::uint64_t id = engine_->submit(prompt);
      if (checks_left_ > 0) prompts_[id] = std::move(prompt);
      return id;
    } catch (const rt::RequestError& e) {
      rep_.fail(std::string("submit refused: ") + e.what());
      return 0;
    }
  }

  /// Queues one full round of requests and drains it; returns the seconds
  /// the drain took.
  double drain_round() {
    for (int i = 0; i < kRoundRequests; ++i) submit(gen_.serve_prompt());
    const Clock::time_point t0 = Clock::now();
    std::vector<rt::ServeResult> done = engine_->serve_pending();
    const double secs = seconds_since(t0);
    for (long i = static_cast<long>(done.size()); i < kRoundRequests; ++i)
      rep_.fail("serve_pending returned too few results");
    if (!done.empty()) keep_for_check(done.front());
    prompts_.clear();
    return secs;
  }

  /// Keeps a result and its prompt for verify() while checks remain.
  void keep_for_check(rt::ServeResult& r) {
    const auto it = prompts_.find(r.id);
    if (it == prompts_.end()) return;
    if (checks_left_ > 0) {
      --checks_left_;
      kept_.emplace_back(std::move(it->second), std::move(r.logits));
    }
    prompts_.erase(it);
  }

  Report& rep_;
  nn::SmallModelConfig model_;
  LoadGen gen_;
  std::unique_ptr<rt::ServingEngine> engine_;
  std::unique_ptr<StageChain> chain_;
  std::map<std::uint64_t, std::vector<int>> prompts_;  ///< may be checked
  std::vector<std::pair<std::vector<int>, Tensor>> kept_;  ///< to verify
  int checks_left_ = 0;
};

}  // namespace

void serve_end_to_end(const RunArgs& args, Report& rep) {
  ServeLoad load(args, rep);
  const double slice = args.seconds / kEngines;
  std::vector<double> setups, ignored;
  std::vector<std::vector<double>> round_slices, mid_slices;
  std::vector<Rung> rungs(3);
  // Every engine serves an offline slice and a middle-rung slice; the
  // outer rungs, which only place the goodput, run on the last engine.
  for (int e = 0; e < kEngines; ++e) {
    setups.push_back(load.setup());
    round_slices.push_back(to_ms(load.offline(0.4 * slice)));
    load.engine().start();
    load.check_next(1);
    if (e + 1 == kEngines)
      rungs[0].merge(load.open_rung(kRates[0], 0.1 * args.seconds, 100, &ignored));
    mid_slices.emplace_back();
    rungs[kMidRung].merge(
        load.open_rung(kRates[kMidRung], 0.4 * slice, e, &mid_slices.back()));
    if (e + 1 == kEngines)
      rungs[2].merge(load.open_rung(kRates[2], 0.03 * args.seconds, 102, &ignored));
    load.engine().stop();
    load.verify();
  }
  rep.set("setup_s", median(setups), "s", kEngines,
          "median engine construction + 2 warm-up rounds");

  // Timings summarize the quiet windows of the run: see quiet_samples.
  const std::string quiet = " (quiet windows)";
  const std::vector<double> rounds = quiet_samples(round_slices, kRoundWindow);
  const long nr = static_cast<long>(rounds.size());
  const double round_p50 = median(rounds);
  rep.set("tokens_per_s", load.tokens_per_round() / (round_p50 / 1000.0),
          "tok/s", nr,
          "offline: prompt tokens scored per median round" + quiet);
  const Tail r90 = tail(rounds, 90.0), r99 = tail(rounds, 99.0);
  rep.set("iter_ms_p50", round_p50, "ms", nr,
          "offline: one full round" + quiet);
  rep.set("iter_ms_p90", r90.value, "ms", nr,
          "offline: one full round " + r90.label() + quiet);
  // One output per request, so the gap between outputs is the round time.
  rep.set("itl_ms_p50", round_p50, "ms", nr,
          "offline: gap between rounds" + quiet);
  rep.set("itl_ms_p99", r99.value, "ms", nr,
          "offline: gap between rounds " + r99.label() + quiet);

  const std::vector<double> mid_ms = quiet_samples(mid_slices, kLatencyWindow);
  const long nm = static_cast<long>(mid_ms.size());
  // The middle rung meets the limit or not in the same quiet windows that
  // its latency comes from. (A refused or unanswered request is a failed
  // operation, which fails the run.)
  Rung& mid = rungs[kMidRung];
  mid.sent = nm;
  mid.met = std::count_if(mid_ms.begin(), mid_ms.end(), [](double ms) {
    return ms <= kLatencyLimitS * 1000.0;
  });
  std::printf("serve open loop (limit %.0f ms for %.0f%% of requests; the "
              "%.0f req/s rung in its quiet windows):\n",
              kLatencyLimitS * 1000.0, kSloShare * 100.0, kRates[kMidRung]);
  rep.set("goodput_rps", ladder_goodput(rungs), "req/s",
          static_cast<long>(rungs.size()), "highest rate meeting the limit");
  const Tail l99 = tail(mid_ms, 99.0);
  const std::string at = " at " +
                         std::to_string(static_cast<int>(kRates[kMidRung])) +
                         " req/s" + quiet;
  rep.set("latency_ms_p50", median(mid_ms), "ms", nm, "due -> logits" + at);
  rep.set("latency_ms_p99", l99.value, "ms", nm,
          "due -> logits " + l99.label() + at);
  rep.set("ttft_ms_p50", median(mid_ms), "ms", nm,
          "due -> logits (one output)" + at);
  rep.set("ttft_ms_p99", l99.value, "ms", nm,
          "due -> logits (one output) " + l99.label() + at);
  rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1, "max RSS of the process");
}

void serve_traced(const RunArgs& args, double seconds, bool overhead,
                  Report& rep) {
  ServeLoad load(args, rep);
  load.setup();
  double untraced_tps = 0.0;
  if (overhead)
    untraced_tps = load.tokens_per_round() / median(load.offline(seconds / 2));
  obs::reset();
  obs::set_enabled(true);
  const std::vector<double> rounds = load.offline(seconds / 2);
  const double traced_tps = load.tokens_per_round() / median(rounds);
  load.engine().start();
  const rt::ServingStats before = load.engine().stats();
  std::vector<double> lat;
  load.open_rung(kRates[kMidRung], seconds / 2, 10, &lat);
  load.engine().stop();
  const rt::ServingStats after = load.engine().stats();
  obs::set_enabled(false);
  load.verify();
  if (overhead)
    rep.set("obs.overhead_share", 1.0 - traced_tps / untraced_tps, "share",
            static_cast<long>(rounds.size()),
            "1 - traced/untraced tokens_per_s on serve");

  const obs::TraceDoc doc = finish_trace(
      trace_meta("serving", serve_config(), kServeBatch, "none"), args,
      "serve", rep);
  const std::vector<double> round_ms = span_ms(doc, obs::EventKind::kServeRound);
  rep.set("runtime.round_ms_p50", median(round_ms), "ms",
          static_cast<long>(round_ms.size()), "serve_round span");
  const double padded =
      static_cast<double>(after.padded_rows - before.padded_rows);
  const double served = static_cast<double>(after.requests - before.requests);
  rep.set("runtime.padded_row_share",
          padded + served > 0 ? padded / (padded + served) : 0.0, "share",
          static_cast<long>(served),
          "padding rows / rows computed, open loop at the middle rung");
}

}  // namespace perfbench
