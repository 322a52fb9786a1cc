// Workload `decode`: a DecodeEngine (Chimera f=1, D=4, default page pool,
// prefix sharing on) driven by step() from the load thread, over ragged
// prompts of which half share one of a few system prefixes. A seq-1 step
// makes arithmetic tiny, so time goes to WorkerPool dispatch, mailbox p2p
// latency and KV paging; prefill writes pages while decode reads and
// appends them, and shared prefixes force adoption plus copy-on-write
// splits. The GEMMs are train's at M ≤ max_batch rows, so a kernel tuned
// for large M that costs small M shows up here.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "obs/trace.h"
#include "runtime/decode.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace chimera;

constexpr int kBacklog = 64;  ///< requests per offline drain
/// The ladder. Latency is reported at the middle rung, where most steps
/// still run no prefill round; the top rung is well past capacity so that
/// the ladder always brackets the goodput.
constexpr double kRates[] = {20.0, 40.0, 160.0};
constexpr int kMidRung = 1;
constexpr double kTtftLimitS = 0.200;
constexpr double kItlLimitS = 0.040;  ///< on a request's mean token gap
constexpr double kTimeoutS = 10.0;

ScheduleConfig decode_config() {
  return ScheduleConfig{kDepth, kDecodeStreams, 1, ScaleMethod::kDirect};
}

rt::DecodeOptions decode_options() {
  rt::DecodeOptions o;
  o.max_batch = kDecodeBatch;
  o.max_new_tokens = kDecodeMaxNew;
  o.intra_op = 0;
  return o;
}

/// Latency samples of one phase, from due times.
struct Latencies {
  std::vector<double> ttft_ms, itl_ms, done_ms;
};

class DecodeLoad {
 public:
  DecodeLoad(const RunArgs& args, Report& rep)
      : rep_(rep), model_(bench_model()), gen_(args.seed, model_) {}

  /// Constructs a fresh engine and drains a warm-up wave that fills every
  /// lane, then one backlog of ragged prompts (first-touch of the shapes
  /// the offline phase sees); returns the seconds taken.
  double setup() {
    engine_.reset();
    checks_left_ = 0;
    const Clock::time_point t0 = Clock::now();
    engine_ = std::make_unique<rt::DecodeEngine>(
        model_, Scheme::kChimera, decode_config(), decode_options());
    engine_->set_on_token([this](const rt::TokenEvent& ev) { on_token(ev); });
    for (int i = 0; i < engine_->session_capacity(); ++i)
      submit(gen_.decode_prompt());
    drain(nullptr, nullptr);
    for (int i = 0; i < kBacklog; ++i) submit(gen_.decode_prompt());
    drain(nullptr, nullptr);
    const double secs = seconds_since(t0);
    if (!chain_) chain_ = std::make_unique<StageChain>(model_, engine_->partition());
    checks_left_ = 1;
    return secs;
  }

  /// Offline phase: backlogs of kBacklog requests drained by step() for
  /// `seconds`. Returns each drain's generated tokens per second; `steps`
  /// receives each step's seconds, or with `prefill_steps` given, only the
  /// steps that ran no prefill round (the others go to `prefill_steps`).
  std::vector<double> offline(double seconds, std::vector<double>* steps,
                              std::vector<double>* prefill_steps = nullptr) {
    std::vector<double> tps;
    const Clock::time_point t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      for (int i = 0; i < kBacklog; ++i) submit(gen_.decode_prompt());
      const Clock::time_point d0 = Clock::now();
      const long tokens = drain(steps, prefill_steps);
      tps.push_back(static_cast<double>(tokens) / seconds_since(d0));
    }
    return tps;
  }

  /// Open-loop phase at `rate` for `duration` seconds: the load thread
  /// submits each request when due and steps the engine in between.
  Rung open_rung(double rate, double duration, std::uint64_t stream,
                 Latencies* lat) {
    const std::vector<Arrival> schedule =
        gen_.poisson(rate, duration, true, stream);
    Rung rung;
    rung.rate = rate;
    // A request within the limits is done this long after it was due.
    rung.limit_s = kTtftLimitS + (kDecodeMaxNew - 1) * kItlLimitS;
    rung.sent = static_cast<long>(schedule.size());
    late_s_.clear();
    const Clock::time_point t0 = Clock::now();
    std::size_t next = 0;
    const double end = schedule.empty() ? 0.0 : schedule.back().due_s;
    while (next < schedule.size() ||
           (!late_s_.empty() && seconds_since(t0) < end + kTimeoutS)) {
      while (next < schedule.size() && seconds_since(t0) >= schedule[next].due_s) {
        const double late = seconds_since(t0) - schedule[next].due_s;
        rung.lateness_ms.push_back(late * 1000.0);
        if (const std::uint64_t id = submit(schedule[next].prompt))
          late_s_[id] = late;
        if (++next == schedule.size())
          rung.outstanding = {static_cast<double>(late_s_.size())};
      }
      if (!engine_->idle()) {
        engine_->step();
        finish(lat, &rung);
      } else {
        const double wait = next < schedule.size()
                                ? schedule[next].due_s - seconds_since(t0)
                                : 0.0005;
        if (wait > 0)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(std::min(wait, 0.0005)));
      }
    }
    for (std::size_t i = 0; i < late_s_.size(); ++i)
      rep_.fail("decode request not finished within the timeout");
    late_s_.clear();
    return rung;
  }

  /// Compares the kept streams with the greedy re-forward reference: same
  /// length cap, same tokens. Called between phases, so reference compute
  /// never delays a timed request.
  void verify() {
    for (const auto& [prompt, tokens] : kept_) {
      const int len = static_cast<int>(prompt.size());
      const int want_n = std::min(kDecodeMaxNew, model_.seq - len + 1);
      if (static_cast<int>(tokens.size()) != want_n ||
          chain_->greedy(prompt, want_n) != tokens)
        rep_.fail("a decode stream differs from the greedy re-forward "
                  "reference");
    }
    kept_.clear();
  }

  rt::DecodeEngine& engine() { return *engine_; }
  /// Keeps the next `n` finished streams for verify().
  void check_next(int n) { checks_left_ = n; }

 private:
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

  /// Steps until idle; returns the tokens generated. Times each step as
  /// offline() describes.
  long drain(std::vector<double>* steps, std::vector<double>* prefill_steps) {
    long tokens = 0;
    while (!engine_->idle()) {
      const long rounds = prefill_steps ? engine_->stats().prefill_rounds : 0;
      const Clock::time_point a = Clock::now();
      tokens += engine_->step();
      const double secs = seconds_since(a);
      if (prefill_steps && engine_->stats().prefill_rounds != rounds)
        prefill_steps->push_back(secs);
      else if (steps)
        steps->push_back(secs);
    }
    finish(nullptr, nullptr);
    return tokens;
  }

  void on_token(const rt::TokenEvent& ev) {
    long& last = last_token_us_[ev.id];
    if (ev.index > 0) gaps_us_[ev.id].push_back(static_cast<double>(ev.time_us - last));
    last = ev.time_us;
    if (ev.is_last) last_token_us_.erase(ev.id);
  }

  /// Collects finished requests: checks them, and in an open-loop phase
  /// records their latencies from the due time and the rung's verdicts.
  void finish(Latencies* lat, Rung* rung) {
    for (rt::DecodeResult& r : engine_->take_completed()) {
      std::vector<double> gaps = std::move(gaps_us_[r.id]);
      gaps_us_.erase(r.id);
      keep_for_check(r);
      const auto it = late_s_.find(r.id);
      if (it == late_s_.end() || lat == nullptr) continue;
      const double ttft = it->second + r.ttft_us() * 1e-6;
      const double done = it->second + (r.done_us - r.enqueue_us) * 1e-6;
      late_s_.erase(it);
      lat->ttft_ms.push_back(ttft * 1000.0);
      lat->done_ms.push_back(done * 1000.0);
      for (double g : gaps) lat->itl_ms.push_back(g / 1000.0);
      const double mean_gap = gaps.empty() ? 0.0 : mean(gaps) * 1e-6;
      if (ttft <= kTtftLimitS && mean_gap <= kItlLimitS) ++rung->met;
    }
  }

  /// Keeps a finished stream and its prompt for verify() while checks
  /// remain.
  void keep_for_check(rt::DecodeResult& r) {
    const auto it = prompts_.find(r.id);
    if (it == prompts_.end()) return;
    if (checks_left_ > 0) {
      --checks_left_;
      kept_.emplace_back(std::move(it->second), std::move(r.tokens));
    }
    prompts_.erase(it);
  }

  Report& rep_;
  nn::SmallModelConfig model_;
  LoadGen gen_;
  std::unique_ptr<rt::DecodeEngine> engine_;
  std::unique_ptr<StageChain> chain_;
  std::map<std::uint64_t, std::vector<int>> prompts_;  ///< may be checked
  std::vector<std::pair<std::vector<int>, std::vector<int>>> kept_;
  int checks_left_ = 0;
  std::map<std::uint64_t, double> late_s_;  ///< open loop: lateness by id
  std::map<std::uint64_t, long> last_token_us_;
  std::map<std::uint64_t, std::vector<double>> gaps_us_;
};

}  // namespace

void decode_end_to_end(const RunArgs& args, Report& rep) {
  DecodeLoad load(args, rep);
  const double slice = args.seconds / kEngines;
  std::vector<double> setups, tps, steps_s;
  std::vector<Rung> rungs(3);
  Latencies mid, ignored;
  // Every engine drains an offline slice and serves a middle-rung slice;
  // the outer rungs, which only place the goodput, run on the last engine.
  for (int e = 0; e < kEngines; ++e) {
    setups.push_back(load.setup());
    const std::vector<double> t = load.offline(0.3 * slice, &steps_s);
    tps.insert(tps.end(), t.begin(), t.end());
    load.check_next(1);
    if (e + 1 == kEngines)
      rungs[0].merge(load.open_rung(kRates[0], 0.1 * args.seconds, 100, &ignored));
    rungs[kMidRung].merge(load.open_rung(kRates[kMidRung], 0.5 * slice, e, &mid));
    if (e + 1 == kEngines)
      rungs[2].merge(load.open_rung(kRates[2], 0.1 * args.seconds, 102, &ignored));
    load.verify();
  }
  rep.set("setup_s", median(setups), "s", kEngines,
          "median engine construction + warm-up drains");

  const std::vector<double> steps = to_ms(steps_s);
  const long ns = static_cast<long>(steps.size());
  rep.set("tokens_per_s", median(tps), "tok/s", static_cast<long>(tps.size()),
          "offline: generated tokens/s, median over backlog drains");
  const Tail s90 = tail(steps, 90.0);
  rep.set("iter_ms_p50", median(steps), "ms", ns, "offline: one step()");
  rep.set("iter_ms_p90", s90.value, "ms", ns, "offline: one step() " + s90.label());

  std::printf("decode open loop (limits: TTFT %.0f ms and mean token gap "
              "%.0f ms for %.0f%% of requests):\n",
              kTtftLimitS * 1000.0, kItlLimitS * 1000.0, kSloShare * 100.0);
  rep.set("goodput_rps", ladder_goodput(rungs), "req/s",
          static_cast<long>(rungs.size()), "highest rate meeting the limits");
  const std::string at =
      " at " + std::to_string(static_cast<int>(kRates[kMidRung])) + " req/s";
  const struct {
    const char* p50;
    const char* p99;
    const std::vector<double>* v;
    const char* what;
  } rows[] = {{"ttft_ms_p50", "ttft_ms_p99", &mid.ttft_ms, "due -> first token"},
              {"itl_ms_p50", "itl_ms_p99", &mid.itl_ms, "gap between tokens"},
              {"latency_ms_p50", "latency_ms_p99", &mid.done_ms,
               "due -> last token"}};
  for (const auto& row : rows) {
    const long n = static_cast<long>(row.v->size());
    const Tail t = tail(*row.v, 99.0);
    rep.set(row.p50, median(*row.v), "ms", n, row.what + at);
    rep.set(row.p99, t.value, "ms", n,
            std::string(row.what) + " " + t.label() + at);
  }
  rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1, "max RSS of the process");
}

void decode_traced(const RunArgs& args, double seconds, bool overhead,
                   Report& rep) {
  DecodeLoad load(args, rep);
  load.setup();
  double untraced_tps = 0.0;
  if (overhead) untraced_tps = median(load.offline(seconds / 2, nullptr));
  obs::reset();
  obs::set_enabled(true);
  const rt::DecodeStats before = load.engine().stats();
  std::vector<double> step_s, prefill_s;
  const std::vector<double> tps = load.offline(seconds / 2, &step_s, &prefill_s);
  const rt::DecodeStats after_offline = load.engine().stats();
  Latencies lat;
  load.open_rung(kRates[kMidRung], seconds / 2, 10, &lat);
  obs::set_enabled(false);
  const rt::DecodeStats after = load.engine().stats();
  load.verify();
  if (overhead)
    rep.set("obs.overhead_share", 1.0 - median(tps) / untraced_tps, "share",
            static_cast<long>(tps.size()),
            "1 - traced/untraced tokens_per_s on decode");

  const obs::TraceDoc doc = finish_trace(
      trace_meta("decode", decode_config(), kDecodeBatch, "none"), args,
      "decode", rep);
  rep.set("runtime.step_ms_p50", median(to_ms(step_s)), "ms",
          static_cast<long>(step_s.size()), "step() without a prefill round");
  rep.set("runtime.prefill_step_ms_p50", median(to_ms(prefill_s)), "ms",
          static_cast<long>(prefill_s.size()), "step() with a prefill round");
  const std::vector<double> op = span_ms(doc, obs::EventKind::kDecodeOp);
  rep.set("runtime.decode_op_us", mean(op) * 1000.0, "us",
          static_cast<long>(op.size()), "mean decode_op span");
  const double occupied = static_cast<double>(after_offline.occupied_lane_steps -
                                              before.occupied_lane_steps);
  const double idle =
      static_cast<double>(after_offline.idle_lane_steps - before.idle_lane_steps);
  rep.set("runtime.lane_occupancy", occupied / std::max(1.0, occupied + idle),
          "share", static_cast<long>(occupied + idle),
          "occupied lane-steps, offline drains");
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  const long na = static_cast<long>(admitted);
  rep.set("nn.kv.prefix_hit_share",
          static_cast<double>(after.prefix_hits - before.prefix_hits) /
              std::max(1.0, admitted),
          "share", na, "prefix hits / admitted");
  rep.set("nn.kv.cow_splits",
          static_cast<double>(after.cow_splits - before.cow_splits) /
              std::max(1.0, admitted),
          "1/req", na, "copy-on-write splits per admitted request");
  rep.set("nn.kv.evictions",
          static_cast<double>(after.evictions - before.evictions) /
              std::max(1.0, admitted),
          "1/req", na, "sessions parked per admitted request");
  rep.set("nn.kv.page_peak_share",
          static_cast<double>(after.pages_in_use_peak) /
              static_cast<double>(std::max(1L, after.pool_pages)),
          "share", 1, "peak pages in use / pool pages");
}

}  // namespace perfbench
