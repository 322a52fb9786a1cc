// Workload `train`: a closed loop of PipelineTrainer::train_iteration on
// Chimera D=4, f=1, N=2D micro-batches of B=1. Its time is nn forward and
// backward at M = B·seq rows, comm p2p of full activations, the gradient
// allreduce and the optim step; the KV cache, the batchers and request
// admission do nothing here.
#include <cmath>
#include <memory>

#include "bench.h"
#include "core/sync_placement.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "runtime/trainer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace chimera;

constexpr int kWarmupIterations = 2;
constexpr int kBatches = 8;  ///< distinct seeded batches, used in turn
/// Iterations per quiet_samples window: about a second.
constexpr std::size_t kWindow = 10;

ScheduleConfig train_config() {
  return ScheduleConfig{kDepth, kTrainMicros, 1, ScaleMethod::kDirect};
}

rt::TrainerOptions train_options() {
  rt::TrainerOptions o;
  o.intra_op = 0;
  return o;
}

class TrainLoad {
 public:
  TrainLoad(const RunArgs& args, Report& rep)
      : rep_(rep), model_(bench_model()) {
    LoadGen gen(args.seed, model_);
    for (int i = 0; i < kBatches; ++i) batches_.push_back(gen.train_batch());
    rt::SequentialTrainer seq(model_, train_options());
    reference_loss_ = seq.train_iteration(batches_[0], kTrainMicros).loss;
  }

  double tokens_per_iteration() const {
    return static_cast<double>(kTrainB) * kTrainMicros * model_.seq;
  }

  /// Constructs a fresh engine and runs the warm-up; returns the seconds
  /// taken. The first iteration of every fresh engine is checked against
  /// SequentialTrainer on the same batch.
  double setup() {
    trainer_.reset();
    next_ = 0;
    const Clock::time_point t0 = Clock::now();
    trainer_ = std::make_unique<rt::PipelineTrainer>(
        model_, Scheme::kChimera, train_config(), train_options());
    const double first = step();
    for (int i = 1; i < kWarmupIterations; ++i) step();
    const double secs = seconds_since(t0);
    // Same arithmetic up to the summation order of the per-micro losses.
    if (!(std::fabs(first - reference_loss_) <=
          1e-5 * std::max(1.0, std::fabs(reference_loss_))))
      rep_.fail("first-iteration loss " + std::to_string(first) +
                " != SequentialTrainer " + std::to_string(reference_loss_));
    return secs;
  }

  /// Back-to-back iterations for `seconds`. Returns each iteration's
  /// seconds; `gaps` receives completion-to-completion gaps.
  std::vector<double> loop(double seconds, std::vector<double>* gaps) {
    std::vector<double> iters;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point last = t0;
    while (seconds_since(t0) < seconds) {
      const Clock::time_point a = Clock::now();
      step();
      const Clock::time_point b = Clock::now();
      iters.push_back(std::chrono::duration<double>(b - a).count());
      if (gaps) gaps->push_back(std::chrono::duration<double>(b - last).count());
      last = b;
    }
    return iters;
  }

  long ok() const { return ok_; }

 private:
  double step() {
    rep_.attempt();
    double loss = NAN;
    try {
      loss = trainer_->train_iteration(batches_[next_++ % kBatches]).loss;
    } catch (const std::exception& e) {
      rep_.fail(std::string("train_iteration threw: ") + e.what());
      return loss;
    }
    if (std::isfinite(loss))
      ++ok_;
    else
      rep_.fail("non-finite loss");
    return loss;
  }

  Report& rep_;
  nn::SmallModelConfig model_;
  std::vector<nn::MicroBatch> batches_;
  double reference_loss_ = 0.0;
  std::unique_ptr<rt::PipelineTrainer> trainer_;
  std::size_t next_ = 0;
  long ok_ = 0;
};

}  // namespace

void train_end_to_end(const RunArgs& args, Report& rep) {
  TrainLoad load(args, rep);
  std::vector<double> setups;
  std::vector<std::vector<double>> iter_slices, gap_slices;
  long ok = 0, ran = 0;
  for (int e = 0; e < kEngines; ++e) {
    setups.push_back(load.setup());
    const long ok_before = load.ok();
    std::vector<double> gaps;
    iter_slices.push_back(
        to_ms(load.loop(args.seconds / kEngines, &gaps)));
    ran += static_cast<long>(gaps.size());
    gap_slices.push_back(to_ms(gaps));
    ok += load.ok() - ok_before;
  }
  rep.set("setup_s", median(setups), "s", kEngines,
          "median engine construction + 2 warm-up iterations");
  // Timings summarize the quiet windows of the run: see quiet_samples.
  const std::vector<double> iter_ms = quiet_samples(iter_slices, kWindow);
  const std::vector<double> gaps = quiet_samples(gap_slices, kWindow);
  const long n = static_cast<long>(iter_ms.size());
  const std::string quiet = " (quiet windows)";
  const double p50 = median(iter_ms);
  rep.set("tokens_per_s", load.tokens_per_iteration() / (p50 / 1000.0),
          "tok/s", n, "training tokens per median iteration" + quiet);
  rep.set("iter_ms_p50", p50, "ms", n, "train_iteration" + quiet);
  const Tail p90 = tail(iter_ms, 90.0);
  rep.set("iter_ms_p90", p90.value, "ms", n,
          "train_iteration " + p90.label() + quiet);
  // Closed loop: each iteration is due when the previous one returns, so
  // request latency and time to the (only) output are the iteration time,
  // and the output gap is the completion-to-completion gap.
  const Tail p99 = tail(iter_ms, 99.0);
  rep.set("latency_ms_p50", p50, "ms", n, "closed loop: iteration latency");
  rep.set("latency_ms_p99", p99.value, "ms", n,
          "closed loop: iteration latency " + p99.label());
  rep.set("ttft_ms_p50", p50, "ms", n, "closed loop: time to the loss");
  rep.set("ttft_ms_p99", p99.value, "ms", n,
          "closed loop: time to the loss " + p99.label());
  const Tail g99 = tail(gaps, 99.0);
  const long ng = static_cast<long>(gaps.size());
  rep.set("itl_ms_p50", median(gaps), "ms", ng, "gap between losses" + quiet);
  rep.set("itl_ms_p99", g99.value, "ms", ng,
          "gap between losses " + g99.label() + quiet);
  const double finite = ran > 0 ? static_cast<double>(ok) / ran : 0.0;
  rep.set("goodput_rps", finite * 1000.0 / mean(gaps), "req/s", ng,
          "closed loop: iterations/s x share of finite losses" + quiet);
  rep.set("peak_rss_mb", peak_rss_mb(), "MB", 1, "max RSS of the process");
}

void train_traced(const RunArgs& args, double seconds, bool overhead,
                  Report& rep) {
  TrainLoad load(args, rep);
  load.setup();
  double untraced_tps = 0.0;
  if (overhead) {
    const std::vector<double> it = load.loop(seconds, nullptr);
    untraced_tps = load.tokens_per_iteration() / median(it);
  }
  obs::reset();
  obs::set_enabled(true);
  const std::vector<double> it = load.loop(seconds, nullptr);
  obs::set_enabled(false);
  const double traced_tps = load.tokens_per_iteration() / median(it);
  if (overhead)
    rep.set("obs.overhead_share", 1.0 - traced_tps / untraced_tps, "share",
            static_cast<long>(it.size()),
            "1 - traced/untraced tokens_per_s on train");

  const obs::TraceDoc doc = finish_trace(
      trace_meta("training", train_config(), kTrainB,
                 sync_policy_name(train_options().sync)),
      args, "train", rep);
  const obs::TraceReport tr = obs::analyze_trace(doc);
  const long n = tr.iterations;
  rep.set("runtime.bubble_fraction", tr.measured_bubble_ratio, "share", n,
          "measured, obs::analyze_trace");
  rep.set("core.bubble_fraction_predicted", tr.predicted_bubble_ratio,
          "share", n, "dependency-exact replay of the measured stage costs");
  std::vector<double> errors;
  for (const obs::OpModelRow& row : tr.model)
    errors.push_back(std::fabs(row.error));
  rep.set("core.perf_model_error_p50", median(errors), "share",
          static_cast<long>(errors.size()),
          "median |measured/FLOP-model - 1| over (op kind, stage)");
  const struct {
    const char* name;
    obs::EventKind kind;
  } ops[] = {{"runtime.op_ms.forward", obs::EventKind::kForward},
             {"runtime.op_ms.backward", obs::EventKind::kBackward},
             {"runtime.op_ms.recv", obs::EventKind::kRecv},
             {"runtime.op_ms.allreduce_wait", obs::EventKind::kAllReduceWait}};
  for (const auto& op : ops) {
    const std::vector<double> d = span_ms(doc, op.kind);
    rep.set(op.name, mean(d), "ms", static_cast<long>(d.size()),
            "mean span on train");
  }
}

}  // namespace perfbench
