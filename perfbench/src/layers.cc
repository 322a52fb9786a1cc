// Benchmark-side layer probes: each times calls into one module's public
// functions at the shapes the workloads run, so a per-layer figure can be
// traced to the end-to-end metric it should move (README.md, "Layer map").
#include <algorithm>
#include <functional>
#include <memory>

#include "bench.h"
#include "comm/world.h"
#include "core/execution_plan.h"
#include "core/sync_placement.h"
#include "nn/kv_cache.h"
#include "optim/optimizer.h"
#include "runtime/options.h"
#include "runtime/worker_pool.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace chimera;

constexpr double kProbeSeconds = 0.08;  ///< time spent per probe
constexpr int kMinSamples = 15;
constexpr int kDecodePrompt = 16;  ///< cached positions per decode lane

/// Median seconds of one call of `fn`, timing `per_sample` calls per
/// sample for at least kProbeSeconds and kMinSamples samples.
double median_call(const std::function<void()>& fn, int per_sample = 1) {
  fn();  // warm caches and grow-only buffers
  std::vector<double> samples;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(samples.size()) < kMinSamples ||
         seconds_since(t0) < kProbeSeconds) {
    const Clock::time_point a = Clock::now();
    for (int i = 0; i < per_sample; ++i) fn();
    samples.push_back(seconds_since(a) / per_sample);
  }
  return median(samples);
}

Tensor random_tensor(int rows, int cols, Rng& rng) {
  Tensor t(rows, cols);
  t.randn(rng, 0.5f);
  return t;
}

PipelineSchedule train_schedule() {
  return with_gradient_sync(
      build_schedule(Scheme::kChimera,
                     ScheduleConfig{kDepth, kTrainMicros, 1, ScaleMethod::kDirect}),
      rt::TrainerOptions{}.sync);
}

std::size_t numel(const std::vector<nn::Param*>& params) {
  std::size_t n = 0;
  for (const nn::Param* p : params)
    n += static_cast<std::size_t>(p->value.rows()) * p->value.cols();
  return n;
}

void probe_core(const nn::SmallModelConfig& model, Report& rep) {
  const double s = median_call([&] {
    const PipelineSchedule ps = train_schedule();
    const ExecutionPlan plan(ps);
    (void)plan_partition(model.spec(), kDepth, PartitionPolicy::kEven, &ps);
  });
  rep.set("core.plan_build_ms", s * 1000.0, "ms", kMinSamples,
          "train schedule + gradient sync + ExecutionPlan + partition");
}

void probe_dispatch(Report& rep) {
  rt::WorkerPool pool(kDepth);
  const std::function<void(int)> noop = [](int) {};
  const double s = median_call([&] { pool.run(noop); }, 20);
  rep.set("runtime.dispatch_us", s * 1e6, "us", kMinSamples,
          "no-op WorkerPool::run on 4 ranks");
}

void probe_tensor(const nn::SmallModelConfig& m, Rng& rng, Report& rep) {
  const int train_m = kTrainB * m.seq;
  const struct {
    const char* name;
    int rows, cols;  ///< M and N; K = hidden
  } gemms[] = {{"tensor.gemm_gflops.train_mlp", train_m, 4 * m.hidden},
               {"tensor.gemm_gflops.train_head", train_m, m.vocab},
               {"tensor.gemm_gflops.decode_mlp", kDecodeBatch, 4 * m.hidden},
               {"tensor.gemm_gflops.decode_head", kDecodeBatch, m.vocab}};
  for (const auto& g : gemms) {
    const Tensor x = random_tensor(g.rows, m.hidden, rng);
    const Tensor w = random_tensor(m.hidden, g.cols, rng);
    const Tensor b = random_tensor(1, g.cols, rng);
    Tensor y(g.rows, g.cols);
    const double s = median_call([&] { gemm_bias(x, w, b, y); }, 4);
    const double flops = 2.0 * g.rows * g.cols * m.hidden;
    rep.set(g.name, flops / s / 1e9, "GFLOP/s", kMinSamples,
            "gemm_bias [" + std::to_string(g.rows) + "x" +
                std::to_string(m.hidden) + "]x[" + std::to_string(m.hidden) +
                "x" + std::to_string(g.cols) + "], 2MNK");
  }
  {
    const Tensor x = random_tensor(train_m, m.hidden, rng);
    const Tensor gamma = random_tensor(1, m.hidden, rng);
    const Tensor beta = random_tensor(1, m.hidden, rng);
    Tensor y(train_m, m.hidden), mu(train_m, 1), rstd(train_m, 1);
    const double s =
        median_call([&] { layernorm_forward(x, gamma, beta, y, mu, rstd); }, 16);
    // x read and y written, gamma/beta read, mean/rstd written.
    const double bytes = 4.0 * (2.0 * train_m * m.hidden + 2.0 * m.hidden +
                                2.0 * train_m);
    rep.set("tensor.layernorm_gbps", bytes / s / 1e9, "GB/s", kMinSamples,
            "layernorm_forward [B*seq x hidden], computed bytes");
  }
  {
    const int rows = m.heads * m.seq;  // one micro-batch's attention scores
    const Tensor x = random_tensor(rows, m.seq, rng);
    Tensor y(rows, m.seq);
    const double s = median_call([&] { softmax_rows(x, y); }, 16);
    const double bytes = 4.0 * 2.0 * rows * m.seq;
    rep.set("tensor.softmax_gbps", bytes / s / 1e9, "GB/s", kMinSamples,
            "softmax_rows [heads*seq x seq], computed bytes");
  }
}

/// Stage modules at the train partition: forward/backward/infer/prefill/
/// decode_step per stage and the optimizer step. Returns the largest
/// stage's gradient bucket in floats.
std::size_t probe_stages(const nn::SmallModelConfig& m, LoadGen& gen, Rng& rng,
                         Report& rep) {
  const PipelineSchedule ps = train_schedule();
  const Partition part =
      plan_partition(m.spec(), kDepth, PartitionPolicy::kEven, &ps);
  const nn::MicroBatch train_mb = gen.train_batch().slice(0, kTrainB);
  nn::MicroBatch serve_mb;
  serve_mb.batch = kServeBatch;
  serve_mb.seq = m.seq;
  for (int i = 0; i < kServeBatch; ++i) {
    const std::vector<int> p = gen.serve_prompt();
    serve_mb.tokens.insert(serve_mb.tokens.end(), p.begin(), p.end());
  }
  serve_mb.targets = serve_mb.tokens;
  nn::MicroBatch prompt_mb;
  prompt_mb.batch = 1;
  prompt_mb.seq = kDecodePrompt;
  for (int i = 0; i < kDecodePrompt; ++i)
    prompt_mb.tokens.push_back(train_mb.tokens[i]);
  prompt_mb.targets = prompt_mb.tokens;

  const int page = rt::DecodeOptions{}.kv_page_size;
  const int pages = kDecodeBatch * nn::PagedKvCache::pages_for(m.seq, page);
  std::vector<std::unique_ptr<nn::StageModule>> stages;
  std::vector<std::unique_ptr<nn::PagedKvCache>> caches;
  std::vector<double> fwd_bwd;
  std::size_t largest_bucket = 0;
  for (int s = 0; s < kDepth; ++s) {
    stages.push_back(std::make_unique<nn::StageModule>(m, s, kDepth, part.range(s)));
    caches.push_back(std::make_unique<nn::PagedKvCache>(
        part.range(s).size(), kDecodeBatch, m.seq, m.hidden, page, pages));
    nn::StageModule& st = *stages.back();
    nn::PagedKvCache& cache = *caches.back();
    const std::string id = ".s" + std::to_string(s);

    const Tensor act = s == 0 ? Tensor() : random_tensor(kTrainB * m.seq, m.hidden, rng);
    const Tensor dout = st.is_last() ? Tensor() : random_tensor(kTrainB * m.seq, m.hidden, rng);
    std::vector<double> f, b;
    const Clock::time_point t0 = Clock::now();
    while (static_cast<int>(f.size()) < kMinSamples || seconds_since(t0) < kProbeSeconds) {
      const Clock::time_point a = Clock::now();
      (void)st.forward(train_mb, act, 0);
      const Clock::time_point c = Clock::now();
      (void)st.backward(train_mb, dout, 0, 1.0f / kTrainMicros);
      f.push_back(std::chrono::duration<double>(c - a).count() * 1000.0);
      b.push_back(seconds_since(c) * 1000.0);
    }
    rep.set("nn.forward_ms" + id, median(f), "ms", static_cast<long>(f.size()),
            "StageModule::forward, B*seq rows");
    rep.set("nn.backward_ms" + id, median(b), "ms", static_cast<long>(b.size()),
            "StageModule::backward, B*seq rows");
    fwd_bwd.push_back(median(f) + median(b));

    optim::Optimizer opt(st.params(), rt::TrainerOptions{}.optimizer);
    rep.set("optim.step_ms" + id, median_call([&] { opt.step(); }) * 1000.0,
            "ms", kMinSamples, "Optimizer::step over the stage's parameters");
    largest_bucket = std::max(largest_bucket, numel(st.params()));

    const Tensor serve_in =
        s == 0 ? Tensor() : random_tensor(kServeBatch * m.seq, m.hidden, rng);
    rep.set("nn.infer_ms" + id,
            median_call([&] { (void)st.infer(serve_mb, serve_in); }) * 1000.0,
            "ms", kMinSamples, "StageModule::infer, max_batch*seq rows");

    // Every decode lane holds a kDecodePrompt-token prefill; the step
    // appends position kDecodePrompt (rewritten by each repetition).
    const Tensor prompt_in =
        s == 0 ? Tensor() : random_tensor(kDecodePrompt, m.hidden, rng);
    std::vector<int> tokens, slots, positions;
    for (int l = 0; l < kDecodeBatch; ++l) {
      cache.claim(l);
      cache.ensure_writable(l, 0, kDecodePrompt + 1);
      (void)st.prefill(prompt_mb, prompt_in, cache, l);
      tokens.push_back(prompt_mb.tokens[l]);
      slots.push_back(l);
      positions.push_back(kDecodePrompt);
    }
    const Tensor step_in = s == 0 ? Tensor() : random_tensor(kDecodeBatch, m.hidden, rng);
    rep.set("nn.decode_step_us" + id,
            median_call([&] {
              (void)st.decode_step(tokens, slots, positions, step_in, cache);
            }) * 1e6,
            "us", kMinSamples, "StageModule::decode_step, max_batch rows");
  }
  rep.set("nn.stage_imbalance",
          *std::max_element(fwd_bwd.begin(), fwd_bwd.end()) / mean(fwd_bwd),
          "ratio", kDepth, "max/mean stage forward+backward");
  // The whole chain's prefill of one prompt, each stage feeding the next.
  rep.set("nn.prefill_ms", median_call([&] {
            Tensor x;
            for (int s = 0; s < kDepth; ++s)
              x = stages[s]->prefill(prompt_mb, x, *caches[s], 0);
          }) * 1000.0,
          "ms", kMinSamples, "4-stage StageModule::prefill, 16-token prompt");
  return largest_bucket;
}

void probe_comm(const nn::SmallModelConfig& m, std::size_t bucket, Rng& rng,
                Report& rep) {
  comm::World world(2);
  std::vector<std::unique_ptr<comm::Communicator>> comms;
  for (int r = 0; r < 2; ++r)
    comms.push_back(std::make_unique<comm::Communicator>(world, r));
  rt::WorkerPool pool(2);
  const std::vector<int> group = {0, 1};

  // One-way p2p latency from a ping-pong of `rows` x hidden activations.
  const struct {
    const char* name;
    int rows;
  } pings[] = {{"comm.p2p_us.decode", kDecodeBatch},
               {"comm.p2p_us.train", kTrainB * m.seq}};
  for (const auto& p : pings) {
    constexpr int kExchanges = 200;
    std::vector<double> one_way;
    Tensor payload = random_tensor(p.rows, m.hidden, rng);
    const std::function<void(int)> job = [&](int rank) {
      comm::Communicator& c = *comms[rank];
      if (rank == 0) {
        const Clock::time_point a = Clock::now();
        for (int i = 0; i < kExchanges; ++i) {
          c.send(1, 1, std::move(payload));
          payload = c.recv(1, 2);
        }
        one_way.push_back(seconds_since(a) / (2.0 * kExchanges));
      } else {
        for (int i = 0; i < kExchanges; ++i) c.send(0, 2, c.recv(0, 1));
      }
    };
    for (int i = 0; i < kMinSamples; ++i) pool.run(job);
    rep.set(p.name, median(one_way) * 1e6, "us", kMinSamples,
            "one-way send+recv of [" + std::to_string(p.rows) +
                " x hidden], 200-exchange ping-pong");
  }

  // The largest stage gradient bucket over a 2-rank group.
  std::vector<std::vector<float>> bufs(2, std::vector<float>(bucket, 1.0f));
  std::vector<double> blocking, nonblocking;
  const std::function<void(int)> job = [&](int rank) {
    comm::Communicator& c = *comms[rank];
    const Clock::time_point a = Clock::now();
    c.allreduce_sum(bufs[rank].data(), bucket, group, 7);
    const Clock::time_point b = Clock::now();
    c.iallreduce_sum(bufs[rank].data(), bucket, group, 8).wait();
    if (rank == 0) {
      blocking.push_back(std::chrono::duration<double>(b - a).count());
      nonblocking.push_back(seconds_since(b));
    }
  };
  for (int i = 0; i < kMinSamples; ++i) pool.run(job);
  const std::string what = std::to_string(bucket) + " floats, 2 ranks, ring";
  rep.set("comm.allreduce_ms", median(blocking) * 1000.0, "ms", kMinSamples,
          "allreduce_sum of " + what);
  rep.set("comm.iallreduce_ms", median(nonblocking) * 1000.0, "ms",
          kMinSamples, "iallreduce_sum + wait of " + what);
}

/// Calls and bytes per train iteration, counted from the plan: one p2p
/// call per transfer of a [B·seq, hidden] activation or gradient, and one
/// ring allreduce per (worker, stage) sync moving 2(g−1)/g of the stage's
/// gradient bucket out of every member.
void count_comm(const nn::SmallModelConfig& m, Report& rep) {
  const PipelineSchedule ps = train_schedule();
  const ExecutionPlan plan(ps);
  const Partition part =
      plan_partition(m.spec(), kDepth, PartitionPolicy::kEven, &ps);
  double calls = 0.0, bytes = 0.0;
  const double activation = 4.0 * kTrainB * m.seq * m.hidden;
  for (int w = 0; w < static_cast<int>(ps.worker_ops.size()); ++w) {
    for (const PlannedOp& op : plan.worker_plan(w)) {
      for (const MicroUnit& u : op.units)
        if (u.send_to >= 0) {
          calls += 1.0;
          bytes += activation;
        }
      if (op.op.kind == OpKind::kAllReduceBegin) {
        const double g = static_cast<double>(plan.allreduce_group(op.op.stage).size());
        calls += 1.0;
        bytes += 2.0 * (g - 1.0) / g * 4.0 *
                 static_cast<double>(part.stage_params(op.op.stage));
      }
    }
  }
  rep.set("comm.calls_per_iter", calls, "count", 1, "p2p sends + allreduces");
  rep.set("comm.bytes_per_iter", bytes, "B", 1, "payload bytes sent");
}

}  // namespace

void layer_probes(const RunArgs& args, Report& rep) {
  ComputePool::instance().set_helpers(0);
  const nn::SmallModelConfig model = bench_model();
  LoadGen gen(args.seed, model);
  Rng rng = Rng(args.seed).split(5);
  probe_core(model, rep);
  probe_dispatch(rep);
  probe_tensor(model, rng, rep);
  const std::size_t bucket = probe_stages(model, gen, rng, rep);
  probe_comm(model, bucket, rng, rep);
  count_comm(model, rep);
}

}  // namespace perfbench
