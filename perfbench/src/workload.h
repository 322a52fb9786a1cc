// The deployment every workload runs, the seeded load generator, and the
// references the correctness gates compare engine outputs against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/partition.h"
#include "nn/stage.h"
#include "support/rng.h"
#include "tensor/tensor.h"

namespace perfbench {

/// GPT-2 proportions at CPU scale: vocab ≫ hidden, so the LM head makes the
/// last stage the heaviest. All three workloads run this model, so the
/// train and decode GEMMs differ only in their row count M.
chimera::nn::SmallModelConfig bench_model();

constexpr int kDepth = 4;  ///< D ranks in every engine (intra_op = 0)
// train: Chimera f=1, N = 2D micro-batches of B = 1, direct concatenation.
constexpr int kTrainMicros = 2 * kDepth;
constexpr int kTrainB = 1;
// serve: Chimera f=1, 8 micro-batch slots of 4 requests per round.
constexpr int kServeSlots = 8;
constexpr int kServeBatch = 4;
constexpr long kServeDeadlineUs = 2000;
// decode: Chimera f=1, 8 decode streams of 4 lanes, greedy, default pages.
constexpr int kDecodeStreams = 8;
constexpr int kDecodeBatch = 4;
constexpr int kDecodeMaxNew = 12;
constexpr int kSystemPrefixes = 3;  ///< fewer than the 8-entry registry

/// One request of an open-loop schedule.
struct Arrival {
  double due_s = 0.0;  ///< seconds after the phase starts
  std::vector<int> prompt;
};

/// Every input a run uses, derived from the run's seed alone. Each kind of
/// input draws from its own split stream, so adding draws of one kind never
/// shifts another.
class LoadGen {
 public:
  LoadGen(std::uint64_t seed, const chimera::nn::SmallModelConfig& model);

  /// B·N sequences of random tokens with next-token targets.
  chimera::nn::MicroBatch train_batch();
  /// A full-length serving request.
  std::vector<int> serve_prompt();
  /// A ragged decode prompt: half start with one of the system prefixes
  /// (each longer than one KV page and not page-aligned, so adoption is
  /// followed by a copy-on-write split), half are unshared and shorter than
  /// a page (so they never enter the prefix registry).
  std::vector<int> decode_prompt();
  /// Poisson arrivals at `rate` per second over `duration` seconds; stream
  /// `stream` keeps each ladder rung's schedule independent.
  std::vector<Arrival> poisson(double rate, double duration, bool decode,
                               std::uint64_t stream);

 private:
  std::vector<int> random_tokens(chimera::Rng& rng, int n) const;

  chimera::nn::SmallModelConfig model_;
  chimera::Rng root_;
  chimera::Rng train_rng_, serve_rng_, decode_rng_;
  std::vector<std::vector<int>> prefixes_;
};

/// Seeded-generator self-test: the same seed must give byte-identical
/// arrival schedules and prompt sets, a different seed must not.
bool loadgen_self_test(std::uint64_t seed,
                       const chimera::nn::SmallModelConfig& model,
                       std::string* why);

/// The model as a plain chain of stage modules over `partition`, built from
/// the same seeded initialization the engines use: the serving and decode
/// correctness reference.
class StageChain {
 public:
  StageChain(const chimera::nn::SmallModelConfig& model,
             const chimera::Partition& partition);

  /// [tokens.size(), vocab] logits of one sequence through every stage's
  /// StageModule::infer.
  chimera::Tensor logits(const std::vector<int>& tokens);
  /// `n` greedy tokens (argmax, ties to the lowest id), each by a full
  /// re-forward over the prompt plus the tokens generated so far.
  std::vector<int> greedy(std::vector<int> prompt, int n);

 private:
  int vocab_;
  std::vector<std::unique_ptr<chimera::nn::StageModule>> stages_;
};

/// Largest |a − b| relative to max(1, |b|) over two equal-shaped tensors;
/// infinity on a shape mismatch.
double max_rel_diff(const chimera::Tensor& a, const chimera::Tensor& b);

}  // namespace perfbench
