#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace perfbench {

using chimera::Rng;

chimera::nn::SmallModelConfig bench_model() {
  chimera::nn::SmallModelConfig m;
  m.hidden = 128;
  m.heads = 8;
  m.layers = 8;
  m.seq = 32;
  m.vocab = 4096;
  return m;
}

LoadGen::LoadGen(std::uint64_t seed, const chimera::nn::SmallModelConfig& model)
    : model_(model),
      root_(seed),
      train_rng_(root_.split(1)),
      serve_rng_(root_.split(2)),
      decode_rng_(root_.split(3)) {
  // System prefixes of 18, 20 and 23 tokens: each spans one full 16-row
  // page plus part of a second, which an adopter then writes into.
  Rng prefix_rng = root_.split(4);
  const int lengths[kSystemPrefixes] = {18, 20, 23};
  for (int len : lengths) prefixes_.push_back(random_tokens(prefix_rng, len));
}

std::vector<int> LoadGen::random_tokens(Rng& rng, int n) const {
  std::vector<int> t(static_cast<std::size_t>(n));
  for (int& x : t) x = static_cast<int>(rng.next_below(model_.vocab));
  return t;
}

chimera::nn::MicroBatch LoadGen::train_batch() {
  chimera::nn::MicroBatch mb;
  mb.batch = kTrainB * kTrainMicros;
  mb.seq = model_.seq;
  for (int b = 0; b < mb.batch; ++b) {
    const std::vector<int> seq = random_tokens(train_rng_, model_.seq + 1);
    mb.tokens.insert(mb.tokens.end(), seq.begin(), seq.end() - 1);
    mb.targets.insert(mb.targets.end(), seq.begin() + 1, seq.end());
  }
  return mb;
}

std::vector<int> LoadGen::serve_prompt() {
  return random_tokens(serve_rng_, model_.seq);
}

std::vector<int> LoadGen::decode_prompt() {
  if (decode_rng_.next_below(2) == 0) {
    std::vector<int> p = prefixes_[decode_rng_.next_below(kSystemPrefixes)];
    const std::vector<int> suffix = random_tokens(
        decode_rng_, 1 + static_cast<int>(decode_rng_.next_below(4)));
    p.insert(p.end(), suffix.begin(), suffix.end());
    return p;
  }
  return random_tokens(decode_rng_,
                       3 + static_cast<int>(decode_rng_.next_below(13)));
}

std::vector<Arrival> LoadGen::poisson(double rate, double duration,
                                      bool decode, std::uint64_t stream) {
  Rng gaps = root_.split(100 + stream);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - gaps.next_double()) / rate;
    if (t >= duration) break;
    out.push_back(Arrival{t, decode ? decode_prompt() : serve_prompt()});
  }
  return out;
}

namespace {

/// The byte image of a schedule: due times bit-exact, then prompts.
std::string serialize(const std::vector<Arrival>& schedule) {
  std::string bytes;
  for (const Arrival& a : schedule) {
    char buf[sizeof(double)];
    std::memcpy(buf, &a.due_s, sizeof buf);
    bytes.append(buf, sizeof buf);
    const int n = static_cast<int>(a.prompt.size());
    bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
    bytes.append(reinterpret_cast<const char*>(a.prompt.data()),
                 a.prompt.size() * sizeof(int));
  }
  return bytes;
}

}  // namespace

bool loadgen_self_test(std::uint64_t seed,
                       const chimera::nn::SmallModelConfig& model,
                       std::string* why) {
  auto image = [&](std::uint64_t s) {
    LoadGen g(s, model);
    std::string bytes = serialize(g.poisson(50.0, 2.0, false, 0));
    bytes += serialize(g.poisson(50.0, 2.0, true, 1));
    const chimera::nn::MicroBatch mb = g.train_batch();
    bytes.append(reinterpret_cast<const char*>(mb.tokens.data()),
                 mb.tokens.size() * sizeof(int));
    return bytes;
  };
  const std::string a = image(seed), b = image(seed), c = image(seed + 1);
  if (a != b) {
    *why = "the same seed gave two different arrival schedules";
    return false;
  }
  if (a == c) {
    *why = "seeds " + std::to_string(seed) + " and " +
           std::to_string(seed + 1) + " gave the same arrival schedule";
    return false;
  }
  return true;
}

StageChain::StageChain(const chimera::nn::SmallModelConfig& model,
                       const chimera::Partition& partition)
    : vocab_(model.vocab) {
  for (int s = 0; s < partition.depth(); ++s)
    stages_.push_back(std::make_unique<chimera::nn::StageModule>(
        model, s, partition.depth(), partition.range(s)));
}

chimera::Tensor StageChain::logits(const std::vector<int>& tokens) {
  chimera::nn::MicroBatch mb;
  mb.batch = 1;
  mb.seq = static_cast<int>(tokens.size());
  mb.tokens = tokens;
  mb.targets = tokens;
  chimera::Tensor x;
  for (auto& st : stages_) x = st->infer(mb, x);
  return x;
}

std::vector<int> StageChain::greedy(std::vector<int> prompt, int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    const chimera::Tensor lg = logits(prompt);
    const float* row = lg.data() + static_cast<std::size_t>(lg.rows() - 1) *
                                       static_cast<std::size_t>(vocab_);
    int best = 0;
    for (int v = 1; v < vocab_; ++v)
      if (row[v] > row[best]) best = v;
    out.push_back(best);
    prompt.push_back(best);
  }
  return out;
}

double max_rel_diff(const chimera::Tensor& a, const chimera::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  const std::size_t n = static_cast<std::size_t>(a.rows()) * a.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::fabs(double(a.data()[i]) - double(b.data()[i])) /
                     std::max(1.0, std::fabs(double(b.data()[i])));
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

}  // namespace perfbench
