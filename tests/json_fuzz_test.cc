// Byte-mutation fuzzing of the two strict parsers over support/json: an
// exported plan document (decode Chimera D=4 N=4 with a partition and a
// kv_pages claim) and a recorded trace each take 10k seeded mutations —
// byte flips, insertions, deletions, duplicated spans and spliced digit
// runs. Every input must either be rejected with a CheckError (and nothing
// else), or parse to a document whose re-serialization parses back equal.
// The CI sanitizer job runs this binary under ASan+UBSan.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <string>

#include "core/decode_schedule.h"
#include "core/execution_plan.h"
#include "core/partition.h"
#include "core/plan_json.h"
#include "nn/stage.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "runtime/trainer.h"
#include "support/check.h"
#include "support/rng.h"

namespace chimera {
namespace {

constexpr int kMutations = 10'000;

/// One seeded mutation of `s`.
std::string mutate(const std::string& s, Rng& rng) {
  static const std::string kBytes = "{}[]\":,.-+eE0123456789tfu\\ \n\x01\x80";
  auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  auto random_byte = [&] {
    return rng.next_below(2) ? kBytes[below(kBytes.size())]
                             : static_cast<char>(rng.next_below(256));
  };
  std::string out = s;
  const std::size_t pos = below(out.size());
  switch (rng.next_below(5)) {
    case 0:  // flip
      out[pos] = random_byte();
      break;
    case 1:  // insert
      out.insert(out.begin() + static_cast<long>(pos), random_byte());
      break;
    case 2:  // delete
      out.erase(pos, 1 + below(4));
      break;
    case 3: {  // duplicate a span at a random position
      const std::string span = out.substr(pos, 1 + below(64));
      out.insert(below(out.size() + 1), span);
      break;
    }
    default: {  // splice a digit run: replace it with another length/value
      std::size_t a = out.find_first_of("0123456789", pos);
      if (a == std::string::npos) a = out.find_first_of("0123456789");
      const std::size_t b = out.find_first_not_of("0123456789", a);
      std::string digits(1 + below(24), '0');
      for (char& c : digits) c = static_cast<char>('0' + below(10));
      out.replace(a, b - a, digits);
      break;
    }
  }
  return out;
}

/// Feeds kMutations mutants of `text` through parse → serialize → parse.
template <class Doc>
void fuzz(const std::string& text, std::uint64_t seed,
          const std::function<Doc(const std::string&)>& parse,
          const std::function<std::string(const Doc&)>& serialize) {
  ASSERT_TRUE(serialize(parse(text)) == text);
  Rng rng(seed);
  int rejected = 0, accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string input = mutate(text, rng);
    Doc doc;
    try {
      doc = parse(input);
    } catch (const CheckError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-CheckError: "
                    << e.what();
      continue;
    }
    ++accepted;
    try {
      EXPECT_TRUE(parse(serialize(doc)) == doc) << "mutant " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " parsed but its re-serialization "
                    << "did not: " << e.what();
    }
  }
  // Both outcomes occur, so neither check above is vacuous.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

TEST(JsonFuzz, PlanDocument) {
  const ScheduleConfig sc{4, 4, 1, ScaleMethod::kDirect};
  const PipelineSchedule s = build_decode_schedule(Scheme::kChimera, sc);
  const ExecutionPlan plan(s);
  const Partition part = plan_partition(nn::SmallModelConfig{}.spec(),
                                        sc.depth, PartitionPolicy::kEven, &s);
  KvPageGeometry kv;
  kv.page_size = 4;
  kv.max_seq = 16;
  kv.max_batch = 2;
  const std::string text = plan_to_json(plan, &part, &kv);
  fuzz<PlanDoc>(text, 20260808, plan_from_json, plan_doc_to_json);
}

TEST(JsonFuzz, TraceDocument) {
  nn::SmallModelConfig model;
  model.hidden = 16;
  model.layers = 2;
  model.seq = 4;
  rt::TrainerOptions opts;
  opts.intra_op = 0;
  rt::PipelineTrainer trainer(model, Scheme::kGPipe,
                              ScheduleConfig{2, 2, 1, ScaleMethod::kDirect},
                              opts);
  nn::MicroBatch batch;
  batch.batch = 2;
  batch.seq = model.seq;
  for (int i = 0; i < batch.batch * batch.seq; ++i) {
    batch.tokens.push_back(i % model.vocab);
    batch.targets.push_back((i + 1) % model.vocab);
  }
  obs::reset();
  obs::set_enabled(true);
  (void)trainer.train_iteration(batch);
  obs::set_enabled(false);
  obs::TraceDoc doc;
  doc.meta.workload = "training";
  doc.meta.depth = 2;
  doc.events = obs::collect();
  obs::reset();
  // Wall-clock stamps differ run to run; restamp so the corpus (and every
  // mutant) is the same on every run.
  for (std::size_t k = 0; k < doc.events.size(); ++k) {
    obs::TraceEvent& e = doc.events[k];
    e.t0_us = 12.345678901 * static_cast<double>(k);
    e.t1_us = obs::is_instant_kind(e.kind) ? e.t0_us : e.t0_us + 1.0 / 3.0;
  }
  ASSERT_FALSE(doc.events.empty());
  fuzz<obs::TraceDoc>(obs::trace_doc_to_json(doc), 20260809,
                      obs::trace_from_json, obs::trace_doc_to_json);
}

}  // namespace
}  // namespace chimera
