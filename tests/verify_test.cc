// Tests of the standalone plan verifier (src/verify) and the plan JSON
// interchange (core/plan_json.h): every checker certifies every scheme's
// healthy plans, every seeded corruption is caught by the matching checker,
// and the JSON export round-trips bitwise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/decode_schedule.h"
#include "core/execution_plan.h"
#include "core/inference_schedule.h"
#include "core/model_spec.h"
#include "core/partition.h"
#include "core/plan_json.h"
#include "core/schedule.h"
#include "core/sync_placement.h"
#include "support/check.h"
#include "support/rng.h"
#include "verify/fuzz.h"
#include "verify/mutate.h"
#include "verify/verifier.h"

namespace chimera::verify {
namespace {

std::string render(const Diagnostics& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += d.str() + "\n";
  return out;
}

PlanDoc training_doc(Scheme scheme, int depth, int micro, int f = 1,
                     ScaleMethod scale = ScaleMethod::kDirect,
                     SyncPolicy sync = SyncPolicy::kEagerOpt) {
  ScheduleConfig cfg;
  cfg.depth = depth;
  cfg.num_micro = micro;
  cfg.pipes_f = f;
  cfg.scale = scale;
  const PipelineSchedule s =
      with_gradient_sync(build_schedule(scheme, cfg), sync);
  const ExecutionPlan plan(s);
  return make_plan_doc(plan);
}

PlanDoc serving_doc(Scheme scheme, int depth, int micro, int f = 1) {
  ScheduleConfig cfg;
  cfg.depth = depth;
  cfg.num_micro = micro;
  cfg.pipes_f = f;
  const PipelineSchedule s = build_inference_schedule(scheme, cfg);
  const ExecutionPlan plan(s);
  return make_plan_doc(plan);
}

PlanDoc decode_doc(Scheme scheme, int depth, int micro, int f = 1) {
  ScheduleConfig cfg;
  cfg.depth = depth;
  cfg.num_micro = micro;
  cfg.pipes_f = f;
  const PipelineSchedule s = build_decode_schedule(scheme, cfg);
  const ExecutionPlan plan(s);
  return make_plan_doc(plan);
}

PlanDoc paged_decode_doc(Scheme scheme, int depth, int micro, int f,
                         const KvPageGeometry& g) {
  ScheduleConfig cfg;
  cfg.depth = depth;
  cfg.num_micro = micro;
  cfg.pipes_f = f;
  const PipelineSchedule s = build_decode_schedule(scheme, cfg);
  const ExecutionPlan plan(s);
  return make_plan_doc(plan, nullptr, &g);
}

// ---- healthy plans certify, per scheme ----------------------------------

TEST(VerifyPlan, CertifiesEveryTrainingScheme) {
  const struct {
    Scheme scheme;
    int f;
  } cases[] = {{Scheme::kChimera, 1}, {Scheme::kChimera, 2},
               {Scheme::kGPipe, 1},   {Scheme::kDapple, 1},
               {Scheme::kGems, 1},    {Scheme::kPipeDream, 1},
               {Scheme::kPipeDream2BW, 1}, {Scheme::kOneF1B, 1}};
  for (const auto& c : cases) {
    const PlanDoc doc = training_doc(c.scheme, 4, 8, c.f);
    const Diagnostics diags = verify_plan(doc);
    EXPECT_TRUE(diags.empty()) << scheme_name(c.scheme) << " f=" << c.f
                               << ":\n" << render(diags);
  }
}

TEST(VerifyPlan, CertifiesChimeraScaleMethods) {
  for (const ScaleMethod scale :
       {ScaleMethod::kForwardDoubling, ScaleMethod::kBackwardHalving}) {
    const PlanDoc doc = training_doc(Scheme::kChimera, 4, 8, 1, scale);
    const Diagnostics diags = verify_plan(doc);
    EXPECT_TRUE(diags.empty()) << scale_method_name(scale) << ":\n"
                               << render(diags);
  }
}

TEST(VerifyPlan, CertifiesEverySyncPolicy) {
  for (const SyncPolicy sync : {SyncPolicy::kNone, SyncPolicy::kAtEnd,
                                SyncPolicy::kEager, SyncPolicy::kEagerOpt}) {
    const PlanDoc doc =
        training_doc(Scheme::kChimera, 4, 4, 2, ScaleMethod::kDirect, sync);
    const Diagnostics diags = verify_plan(doc);
    EXPECT_TRUE(diags.empty()) << sync_policy_name(sync) << ":\n"
                               << render(diags);
  }
}

TEST(VerifyPlan, CertifiesServingAndDecodeSchemes) {
  const struct {
    Scheme scheme;
    int f;
  } cases[] = {{Scheme::kChimera, 1}, {Scheme::kChimera, 2},
               {Scheme::kGPipe, 1},   {Scheme::kDapple, 1},
               {Scheme::kOneF1B, 1}};
  for (const auto& c : cases) {
    const Diagnostics serving = verify_plan(serving_doc(c.scheme, 4, 8, c.f));
    EXPECT_TRUE(serving.empty()) << "serving " << scheme_name(c.scheme)
                                 << ":\n" << render(serving);
    const Diagnostics decode = verify_plan(decode_doc(c.scheme, 4, 8, c.f));
    EXPECT_TRUE(decode.empty()) << "decode " << scheme_name(c.scheme) << ":\n"
                                << render(decode);
  }
}

TEST(VerifyPlan, CertifiesExportedPartition) {
  ScheduleConfig cfg;
  cfg.depth = 4;
  cfg.num_micro = 8;
  const PipelineSchedule s = with_gradient_sync(
      build_schedule(Scheme::kChimera, cfg), SyncPolicy::kEagerOpt);
  const ExecutionPlan plan(s);
  ModelSpec model = ModelSpec::bert48();
  for (const PartitionPolicy policy :
       {PartitionPolicy::kEven, PartitionPolicy::kBalancedFlops,
        PartitionPolicy::kBalancedMemory}) {
    const Partition part = plan_partition(model, cfg.depth, policy, &s, 2);
    const PlanDoc doc = make_plan_doc(plan, &part);
    ASSERT_TRUE(doc.has_partition);
    const Diagnostics diags = verify_plan(doc);
    EXPECT_TRUE(diags.empty()) << render(diags);
  }
}

// ---- JSON round-trip -----------------------------------------------------

TEST(PlanJson, RoundTripsBitwise) {
  const PlanDoc docs[] = {
      training_doc(Scheme::kChimera, 4, 8, 2),
      training_doc(Scheme::kChimera, 4, 8, 1, ScaleMethod::kBackwardHalving),
      training_doc(Scheme::kGPipe, 4, 6),
      training_doc(Scheme::kPipeDream, 4, 8),
      serving_doc(Scheme::kDapple, 4, 8),
      decode_doc(Scheme::kChimera, 4, 8, 2),
  };
  for (const PlanDoc& doc : docs) {
    const std::string json = plan_doc_to_json(doc);
    const PlanDoc parsed = plan_from_json(json);
    EXPECT_TRUE(parsed == doc);
    EXPECT_EQ(plan_doc_to_json(parsed), json);  // bitwise-stable
  }
}

TEST(PlanJson, RoundTripsPartition) {
  ScheduleConfig cfg;
  cfg.depth = 4;
  cfg.num_micro = 4;
  const PipelineSchedule s = build_schedule(Scheme::kGPipe, cfg);
  const ExecutionPlan plan(s);
  const ModelSpec model = ModelSpec::bert48();
  const Partition part =
      plan_partition(model, cfg.depth, PartitionPolicy::kBalancedFlops);
  const PlanDoc doc = make_plan_doc(plan, &part);
  const PlanDoc parsed = plan_from_json(plan_doc_to_json(doc));
  EXPECT_TRUE(parsed == doc);
  EXPECT_EQ(parsed.partition.num_layers, model.layers);
}

TEST(PlanJson, RejectsMalformedInput) {
  EXPECT_THROW(plan_from_json(""), CheckError);
  EXPECT_THROW(plan_from_json("not json"), CheckError);
  EXPECT_THROW(plan_from_json("{\"format\": \"chimera-plan-v1\""), CheckError);
  EXPECT_THROW(plan_from_json("{\"format\": 3}"), CheckError);
  const std::string valid = plan_to_json(
      ExecutionPlan(build_schedule(Scheme::kGPipe, ScheduleConfig{})));
  EXPECT_NO_THROW(plan_from_json(valid));
  EXPECT_THROW(plan_from_json(valid + "x"), CheckError);  // trailing garbage
}

TEST(PlanJson, RejectsIntegersThatDoNotFitTheirField) {
  const std::string valid = plan_to_json(ExecutionPlan(
      build_schedule(Scheme::kChimera, {4, 4, 1, ScaleMethod::kDirect})));
  auto with_depth = [&valid](const std::string& depth) {
    std::string json = valid;
    const std::string key = "\"depth\":4,";
    json.replace(json.find(key), key.size(), "\"depth\":" + depth + ",");
    return json;
  };
  EXPECT_NO_THROW(plan_from_json(with_depth("4")));
  // 2^32 + 4 once narrowed to a clean D=4 plan.
  EXPECT_THROW(plan_from_json(with_depth("4294967300")), CheckError);
  // Beyond int64 once escaped as std::out_of_range and aborted verify_plan.
  EXPECT_THROW(plan_from_json(with_depth("99999999999999999999")), CheckError);
  const Diagnostics diags = verify_json(with_depth("99999999999999999999"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].check, check::kStructure);
}

TEST(PlanJson, SchemeWithQuotesAndControlsRoundTrips) {
  PlanDoc doc = training_doc(Scheme::kChimera, 4, 4);
  doc.scheme = "Chi\"mera\\\n\x01";
  const std::string json = plan_doc_to_json(doc);
  EXPECT_TRUE(plan_from_json(json) == doc);
  EXPECT_EQ(plan_doc_to_json(plan_from_json(json)), json);
}

// ---- every mutation class is caught --------------------------------------

TEST(Mutations, EveryClassCaughtOnTrainingPlan) {
  ScheduleConfig cfg;
  cfg.depth = 4;
  cfg.num_micro = 8;
  cfg.pipes_f = 2;
  const PipelineSchedule s = with_gradient_sync(
      build_schedule(Scheme::kChimera, cfg), SyncPolicy::kEagerOpt);
  const ExecutionPlan plan(s);
  const ModelSpec model = ModelSpec::bert48();
  const Partition part =
      plan_partition(model, cfg.depth, PartitionPolicy::kEven, &s);
  const PlanDoc doc = make_plan_doc(plan, &part);
  ASSERT_TRUE(verify_plan(doc).empty());

  Rng rng(42);
  int applied = 0;
  for (const MutationKind kind : all_mutation_kinds()) {
    PlanDoc corrupted = doc;
    const auto mutation = apply_mutation(kind, corrupted, rng);
    if (!mutation) continue;  // cache mutations need a decode plan
    ++applied;
    const Diagnostics diags = verify_plan(corrupted);
    EXPECT_FALSE(diags.empty())
        << mutation_name(kind) << " (" << mutation->description
        << ") was not detected at all";
    EXPECT_TRUE(mutation_caught(*mutation, diags))
        << mutation_name(kind) << " (" << mutation->description
        << ") missed by its expected checker; got:\n" << render(diags);
  }
  // drop-stash-release, duplicate-tag, flip-dep, drop-dep,
  // corrupt-partition, retarget-send apply to a training plan.
  EXPECT_EQ(applied, 6);
}

TEST(Mutations, CacheClassesCaughtOnDecodePlan) {
  const PlanDoc doc = decode_doc(Scheme::kChimera, 4, 8, 2);
  ASSERT_TRUE(verify_plan(doc).empty());
  Rng rng(43);
  for (const MutationKind kind : {MutationKind::kDropCacheRelease,
                                  MutationKind::kSpuriousCacheAcquire}) {
    PlanDoc corrupted = doc;
    const auto mutation = apply_mutation(kind, corrupted, rng);
    ASSERT_TRUE(mutation.has_value()) << mutation_name(kind);
    EXPECT_TRUE(mutation_caught(*mutation, verify_plan(corrupted)))
        << mutation_name(kind) << ": " << mutation->description;
  }
}

TEST(Mutations, SweepAcrossSeedsNeverEscapes) {
  // Same invariant the CI fuzz job enforces at n >= 1000, kept small here.
  FuzzOptions options;
  options.n = 60;
  options.seed = 20260808;
  const FuzzStats stats = run_fuzz(options);
  EXPECT_GT(stats.plans, 0);
  EXPECT_GT(stats.mutations, 0);
  EXPECT_EQ(stats.escapes, 0) << render({});
  EXPECT_TRUE(stats.ok()) << (stats.failures.empty()
                                  ? std::string("no failure detail")
                                  : stats.failures.front());
}

// ---- hand-written corruptions, one per checker family --------------------

class CheckerDetection : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = training_doc(Scheme::kChimera, 4, 8, 2);
    ASSERT_TRUE(verify_plan(doc_).empty());
  }
  PlanDoc doc_;
};

TEST_F(CheckerDetection, Structure) {
  doc_.workers.pop_back();
  EXPECT_TRUE(has_check(verify_plan(doc_), check::kStructure));
}

TEST_F(CheckerDetection, Placement) {
  // Move the first op of worker 0 onto worker 1's timeline. Deps shift too,
  // so several checkers fire; placement must be among them.
  doc_.workers[1].insert(doc_.workers[1].begin(), doc_.workers[0].front());
  doc_.workers[0].erase(doc_.workers[0].begin());
  EXPECT_TRUE(has_check(verify_plan(doc_), check::kPlacement));
}

TEST_F(CheckerDetection, DepRangeAndOrder) {
  doc_.workers[0][1].deps.emplace_back(99, 0);
  doc_.workers[0][1].deps.emplace_back(0, 1);  // self
  const Diagnostics diags = verify_plan(doc_);
  EXPECT_TRUE(has_check(diags, check::kDepRange));
  EXPECT_TRUE(has_check(diags, check::kDepOrder));
}

TEST_F(CheckerDetection, Deadlock) {
  // Mutual cross-worker wait: neither op can ever become ready.
  doc_.workers[0][0].deps.emplace_back(1, 0);
  doc_.workers[1][0].deps.emplace_back(0, 0);
  const Diagnostics diags = verify_plan(doc_);
  EXPECT_TRUE(has_check(diags, check::kDeadlock)) << render(diags);
}

TEST_F(CheckerDetection, SelfSendEndpoint) {
  for (int w = 0; w < static_cast<int>(doc_.workers.size()); ++w)
    for (auto& op : doc_.workers[w])
      for (auto& unit : op.units)
        if (unit.send_to >= 0) {
          unit.send_to = w;  // transfer to its own worker
          EXPECT_TRUE(has_check(verify_plan(doc_), check::kP2pEndpoint));
          return;
        }
  FAIL() << "no send found";
}

TEST_F(CheckerDetection, StashClaim) {
  doc_.claimed_max_inflight[0] += 1;
  EXPECT_TRUE(has_check(verify_plan(doc_), check::kStashClaim));
}

TEST_F(CheckerDetection, CollectivePairing) {
  for (auto& worker : doc_.workers)
    for (auto& op : worker)
      if (op.kind == "allreduce_wait") {
        op.kind = "allreduce_begin";  // 2 begins, 0 waits for this stage
        EXPECT_TRUE(has_check(verify_plan(doc_), check::kCollective));
        return;
      }
  FAIL() << "no allreduce_wait found";
}

TEST_F(CheckerDetection, Dataflow) {
  // Rewire a mid-chain recv to the wrong upstream worker.
  for (auto& worker : doc_.workers)
    for (auto& op : worker)
      for (auto& unit : op.units)
        if (unit.recv_from >= 0) {
          unit.recv_from = (unit.recv_from + 1) % doc_.depth;
          const Diagnostics diags = verify_plan(doc_);
          EXPECT_TRUE(has_check(diags, check::kDataflow) ||
                      has_check(diags, check::kP2pEndpoint))
              << render(diags);
          return;
        }
  FAIL() << "no recv found";
}

TEST(CheckerDetectionDecode, CacheClaim) {
  PlanDoc doc = decode_doc(Scheme::kGPipe, 4, 6);
  ASSERT_TRUE(verify_plan(doc).empty());
  doc.claimed_cache_bindings[2] += 1;
  EXPECT_TRUE(has_check(verify_plan(doc), check::kCacheClaim));
}

// ---- paged-KV page budget claim ------------------------------------------

KvPageGeometry small_geometry() {
  KvPageGeometry g;
  g.page_size = 4;
  g.max_seq = 16;
  g.max_batch = 2;
  g.pool_pages = 0;  // auto-sized per worker from lanes * pages_per_session
  return g;
}

TEST(PagedKvClaim, CertifiesAndRoundTripsEveryDecodeScheme) {
  const struct {
    Scheme scheme;
    int f;
  } cases[] = {{Scheme::kChimera, 1}, {Scheme::kChimera, 2},
               {Scheme::kGPipe, 1},   {Scheme::kDapple, 1}};
  for (const auto& c : cases) {
    const PlanDoc doc =
        paged_decode_doc(c.scheme, 4, 8, c.f, small_geometry());
    ASSERT_TRUE(doc.has_kv_pages);
    EXPECT_EQ(doc.kv_pages.pages_per_session, 4);
    EXPECT_EQ(static_cast<int>(doc.kv_pages.claimed_pages.size()), doc.depth);
    const Diagnostics diags = verify_plan(doc);
    EXPECT_TRUE(diags.empty()) << scheme_name(c.scheme) << " f=" << c.f
                               << ":\n" << render(diags);
    const std::string json = plan_doc_to_json(doc);
    const PlanDoc parsed = plan_from_json(json);
    EXPECT_TRUE(parsed == doc);
    EXPECT_EQ(plan_doc_to_json(parsed), json);
  }
}

TEST(PagedKvClaim, FixedPoolCertifies) {
  KvPageGeometry g = small_geometry();
  g.pool_pages = 2 * g.pages_per_session();
  const PlanDoc doc = paged_decode_doc(Scheme::kChimera, 4, 8, 2, g);
  EXPECT_TRUE(verify_plan(doc).empty());
}

TEST(PagedKvClaim, CorruptClaimCaught) {
  PlanDoc doc = paged_decode_doc(Scheme::kGPipe, 4, 6, 1, small_geometry());
  ASSERT_TRUE(verify_plan(doc).empty());
  doc.kv_pages.claimed_pages[1] += 1;
  EXPECT_TRUE(has_check(verify_plan(doc), check::kPageBudget));
}

TEST(PagedKvClaim, InconsistentGeometryCaught) {
  {
    PlanDoc doc = paged_decode_doc(Scheme::kGPipe, 4, 6, 1, small_geometry());
    doc.kv_pages.pages_per_session += 1;  // != ceil(max_seq / page_size)
    EXPECT_TRUE(has_check(verify_plan(doc), check::kPageBudget));
  }
  {
    PlanDoc doc = paged_decode_doc(Scheme::kGPipe, 4, 6, 1, small_geometry());
    // A fixed pool smaller than one session breaks the progress guarantee
    // the decode engine's eviction policy relies on.
    doc.kv_pages.pool_pages = doc.kv_pages.pages_per_session - 1;
    for (int& p : doc.kv_pages.claimed_pages) p = doc.kv_pages.pool_pages;
    EXPECT_TRUE(has_check(verify_plan(doc), check::kPageBudget));
  }
}

TEST(PagedKvClaim, NonDecodePlanWithPagesFlagged) {
  PlanDoc doc = training_doc(Scheme::kGPipe, 4, 4);
  ASSERT_TRUE(verify_plan(doc).empty());
  doc.has_kv_pages = true;
  doc.kv_pages.page_size = 4;
  doc.kv_pages.max_seq = 16;
  doc.kv_pages.max_batch = 1;
  doc.kv_pages.pages_per_session = 4;
  doc.kv_pages.claimed_pages.assign(doc.depth, 4);
  EXPECT_TRUE(has_check(verify_plan(doc), check::kPageBudget));
}

TEST(PagedKvClaim, MutationCaughtOnPagedDecodePlan) {
  const PlanDoc doc =
      paged_decode_doc(Scheme::kChimera, 4, 8, 2, small_geometry());
  ASSERT_TRUE(verify_plan(doc).empty());
  Rng rng(44);
  PlanDoc corrupted = doc;
  const auto mutation =
      apply_mutation(MutationKind::kCorruptPageBudget, corrupted, rng);
  ASSERT_TRUE(mutation.has_value());
  EXPECT_TRUE(mutation_caught(*mutation, verify_plan(corrupted)))
      << mutation->description;
  // And it declines plans without the claim — the training-plan count in
  // EveryClassCaughtOnTrainingPlan depends on that.
  PlanDoc plain = decode_doc(Scheme::kGPipe, 4, 6);
  EXPECT_FALSE(
      apply_mutation(MutationKind::kCorruptPageBudget, plain, rng).has_value());
}

// ---- validate_schedule: structured issues replace aborts -----------------

TEST(ValidateSchedule, AcceptsEveryBuiltScheme) {
  for (const Scheme scheme :
       {Scheme::kChimera, Scheme::kGPipe, Scheme::kDapple, Scheme::kGems,
        Scheme::kPipeDream, Scheme::kPipeDream2BW, Scheme::kOneF1B}) {
    ScheduleConfig cfg;
    cfg.depth = 4;
    cfg.num_micro = 4;
    const PipelineSchedule s = build_schedule(scheme, cfg);
    EXPECT_TRUE(validate_schedule(s).empty()) << scheme_name(scheme);
  }
}

TEST(ValidateSchedule, ReportsShapeIssuesInsteadOfAborting) {
  PipelineSchedule s = build_schedule(Scheme::kGPipe, ScheduleConfig{});
  s.depth += 1;  // worker_ops no longer matches
  const std::vector<ScheduleIssue> issues = validate_schedule(s);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().check, "shape");
  EXPECT_THROW(validate(s), CheckError);  // the wrapper still throws
}

TEST(ValidateSchedule, ReportsMissingMicroAsCompleteness) {
  PipelineSchedule s = build_schedule(Scheme::kGPipe, ScheduleConfig{});
  // Erase every op touching micro 0 on worker 0: the coverage walk fails.
  auto& ops = s.worker_ops[0];
  for (auto it = ops.begin(); it != ops.end();)
    it = (it->is_compute() && it->covers_micro(0)) ? ops.erase(it) : it + 1;
  const std::vector<ScheduleIssue> issues = validate_schedule(s);
  ASSERT_FALSE(issues.empty());
  bool completeness = false;
  for (const ScheduleIssue& issue : issues)
    completeness = completeness || issue.check == "completeness" ||
                   issue.check == "lowering" || issue.check == "replay";
  EXPECT_TRUE(completeness);
}

}  // namespace
}  // namespace chimera::verify
