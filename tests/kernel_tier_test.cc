// The kernel-tier contract (DESIGN.md §2 item 18).
//
// gemm / gemm_tn must be BITWISE identical across tiers: the fast tier's
// microkernels keep every output element's serial ascending reduction over
// the contraction dimension and never contract mul+add into FMA. gemm_nt's
// fast tier reduces dot products across vector lanes, so it is only
// tolerance-equal to the reference — but each element is a pure function of
// k and the data, so it must be bitwise stable in the row count (the decode
// step-vs-reforward contract) and in the shard split.
//
// The tests verify against a test-local serial replica of the scalar
// reference (same blocking, same accumulation orders), so they hold under
// either CHIMERA_KERNEL_TIER pin: pinned runs check the pinned tier against
// the replica; unpinned runs additionally flip tiers via the policy and
// compare the tiers directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/compute_pool.h"
#include "tensor/kernels.h"
#include "tensor/kernels_simd.h"

namespace chimera {
namespace {

enum class EnvPin { kNone, kScalar, kFast };

EnvPin env_pin() {
  const char* v = std::getenv("CHIMERA_KERNEL_TIER");
  if (v == nullptr || *v == '\0') return EnvPin::kNone;
  return std::strcmp(v, "scalar") == 0 ? EnvPin::kScalar : EnvPin::kFast;
}

/// Policies whose dispatch the current environment lets us observe: with a
/// pinned tier the policy is ignored, so one entry suffices; unpinned, both
/// explicit tiers are reachable.
std::vector<KernelPolicy> testable_policies() {
  if (env_pin() != EnvPin::kNone) return {kernel_policy()};
  return {KernelPolicy::kScalarReference, KernelPolicy::kFast};
}

/// RAII: tests restore the process policy they mutate.
struct PolicyGuard {
  KernelPolicy saved = kernel_policy();
  ~PolicyGuard() { set_kernel_policy(saved); }
};

Tensor random_tensor(int r, int c, Rng& rng, float scale = 1.0f) {
  Tensor t(r, c);
  t.randn(rng, scale);
  return t;
}

// Serial replicas of the scalar reference tier's per-element accumulation
// orders (kernels.cc): ascending l for gemm/gemm_tn, ascending kBlock
// partial dots for gemm_nt. Plain mul+add — like the reference, these are
// compiled for baseline x86-64 where no FMA contraction exists.
constexpr int kRefBlock = 48;

void ref_gemm(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l = 0; l < a.cols(); ++l) s += a.at(i, l) * b.at(l, j);
      c.at(i, j) = s;
    }
}

void ref_gemm_tn(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  for (int i = 0; i < a.cols(); ++i)
    for (int j = 0; j < b.cols(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l = 0; l < a.rows(); ++l) s += a.at(l, i) * b.at(l, j);
      c.at(i, j) = s;
    }
}

void ref_gemm_nt(const Tensor& a, const Tensor& b, Tensor& c, bool acc) {
  const int k = a.cols();
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.rows(); ++j) {
      float s = acc ? c.at(i, j) : 0.0f;
      for (int l0 = 0; l0 < k; l0 += kRefBlock) {
        const int l1 = std::min(k, l0 + kRefBlock);
        float p = 0.0f;
        for (int l = l0; l < l1; ++l) p += a.at(i, l) * b.at(j, l);
        s += p;
      }
      c.at(i, j) = s;
    }
}

void ref_add_bias(Tensor& y, const Tensor& bias) {
  for (int r = 0; r < y.rows(); ++r)
    for (int c = 0; c < y.cols(); ++c) y.at(r, c) += bias.at(0, c);
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.numel(), want.numel());
  for (std::size_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(got[i], want[i]) << "element " << i;
}

/// Shapes deliberately off the 6×16 tile and 48 block grids (plus exact
/// multiples and degenerate edges).
const std::tuple<int, int, int> kShapes[] = {
    {1, 1, 1},   {3, 5, 7},    {6, 16, 32},  {13, 48, 33},
    {17, 31, 9}, {48, 64, 96}, {7, 129, 65}, {65, 7, 130}};

/// kShapes plus the fast tier's tile tails: every row count mod 6 (gemm
/// tiles) and mod 3 (gemm_nt tiles), column counts on both sides of the
/// 16-wide panel and 4-wide dot-group edges, and k on both sides of the
/// 8-lane vector edge.
std::vector<std::tuple<int, int, int>> gemm_shapes() {
  std::vector<std::tuple<int, int, int>> shapes(std::begin(kShapes),
                                                std::end(kShapes));
  for (int m : {1, 2, 3, 4, 5, 7, 13, 32, 49})
    for (int n : {1, 4, 5, 15, 16, 17, 33})
      for (int k : {7, 8, 9, 33}) shapes.emplace_back(m, k, n);
  return shapes;
}

std::string shape_name(int m, int k, int n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

TEST(KernelTier, DispatchRespectsEnvPinAndPolicy) {
  PolicyGuard guard;
  switch (env_pin()) {
    case EnvPin::kScalar:
      for (auto p : {KernelPolicy::kScalarReference, KernelPolicy::kFast,
                     KernelPolicy::kAuto}) {
        set_kernel_policy(p);
        EXPECT_EQ(active_kernel_tier(), KernelTier::kScalar);
      }
      break;
    case EnvPin::kFast:
      for (auto p : {KernelPolicy::kScalarReference, KernelPolicy::kFast,
                     KernelPolicy::kAuto}) {
        set_kernel_policy(p);
        EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
      }
      break;
    case EnvPin::kNone:
      set_kernel_policy(KernelPolicy::kScalarReference);
      EXPECT_EQ(active_kernel_tier(), KernelTier::kScalar);
      set_kernel_policy(KernelPolicy::kFast);
      EXPECT_EQ(active_kernel_tier(), KernelTier::kFast);
      // kAuto keys on the CPU: fast exactly on AVX2+FMA hosts.
      set_kernel_policy(KernelPolicy::kAuto);
      EXPECT_EQ(active_kernel_tier(), simd::cpu_supports_avx2_fma()
                                          ? KernelTier::kFast
                                          : KernelTier::kScalar);
      break;
  }
}

TEST(KernelTier, GemmBitwiseMatchesReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(21);
  for (auto [m, k, n] : gemm_shapes()) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(k, n, rng);
    for (bool accumulate : {false, true}) {
      Tensor want = random_tensor(m, n, rng, 0.5f);
      Tensor seed = want;  // same starting contents for every tier
      ref_gemm(a, b, want, accumulate);
      for (KernelPolicy p : testable_policies()) {
        SCOPED_TRACE(shape_name(m, k, n) + (accumulate ? " acc" : "") +
                     " policy=" + std::to_string(static_cast<int>(p)));
        set_kernel_policy(p);
        Tensor c = seed;
        gemm(a, b, c, accumulate);
        expect_bitwise(c, want);
      }
    }
  }
}

TEST(KernelTier, GemmTnBitwiseMatchesReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(22);
  for (auto [m, k, n] : gemm_shapes()) {
    const Tensor a = random_tensor(k, m, rng);  // stores Aᵀ
    const Tensor b = random_tensor(k, n, rng);
    for (bool accumulate : {false, true}) {
      Tensor want = random_tensor(m, n, rng, 0.5f);
      Tensor seed = want;
      ref_gemm_tn(a, b, want, accumulate);
      for (KernelPolicy p : testable_policies()) {
        SCOPED_TRACE(shape_name(m, k, n) + (accumulate ? " acc" : ""));
        set_kernel_policy(p);
        Tensor c = seed;
        gemm_tn(a, b, c, accumulate);
        expect_bitwise(c, want);
      }
    }
  }
}

TEST(KernelTier, GemmNtToleranceAgainstReference) {
  PolicyGuard guard;
  Rng rng(23);
  for (auto [m, k, n] : kShapes) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(n, k, rng);  // stores Bᵀ
    for (bool accumulate : {false, true}) {
      Tensor want = random_tensor(m, n, rng, 0.5f);
      Tensor seed = want;
      ref_gemm_nt(a, b, want, accumulate);
      for (KernelPolicy p : testable_policies()) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n) + (accumulate ? " acc" : ""));
        set_kernel_policy(p);
        Tensor c = seed;
        gemm_nt(a, b, c, accumulate);
        if (active_kernel_tier() == KernelTier::kScalar) {
          expect_bitwise(c, want);  // the reference tier has one exact order
        } else {
          for (std::size_t i = 0; i < c.numel(); ++i)
            ASSERT_NEAR(c[i], want[i], 1e-5f * k) << "element " << i;
        }
      }
    }
  }
}

TEST(KernelTier, GemmNtRowsAreBitwiseStableInRowCount) {
  // The decode contract: a [1, k] query row must produce bitwise the same
  // scores whether computed alone (decode_step) or as one row of the full
  // [m, k] forward — in every tier, the per-element result depends only on
  // k and the data, never on m, the tile the row lands in or the shard
  // split. An M = 1 call never fills a multi-row tile, so this also pins
  // every tile and tail path of the full-height call to the single-row dot.
  PolicyGuard guard;
  Rng rng(24);
  for (auto [m, k, n] : gemm_shapes()) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(n, k, rng);  // stores Bᵀ
    for (bool accumulate : {false, true}) {
      const Tensor seed = random_tensor(m, n, rng, 0.5f);
      for (KernelPolicy p : testable_policies()) {
        SCOPED_TRACE(shape_name(m, k, n) + (accumulate ? " acc" : "") +
                     " policy=" + std::to_string(static_cast<int>(p)));
        set_kernel_policy(p);
        Tensor full = seed;
        gemm_nt(a, b, full, accumulate);
        for (int i = 0; i < m; ++i) {
          Tensor arow(1, k), crow(1, n);
          for (int l = 0; l < k; ++l) arow.at(0, l) = a.at(i, l);
          for (int j = 0; j < n; ++j) crow.at(0, j) = seed.at(i, j);
          gemm_nt(arow, b, crow, accumulate);
          for (int j = 0; j < n; ++j)
            ASSERT_EQ(crow.at(0, j), full.at(i, j))
                << "row " << i << " col " << j;
        }
      }
    }
  }
}

TEST(KernelTier, FusedBiasGeluBitwiseMatchesUnfused) {
  // y bitwise against the reference and the unfused passes, g bitwise
  // against the tier's own gelu_forward of that y.
  PolicyGuard guard;
  Rng rng(25);
  for (auto [m, k, n] : gemm_shapes()) {
    const Tensor x = random_tensor(m, k, rng);
    const Tensor w = random_tensor(k, n, rng);
    const Tensor bias = random_tensor(1, n, rng, 0.5f);
    Tensor ref_y(m, n);
    ref_gemm(x, w, ref_y, /*acc=*/false);
    ref_add_bias(ref_y, bias);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE(shape_name(m, k, n) + " policy=" +
                   std::to_string(static_cast<int>(p)));
      set_kernel_policy(p);
      Tensor want_y(m, n);
      gemm(x, w, want_y);
      add_bias(want_y, bias);
      expect_bitwise(want_y, ref_y);
      Tensor want_g(m, n);
      gelu_forward(want_y, want_g);

      Tensor y1(m, n);
      gemm_bias(x, w, bias, y1);
      expect_bitwise(y1, want_y);

      Tensor y2(m, n), g2(m, n);
      gemm_bias_gelu(x, w, bias, y2, g2);
      expect_bitwise(y2, want_y);
      expect_bitwise(g2, want_g);
    }
  }
}

// ---- Non-GEMM ops (serial replicas of the scalar reference tier) ---------

void ref_bias_backward(const Tensor& dy, Tensor& dbias) {
  for (int r = 0; r < dy.rows(); ++r)
    for (int c = 0; c < dy.cols(); ++c) dbias.at(0, c) += dy.at(r, c);
}

void ref_layernorm_forward(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, Tensor& y, Tensor& mean,
                           Tensor& rstd) {
  const int R = x.rows(), H = x.cols();
  for (int r = 0; r < R; ++r) {
    float mu = 0.0f;
    for (int c = 0; c < H; ++c) mu += x.at(r, c);
    mu /= H;
    float var = 0.0f;
    for (int c = 0; c < H; ++c) {
      const float d = x.at(r, c) - mu;
      var += d * d;
    }
    var /= H;
    const float rs = 1.0f / std::sqrt(var + 1e-5f);
    mean.at(r, 0) = mu;
    rstd.at(r, 0) = rs;
    for (int c = 0; c < H; ++c)
      y.at(r, c) = (x.at(r, c) - mu) * rs * gamma.at(0, c) + beta.at(0, c);
  }
}

void ref_layernorm_backward(const Tensor& x, const Tensor& gamma,
                            const Tensor& mean, const Tensor& rstd,
                            const Tensor& dy, Tensor& dx, Tensor& dgamma,
                            Tensor& dbeta) {
  const int R = x.rows(), H = x.cols();
  for (int r = 0; r < R; ++r) {
    const float mu = mean.at(r, 0);
    const float rs = rstd.at(r, 0);
    float sum_dyg = 0.0f, sum_dyg_xhat = 0.0f;
    for (int c = 0; c < H; ++c) {
      const float xhat = (x.at(r, c) - mu) * rs;
      const float dyg = dy.at(r, c) * gamma.at(0, c);
      sum_dyg += dyg;
      sum_dyg_xhat += dyg * xhat;
    }
    for (int c = 0; c < H; ++c) {
      const float xhat = (x.at(r, c) - mu) * rs;
      const float dyg = dy.at(r, c) * gamma.at(0, c);
      dx.at(r, c) = rs * (dyg - sum_dyg / H - xhat * sum_dyg_xhat / H);
    }
  }
  for (int r = 0; r < R; ++r) {
    const float mu = mean.at(r, 0);
    const float rs = rstd.at(r, 0);
    for (int c = 0; c < H; ++c) {
      const float xhat = (x.at(r, c) - mu) * rs;
      dgamma.at(0, c) += dy.at(r, c) * xhat;
      dbeta.at(0, c) += dy.at(r, c);
    }
  }
}

void ref_softmax(const Tensor& x, Tensor& y) {
  const int R = x.rows(), C = x.cols();
  for (int r = 0; r < R; ++r) {
    float mx = x.at(r, 0);
    for (int c = 1; c < C; ++c) mx = std::max(mx, x.at(r, c));
    float sum = 0.0f;
    for (int c = 0; c < C; ++c) {
      const float e = std::exp(x.at(r, c) - mx);
      y.at(r, c) = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int c = 0; c < C; ++c) y.at(r, c) *= inv;
  }
}

float ref_cross_entropy(const Tensor& logits, const std::vector<int>& targets,
                        Tensor& dlogits, float loss_scale) {
  const int R = logits.rows(), V = logits.cols();
  const float k = loss_scale / R;
  ref_softmax(logits, dlogits);
  float loss = 0.0f;
  for (int r = 0; r < R; ++r) {
    const int t = targets[r];
    loss -= std::log(std::max(dlogits.at(r, t), 1e-20f));
    for (int c = 0; c < V; ++c) dlogits.at(r, c) *= k;
    dlogits.at(r, t) -= k;
  }
  return loss / R;
}

TEST(KernelTier, BiasOpsBitwiseMatchReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(27);
  for (auto [r, c] : {std::pair{1, 1}, {3, 5}, {17, 31}, {64, 768}}) {
    const Tensor y0 = random_tensor(r, c, rng);
    const Tensor bias = random_tensor(1, c, rng);
    const Tensor dy = random_tensor(r, c, rng);
    const Tensor db0 = random_tensor(1, c, rng, 0.5f);
    Tensor want_y = y0;
    ref_add_bias(want_y, bias);
    Tensor want_db = db0;
    ref_bias_backward(dy, want_db);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      set_kernel_policy(p);
      Tensor y = y0;
      add_bias(y, bias);
      expect_bitwise(y, want_y);
      Tensor db = db0;
      bias_backward(dy, db);
      expect_bitwise(db, want_db);
    }
  }
}

TEST(KernelTier, GeluToleranceAgainstReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(28);
  const Tensor x = random_tensor(13, 37, rng, 2.0f);
  const Tensor dy = random_tensor(13, 37, rng);
  Tensor want_y(13, 37), want_dx(13, 37);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    want_y[i] = detail::gelu_eval(x[i]);
    want_dx[i] = dy[i] * detail::gelu_grad_eval(x[i]);
  }
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor y(13, 37), dx(13, 37);
    gelu_forward(x, y);
    gelu_backward(x, dy, dx);
    if (active_kernel_tier() == KernelTier::kScalar) {
      expect_bitwise(y, want_y);
      expect_bitwise(dx, want_dx);
    } else {
      for (std::size_t i = 0; i < x.numel(); ++i) {
        ASSERT_NEAR(y[i], want_y[i], 1e-5f) << "element " << i;
        ASSERT_NEAR(dx[i], want_dx[i], 1e-5f) << "element " << i;
      }
    }
  }
}

TEST(KernelTier, GeluIsBitwisePositionStableInEveryTier) {
  // Each output must depend only on its own input element — never on the
  // element's position, the tensor shape, or the shard split (within a
  // tier). Decode-path single rows then match training-path full batches.
  PolicyGuard guard;
  Rng rng(29);
  const int m = 9, n = 53;
  const Tensor x = random_tensor(m, n, rng, 2.0f);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor full(m, n);
    gelu_forward(x, full);
    for (int r : {0, 4, 8}) {
      Tensor xrow(1, n), yrow(1, n);
      for (int c = 0; c < n; ++c) xrow.at(0, c) = x.at(r, c);
      gelu_forward(xrow, yrow);
      for (int c = 0; c < n; ++c)
        ASSERT_EQ(yrow.at(0, c), full.at(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(KernelTier, LayerNormForwardToleranceInEveryTier) {
  PolicyGuard guard;
  Rng rng(30);
  for (int h : {1, 7, 64, 192}) {
    const Tensor x = random_tensor(11, h, rng);
    const Tensor gamma = random_tensor(1, h, rng);
    const Tensor beta = random_tensor(1, h, rng);
    Tensor want_y(11, h), want_mu(11, 1), want_rs(11, 1);
    ref_layernorm_forward(x, gamma, beta, want_y, want_mu, want_rs);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("h=" + std::to_string(h));
      set_kernel_policy(p);
      Tensor y(11, h), mu(11, 1), rs(11, 1);
      layernorm_forward(x, gamma, beta, y, mu, rs);
      if (active_kernel_tier() == KernelTier::kScalar) {
        expect_bitwise(y, want_y);
        expect_bitwise(mu, want_mu);
        expect_bitwise(rs, want_rs);
      } else {
        for (std::size_t i = 0; i < y.numel(); ++i)
          ASSERT_NEAR(y[i], want_y[i], 1e-4f) << "element " << i;
      }
    }
  }
}

TEST(KernelTier, LayerNormBackwardParamGradsBitwiseInEveryTier) {
  // Given the same (mean, rstd), dgamma/dbeta accumulate rows in ascending
  // order in both tiers — bitwise; dx reduces per-row dots across lanes in
  // the fast tier — tolerance.
  PolicyGuard guard;
  Rng rng(31);
  const int R = 19, H = 96;
  const Tensor x = random_tensor(R, H, rng);
  const Tensor gamma = random_tensor(1, H, rng);
  const Tensor beta = random_tensor(1, H, rng);
  const Tensor dy = random_tensor(R, H, rng);
  Tensor y(R, H), mu(R, 1), rs(R, 1);
  ref_layernorm_forward(x, gamma, beta, y, mu, rs);
  Tensor want_dx(R, H), want_dg(1, H), want_db(1, H);
  ref_layernorm_backward(x, gamma, mu, rs, dy, want_dx, want_dg, want_db);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor dx(R, H), dg(1, H), db(1, H);
    layernorm_backward(x, gamma, mu, rs, dy, dx, dg, db);
    expect_bitwise(dg, want_dg);
    expect_bitwise(db, want_db);
    if (active_kernel_tier() == KernelTier::kScalar) {
      expect_bitwise(dx, want_dx);
    } else {
      for (std::size_t i = 0; i < dx.numel(); ++i)
        ASSERT_NEAR(dx[i], want_dx[i], 1e-4f) << "element " << i;
    }
  }
}

TEST(KernelTier, SoftmaxToleranceAgainstReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(32);
  for (int c : {1, 5, 8, 64, 131}) {
    const Tensor x = random_tensor(9, c, rng, 3.0f);
    Tensor want(9, c);
    ref_softmax(x, want);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("c=" + std::to_string(c));
      set_kernel_policy(p);
      Tensor y(9, c);
      softmax_rows(x, y);
      if (active_kernel_tier() == KernelTier::kScalar) {
        expect_bitwise(y, want);
      } else {
        for (std::size_t i = 0; i < y.numel(); ++i)
          ASSERT_NEAR(y[i], want[i], 1e-6f) << "element " << i;
      }
    }
  }
}

TEST(KernelTier, SoftmaxMaskedPaddingIsZeroExtensionStableInEveryTier) {
  // The decode contract: extending a row with masked (−1e9) columns must
  // yield bitwise the same live prefix as the unextended row, and exact
  // 0.0f probabilities on the padding — in every tier (the fast tier's
  // vector exp flushes to exact zero and its lane sum zero-extends).
  PolicyGuard guard;
  Rng rng(33);
  for (int live : {3, 8, 21}) {
    const int padded = live + 13;
    Tensor x(5, live), xp(5, padded);
    x.randn(rng, 2.0f);
    for (int r = 0; r < 5; ++r)
      for (int c = 0; c < padded; ++c)
        xp.at(r, c) = c < live ? x.at(r, c) : -1e9f;
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("live=" + std::to_string(live));
      set_kernel_policy(p);
      Tensor y(5, live), yp(5, padded);
      softmax_rows(x, y);
      softmax_rows(xp, yp);
      for (int r = 0; r < 5; ++r) {
        for (int c = 0; c < live; ++c)
          ASSERT_EQ(yp.at(r, c), y.at(r, c)) << "row " << r << " col " << c;
        for (int c = live; c < padded; ++c)
          ASSERT_EQ(yp.at(r, c), 0.0f) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(KernelTier, CrossEntropyToleranceAgainstReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(34);
  const int R = 12, V = 97;
  const Tensor logits = random_tensor(R, V, rng, 2.0f);
  std::vector<int> targets(R);
  for (int r = 0; r < R; ++r)
    targets[r] = static_cast<int>(rng.next_below(V));
  Tensor want_d(R, V);
  const float want_loss = ref_cross_entropy(logits, targets, want_d, 0.7f);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor d(R, V);
    const float loss = cross_entropy(logits, targets, d, 0.7f);
    if (active_kernel_tier() == KernelTier::kScalar) {
      EXPECT_EQ(loss, want_loss);
      expect_bitwise(d, want_d);
    } else {
      EXPECT_NEAR(loss, want_loss, 1e-5f);
      for (std::size_t i = 0; i < d.numel(); ++i)
        ASSERT_NEAR(d[i], want_d[i], 1e-6f) << "element " << i;
    }
  }
}

TEST(KernelTier, CommOpsBitwiseMatchReferenceInEveryTier) {
  PolicyGuard guard;
  Rng rng(35);
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1003}}) {
    const Tensor src = random_tensor(1, static_cast<int>(n), rng);
    const Tensor dst0 = random_tensor(1, static_cast<int>(n), rng);
    Tensor want_add = dst0;
    for (std::size_t i = 0; i < n; ++i) want_add[i] += src[i];
    float want_max = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
      want_max = std::max(want_max, std::abs(src[i]));
    const float scale = want_max > 0.0f ? want_max : 1.0f;
    std::vector<float> want_a(n), want_fa(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_a[i] = std::abs(src[i]) / scale * 7.0f;
      want_fa[i] = std::floor(want_a[i]);
    }
    std::vector<std::int8_t> q(n);
    for (std::size_t i = 0; i < n; ++i)
      q[i] = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    Tensor want_dq = dst0;
    for (std::size_t i = 0; i < n; ++i)
      want_dq[i] += 0.125f * static_cast<float>(q[i]);
    for (KernelPolicy p : testable_policies()) {
      SCOPED_TRACE("n=" + std::to_string(n));
      set_kernel_policy(p);
      Tensor d = dst0;
      vector_add(d.data(), src.data(), n);
      expect_bitwise(d, want_add);
      EXPECT_EQ(max_abs(src.data(), n), want_max);
      std::vector<float> a(n), fa(n);
      quantize_prep(src.data(), n, scale, 7.0f, a.data(), fa.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i], want_a[i]) << "element " << i;
        ASSERT_EQ(fa[i], want_fa[i]) << "element " << i;
      }
      Tensor dq = dst0;
      dequant_add_int8(q.data(), n, 0.125f, dq.data());
      expect_bitwise(dq, want_dq);
    }
  }
}

TEST(KernelTier, PooledNonGemmOpsBitwiseMatchSerialInEveryTier) {
  // helpers=0 vs helpers=4 for every vectorized non-GEMM op, per tier.
  // Shapes large enough that plan_shards genuinely splits.
  PolicyGuard guard;
  Rng rng(36);
  const int R = 64, H = 192, V = 768;
  const Tensor xv = random_tensor(R, V, rng);
  const Tensor dyv = random_tensor(R, V, rng);
  const Tensor bias = random_tensor(1, V, rng);
  const Tensor xh = random_tensor(R, H, rng);
  const Tensor gamma = random_tensor(1, H, rng);
  const Tensor beta = random_tensor(1, H, rng);
  const Tensor dyh = random_tensor(R, H, rng);
  std::vector<int> targets(R);
  for (int r = 0; r < R; ++r)
    targets[r] = static_cast<int>(rng.next_below(V));
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    struct Out {
      Tensor y{64, 768}, db{1, 768}, g{64, 768}, dg{64, 768};
      Tensor ln{64, 192}, mu{64, 1}, rs{64, 1};
      Tensor dx{64, 192}, dgamma{1, 192}, dbeta{1, 192};
      Tensor sm{64, 768}, ce{64, 768};
      float loss = 0.0f;
    };
    Out outs[2];
    for (int h : {0, 1}) {
      ComputePool::instance().set_helpers(h == 0 ? 0 : 4);
      Out& o = outs[h];
      o.y = xv;
      add_bias(o.y, bias);
      bias_backward(dyv, o.db);
      gelu_forward(xv, o.g);
      gelu_backward(xv, dyv, o.dg);
      layernorm_forward(xh, gamma, beta, o.ln, o.mu, o.rs);
      layernorm_backward(xh, gamma, o.mu, o.rs, dyh, o.dx, o.dgamma, o.dbeta);
      softmax_rows(xv, o.sm);
      o.loss = cross_entropy(xv, targets, o.ce);
    }
    ComputePool::instance().set_helpers(0);
    expect_bitwise(outs[1].y, outs[0].y);
    expect_bitwise(outs[1].db, outs[0].db);
    expect_bitwise(outs[1].g, outs[0].g);
    expect_bitwise(outs[1].dg, outs[0].dg);
    expect_bitwise(outs[1].ln, outs[0].ln);
    expect_bitwise(outs[1].mu, outs[0].mu);
    expect_bitwise(outs[1].rs, outs[0].rs);
    expect_bitwise(outs[1].dx, outs[0].dx);
    expect_bitwise(outs[1].dgamma, outs[0].dgamma);
    expect_bitwise(outs[1].dbeta, outs[0].dbeta);
    expect_bitwise(outs[1].sm, outs[0].sm);
    expect_bitwise(outs[1].ce, outs[0].ce);
    EXPECT_EQ(outs[1].loss, outs[0].loss);
  }
}

TEST(KernelTier, PooledShardsBitwiseMatchSerialInEveryTier) {
  // Shard-split independence of every GEMM entry point. In the fast tier
  // each shard owns a run of output columns and packs its own B panels on
  // whichever thread runs it, so helpers and the caller pack concurrently
  // into their own workspaces. The shape splits into several column
  // shards at the default grain.
  PolicyGuard guard;
  Rng rng(26);
  const int m = 130, k = 70, n = 90;
  ASSERT_GE(simd::gemm_panel_shards(m, n, k), 2);
  ASSERT_GE(simd::gemm_nt_shards(m, n, k), 2);
  const Tensor a = random_tensor(m, k, rng);
  const Tensor b = random_tensor(k, n, rng);
  const Tensor bt = random_tensor(n, k, rng);
  const Tensor at = random_tensor(k, m, rng);
  const Tensor bias = random_tensor(1, n, rng, 0.5f);
  for (KernelPolicy p : testable_policies()) {
    set_kernel_policy(p);
    Tensor c[2][5];
    for (int h : {0, 1}) {
      ComputePool::instance().set_helpers(h == 0 ? 0 : 4);
      for (Tensor& t : c[h]) t = Tensor(m, n);
      gemm(a, b, c[h][0]);
      gemm_tn(at, b, c[h][1]);
      gemm_nt(a, bt, c[h][2]);
      gemm_bias_gelu(a, b, bias, c[h][3], c[h][4]);
    }
    ComputePool::instance().set_helpers(0);
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE("output " + std::to_string(i));
      expect_bitwise(c[1][i], c[0][i]);
    }
  }
}

// ---- The portable GEMM mirror --------------------------------------------
// Hosts without AVX2+FMA run the fast tier's GEMMs on the portable mirror,
// which AVX2 hosts never dispatch to. These tests force it and call the
// simd entry points directly, so they hold under either tier pin.

/// RAII: runs this thread's fast-tier GEMMs on the portable mirror.
struct PortableGemmGuard {
  PortableGemmGuard() { simd::set_portable_gemm_for_test(true); }
  ~PortableGemmGuard() { simd::set_portable_gemm_for_test(false); }
};

/// gemm_shapes plus the forward GEMMs of the benchmark model (hidden 128,
/// vocab 4096) at M = 4 (decode), 32 (train) and 128 (serve) rows: the
/// attention projection, qkv (3h), MLP up (4h) and down, and the LM head.
std::vector<std::tuple<int, int, int>> portable_shapes() {
  std::vector<std::tuple<int, int, int>> shapes = gemm_shapes();
  for (int m : {4, 32, 128})
    for (auto [k, n] : {std::pair{128, 128}, {128, 384}, {128, 512},
                        {512, 128}, {128, 4096}})
      shapes.emplace_back(m, k, n);
  return shapes;
}

TEST(KernelTier, PortableMirrorGemmAndGemmTnBitwiseMatchReference) {
  Rng rng(37);
  for (auto [m, k, n] : portable_shapes()) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor at = random_tensor(k, m, rng);  // stores Aᵀ
    const Tensor b = random_tensor(k, n, rng);
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE(shape_name(m, k, n) + (accumulate ? " acc" : ""));
      const Tensor seed = random_tensor(m, n, rng, 0.5f);
      Tensor want = seed, want_tn = seed;
      ref_gemm(a, b, want, accumulate);
      ref_gemm_tn(at, b, want_tn, accumulate);
      Tensor c = seed, c_tn = seed;
      {
        PortableGemmGuard portable;
        simd::gemm_fast(a, b, c, accumulate);
        simd::gemm_tn_fast(at, b, c_tn, accumulate);
      }
      expect_bitwise(c, want);
      expect_bitwise(c_tn, want_tn);
    }
  }
}

TEST(KernelTier, PortableMirrorFusedBiasGeluBitwiseMatchesReference) {
  Rng rng(38);
  for (auto [m, k, n] : portable_shapes()) {
    SCOPED_TRACE(shape_name(m, k, n));
    const Tensor x = random_tensor(m, k, rng);
    const Tensor w = random_tensor(k, n, rng);
    const Tensor bias = random_tensor(1, n, rng, 0.5f);
    Tensor want_y(m, n);
    ref_gemm(x, w, want_y, /*acc=*/false);
    ref_add_bias(want_y, bias);
    Tensor want_g(m, n);
    for (std::size_t i = 0; i < want_y.numel(); ++i)
      want_g[i] = detail::gelu_eval(want_y[i]);
    Tensor y1(m, n), y2(m, n), g2(m, n);
    {
      PortableGemmGuard portable;
      simd::gemm_bias_act_fast(x, w, bias, y1, nullptr);
      simd::gemm_bias_act_fast(x, w, bias, y2, &g2);
    }
    expect_bitwise(y1, want_y);
    expect_bitwise(y2, want_y);
    expect_bitwise(g2, want_g);
  }
}

TEST(KernelTier, PortableMirrorGemmNtBitwiseMatchesAvx2) {
  if (!simd::cpu_supports_avx2_fma())
    GTEST_SKIP() << "no AVX2+FMA: the portable mirror is the only gemm_nt";
  Rng rng(39);
  for (auto [m, k, n] : portable_shapes()) {
    const Tensor a = random_tensor(m, k, rng);
    const Tensor b = random_tensor(n, k, rng);  // stores Bᵀ
    for (bool accumulate : {false, true}) {
      SCOPED_TRACE(shape_name(m, k, n) + (accumulate ? " acc" : ""));
      const Tensor seed = random_tensor(m, n, rng, 0.5f);
      Tensor want = seed, c = seed;
      simd::gemm_nt_fast(a, b, want, accumulate);
      {
        PortableGemmGuard portable;
        simd::gemm_nt_fast(a, b, c, accumulate);
      }
      expect_bitwise(c, want);
    }
  }
}

}  // namespace
}  // namespace chimera
