// Fast GEMM tier: cache-blocked, register-tiled microkernels with packed B
// panels (DESIGN.md §2 item 18).
//
// Layout. Every variant shards its output *columns* onto the ComputePool
// with shape-only split points: gemm/gemm_tn/fused bias(+GELU) over
// 16-column panels, gemm_nt over 4-column dot groups. A column shard reads
// only its own slice of B, so even a 32-row LM head splits 16 ways without
// re-reading the whole weight per shard. A gemm shard packs its panels
// (zero-padded to the panel width, 64-byte aligned via the arena's
// allocator) into its own thread's workspace, then walks every row of C
// in 6×16 register tiles, row tiles outer. A gemm_nt shard walks 48-row
// blocks, then its dot groups, in 3×4 register tiles.
//
// Register residency. A tile's 2·MR accumulators, its two panel vectors
// and the A broadcast (2·MR + 3 ≤ 16 ymm for MR ≤ 6), like a dot group's
// JT accumulators and the 3×4 gemm_nt tile's 12 accumulators, three A
// vectors and one B vector (16 ymm), live in registers only if every loop
// over MR, JT or the tile's rows and columns is unrolled at compile time:
// gcc -O2 leaves those constant-trip loops rolled, the runtime-indexed
// acc[] array then lives on the stack, and every multiply-add becomes a
// store-forwarding round trip (about half the speed, bitwise the same
// result). CHIMERA_UNROLL forces the unroll;
// scripts/check_gemm_codegen.sh (run in CI) fails if it is lost.
//
// Two implementations share that structure: AVX2+FMA microkernels behind
// __attribute__((target)) with __builtin_cpu_supports dispatch, and a
// portable mirror with the same blocking and the same per-element
// accumulation orders (plain C++ the autovectorizer may or may not
// vectorize — either way the arithmetic per element is fixed).
//
// Determinism. gemm/gemm_tn tiles broadcast one A element against 16 B
// lanes and pair every multiply with a separate add (vmulps + vaddps), so
// each output element performs the exact serial ascending-l reduction of
// the scalar reference — bitwise identical on every host, which is why
// this file must be compiled with -ffp-contract=off (gcc otherwise
// contracts mul+add — intrinsic or not — into one differently-rounded FMA
// inside an fma-target function; CMakeLists pins the flag). gemm_nt
// reduces a dot product across lanes: 8 strided partials, a fixed combine
// tree, explicit FMA in the vector body (std::fma on the portable mirror,
// so the two paths agree bitwise), and a scalar tail —
// tolerance-equal to the reference, but a pure function of k and the data,
// so results never depend on the row count, the tile shape or the shard
// split (the 3×4 tile runs each element through the single-row dot's exact
// lane chain).
#include "tensor/kernels_simd.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "tensor/arena.h"
#include "tensor/compute_pool.h"
#include "tensor/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CHIMERA_SIMD_X86 1
#include <immintrin.h>
#else
#define CHIMERA_SIMD_X86 0
#endif

/// Fully unrolls the next constant-trip loop (the MR/JT loops below).
#define CHIMERA_UNROLL _Pragma("GCC unroll 16")

namespace chimera::simd {
namespace {

constexpr int kNR = 16;       ///< panel width: two 8-float vectors
constexpr int kMR = 6;        ///< register-tile rows (12 acc regs + 4 live)
constexpr int kNtBlock = 48;  ///< gemm_nt row block (matches scalar kBlock)
constexpr int kNtGroup = 4;   ///< gemm_nt dot-product columns per pass
constexpr int kNtRows = 3;    ///< gemm_nt tile rows (12 acc regs + 4 live)

/// Per-thread packing workspace, grow-only so the steady state neither
/// allocates nor memsets (packing overwrites every element, including the
/// zero padding). Seeded from the arena so warm parked buffers get reused.
float* pack_workspace(std::size_t n) {
  static thread_local detail::FloatBuffer buf;
  if (buf.size() < n) {
    detail::arena_release(std::move(buf));
    buf = detail::arena_acquire(n);
    buf.resize(n);
  }
  return buf.data();
}

/// Packs the 16-column panel of B[k,n] (row-major) that starts at column
/// j0 as k contiguous rows of 16 floats, zero-padding a tail panel. A full
/// panel copies a fixed 64 bytes per k-row; only the tail panel takes the
/// element loop with its zero padding.
void pack_panel(const float* pb, int k, int n, int j0, float* dst) {
  const float* src = pb + j0;
  const int w = std::min(kNR, n - j0);
  if (w == kNR) {
    for (int l = 0; l < k; ++l, src += n, dst += kNR)
      std::memcpy(dst, src, kNR * sizeof(float));
    return;
  }
  for (int l = 0; l < k; ++l, src += n, dst += kNR) {
    for (int j = 0; j < w; ++j) dst[j] = src[j];
    for (int j = w; j < kNR; ++j) dst[j] = 0.0f;
  }
}

/// One MR×16 tile of C (+)= A·panel. `pa` points at the tile's first A
/// element; element (r, l) of the tile's A slice lives at pa[r·ra + l·rl]
/// (NN: ra=k, rl=1; TN: ra=1, rl=m — the strides absorb the transpose so
/// both variants share every microkernel). `width` ∈ [1, 16] live columns.
using TileFn = void (*)(const float* pa, std::size_t ra, std::size_t rl,
                        int k, const float* panel, float* pc, std::size_t ldc,
                        int width, bool accumulate);

/// One row of C[j0..j0+JT) (+)= dot(A row, B rows j0..). `pb` points at B
/// row j0; row j0+g lives at pb[g·ldb].
using DotFn = void (*)(const float* arow, const float* pb, std::size_t ldb,
                       int k, float* cdst, bool accumulate);

/// A kNtRows×kNtGroup block of C (+)= A·Bᵀ: A row r at pa[r·lda], B row g
/// at pb[g·ldb], C element (r, g) at pc[r·ldc + g]. Every element runs
/// dot<kNtGroup>'s exact chain, so the tile changes no result.
using NtTileFn = void (*)(const float* pa, std::size_t lda, const float* pb,
                          std::size_t ldb, int k, float* pc, std::size_t ldc,
                          bool accumulate);

/// The scalar tail of a lane-reduced dot (elements [l, k)) and its store:
/// the one chain every dot kernel ends each C element with.
inline void dot_finish(float sum, const float* arow, const float* brow, int l,
                       int k, float* cdst, bool accumulate) {
  for (int t = l; t < k; ++t) sum += arow[t] * brow[t];
  *cdst = (accumulate ? *cdst : 0.0f) + sum;
}

// ---------------------------------------------------------------------------
// Portable mirror. Same blocking, same per-element accumulation orders.
// ---------------------------------------------------------------------------

template <int MR>
void tile_portable(const float* pa, std::size_t ra, std::size_t rl, int k,
                   const float* panel, float* pc, std::size_t ldc, int width,
                   bool accumulate) {
  float acc[MR][kNR];
  CHIMERA_UNROLL
  for (int r = 0; r < MR; ++r)
    for (int j = 0; j < kNR; ++j)
      acc[r][j] = (accumulate && j < width) ? pc[r * ldc + j] : 0.0f;
  for (int l = 0; l < k; ++l) {
    const float* brow = panel + static_cast<std::size_t>(l) * kNR;
    CHIMERA_UNROLL
    for (int r = 0; r < MR; ++r) {
      const float av = pa[r * ra + static_cast<std::size_t>(l) * rl];
      for (int j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  CHIMERA_UNROLL
  for (int r = 0; r < MR; ++r)
    for (int j = 0; j < width; ++j) pc[r * ldc + j] = acc[r][j];
}

/// The exact combine tree of the AVX2 horizontal sum (hsum8 below).
inline float hsum8_portable(const float* p) {
  return ((p[0] + p[4]) + (p[2] + p[6])) + ((p[1] + p[5]) + (p[3] + p[7]));
}

template <int JT>
void dot_portable(const float* arow, const float* pb, std::size_t ldb, int k,
                  float* cdst, bool accumulate) {
  float lanes[JT][8] = {};
  int l = 0;
  for (; l + 8 <= k; l += 8) {
    CHIMERA_UNROLL
    for (int g = 0; g < JT; ++g) {
      const float* brow = pb + g * ldb;
      // One fused multiply-add per lane, as the AVX2 body's vfmadd.
      for (int t = 0; t < 8; ++t)
        lanes[g][t] = std::fma(arow[l + t], brow[l + t], lanes[g][t]);
    }
  }
  CHIMERA_UNROLL
  for (int g = 0; g < JT; ++g)
    dot_finish(hsum8_portable(lanes[g]), arow, pb + g * ldb, l, k, cdst + g,
               accumulate);
}

void nt_tile_portable(const float* pa, std::size_t lda, const float* pb,
                      std::size_t ldb, int k, float* pc, std::size_t ldc,
                      bool accumulate) {
  float lanes[kNtRows][kNtGroup][8] = {};
  int l = 0;
  for (; l + 8 <= k; l += 8) {
    CHIMERA_UNROLL
    for (int r = 0; r < kNtRows; ++r) {
      const float* arow = pa + r * lda;
      CHIMERA_UNROLL
      for (int g = 0; g < kNtGroup; ++g) {
        const float* brow = pb + g * ldb;
        for (int t = 0; t < 8; ++t)
          lanes[r][g][t] = std::fma(arow[l + t], brow[l + t], lanes[r][g][t]);
      }
    }
  }
  CHIMERA_UNROLL
  for (int r = 0; r < kNtRows; ++r) {
    CHIMERA_UNROLL
    for (int g = 0; g < kNtGroup; ++g)
      dot_finish(hsum8_portable(lanes[r][g]), pa + r * lda, pb + g * ldb, l, k,
                 pc + r * ldc + g, accumulate);
  }
}

/// Fused-epilogue GELU row on the portable path: the shared scalar
/// definition, so fused ≡ unfused on hosts where the fast tier's
/// gelu_forward also runs the scalar expression.
void gelu_row_portable(const float* y, float* g, int n) {
  for (int j = 0; j < n; ++j) g[j] = chimera::detail::gelu_eval(y[j]);
}

// ---------------------------------------------------------------------------
// AVX2(+FMA) microkernels. Compiled for the ISA via target attributes so
// the rest of the binary stays baseline x86-64; only entered after
// cpu_supports_avx2_fma().
// ---------------------------------------------------------------------------
#if CHIMERA_SIMD_X86

#define CHIMERA_TARGET_AVX2 __attribute__((target("avx2,fma")))

/// -1 (all bits) marks a live lane; lane_mask(w) keeps the first w of 8.
alignas(32) constexpr int kMaskTable[kNR] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};

CHIMERA_TARGET_AVX2
inline __m256i lane_mask(int live) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - live));
}

template <int MR>
CHIMERA_TARGET_AVX2
void tile_avx2(const float* pa, std::size_t ra, std::size_t rl, int k,
               const float* panel, float* pc, std::size_t ldc, int width,
               bool accumulate) {
  // 2·MR accumulators (≤ 12 ymm) + two panel vectors + one broadcast stay
  // within the 16 ymm registers for MR = 6 — as long as every r-loop is
  // unrolled (see the file comment).
  __m256 acc[MR][2];
  const bool full = width == kNR;
  const __m256i m0 = full ? __m256i{} : lane_mask(std::min(width, 8));
  const __m256i m1 = full ? __m256i{} : lane_mask(std::max(width - 8, 0));
  CHIMERA_UNROLL
  for (int r = 0; r < MR; ++r) {
    float* crow = pc + r * ldc;
    if (!accumulate) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    } else if (full) {
      acc[r][0] = _mm256_loadu_ps(crow);
      acc[r][1] = _mm256_loadu_ps(crow + 8);
    } else {
      acc[r][0] = _mm256_maskload_ps(crow, m0);
      acc[r][1] = _mm256_maskload_ps(crow + 8, m1);
    }
  }
  for (int l = 0; l < k; ++l) {
    // Panels are 64-byte aligned and 16 floats wide: aligned loads, no peel.
    const __m256 b0 = _mm256_load_ps(panel);
    const __m256 b1 = _mm256_load_ps(panel + 8);
    panel += kNR;
    const float* al = pa + static_cast<std::size_t>(l) * rl;
    CHIMERA_UNROLL
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(al + r * ra);
      // Separate multiply and add — never vfmadd — so each element keeps
      // the scalar tier's rounding exactly (file built -ffp-contract=off).
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  CHIMERA_UNROLL
  for (int r = 0; r < MR; ++r) {
    float* crow = pc + r * ldc;
    if (full) {
      _mm256_storeu_ps(crow, acc[r][0]);
      _mm256_storeu_ps(crow + 8, acc[r][1]);
    } else {
      _mm256_maskstore_ps(crow, m0, acc[r][0]);
      _mm256_maskstore_ps(crow + 8, m1, acc[r][1]);
    }
  }
}

/// Fixed-tree horizontal sum: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) —
/// dot_portable mirrors this order exactly.
CHIMERA_TARGET_AVX2
inline float hsum8(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

template <int JT>
CHIMERA_TARGET_AVX2
void dot_avx2(const float* arow, const float* pb, std::size_t ldb, int k,
              float* cdst, bool accumulate) {
  __m256 acc[JT];
  CHIMERA_UNROLL
  for (int g = 0; g < JT; ++g) acc[g] = _mm256_setzero_ps();
  int l = 0;
  for (; l + 8 <= k; l += 8) {
    const __m256 av = _mm256_loadu_ps(arow + l);
    CHIMERA_UNROLL
    for (int g = 0; g < JT; ++g)
      acc[g] = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb + g * ldb + l), acc[g]);
  }
  CHIMERA_UNROLL
  for (int g = 0; g < JT; ++g)
    dot_finish(hsum8(acc[g]), arow, pb + g * ldb, l, k, cdst + g, accumulate);
}

/// dot_avx2<kNtGroup> over kNtRows A rows at once: each B vector feeds
/// three FMAs and each A vector four, where the single-row dot loads one
/// B vector per FMA. 12 accumulators + 3 A vectors + 1 B vector = 16 ymm,
/// all resident only while every r/g loop is unrolled (see the file
/// comment). Accumulator (r, g) sees exactly dot_avx2's lane chain.
CHIMERA_TARGET_AVX2
void nt_tile_avx2(const float* pa, std::size_t lda, const float* pb,
                  std::size_t ldb, int k, float* pc, std::size_t ldc,
                  bool accumulate) {
  __m256 acc[kNtRows][kNtGroup];
  CHIMERA_UNROLL
  for (int r = 0; r < kNtRows; ++r) {
    CHIMERA_UNROLL
    for (int g = 0; g < kNtGroup; ++g) acc[r][g] = _mm256_setzero_ps();
  }
  int l = 0;
  for (; l + 8 <= k; l += 8) {
    __m256 av[kNtRows];
    CHIMERA_UNROLL
    for (int r = 0; r < kNtRows; ++r) av[r] = _mm256_loadu_ps(pa + r * lda + l);
    CHIMERA_UNROLL
    for (int g = 0; g < kNtGroup; ++g) {
      const __m256 bv = _mm256_loadu_ps(pb + g * ldb + l);
      CHIMERA_UNROLL
      for (int r = 0; r < kNtRows; ++r)
        acc[r][g] = _mm256_fmadd_ps(av[r], bv, acc[r][g]);
    }
  }
  CHIMERA_UNROLL
  for (int r = 0; r < kNtRows; ++r) {
    CHIMERA_UNROLL
    for (int g = 0; g < kNtGroup; ++g)
      dot_finish(hsum8(acc[r][g]), pa + r * lda, pb + g * ldb, l, k,
                 pc + r * ldc + g, accumulate);
  }
}

// ---------------------------------------------------------------------------
// Vector math for the non-GEMM fast tier (tolerance-equal ops).
// ---------------------------------------------------------------------------

/// Arguments below this produce a subnormal exp — exp8 flushes them to
/// exactly 0.0f, which is what keeps masked (−1e9) softmax scores at
/// exact-zero probability in the fast tier, same as std::exp underflow in
/// the reference. Also the low clamp: for x ≥ kExpLo the biased exponent
/// 2^n stays normal (n ≥ −126), so the scale-by-2^n bit trick never wraps.
constexpr float kExpLo = -87.33654475f;
constexpr float kExpHi = 88.3762626647949f;  // just below log(FLT_MAX)

/// Cephes-style expf: n = round(x·log2e), two-part ln2 reduction, degree-5
/// polynomial in the remainder, scale by 2^n via the exponent field.
/// ~2 ulp over the clamped range; separate mul+add (no FMA — the combine
/// sequence must not depend on contraction, this file is -ffp-contract=off).
CHIMERA_TARGET_AVX2
inline __m256 exp8(__m256 x) {
  const __m256 flush = _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ);
  x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(kExpHi)),
                    _mm256_set1_ps(kExpLo));
  const __m256 n = _mm256_round_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(0.693359375f)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(-2.12194440e-4f)));
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.0000001201e-1f));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r),
                           _mm256_set1_ps(1.0f));
  const __m256i bits =
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32(bits, 23)));
  return _mm256_andnot_ps(flush, y);
}

/// tanh(u) = (e^{2u} − 1)/(e^{2u} + 1). Exact at u = 0; saturates to ±1.0f
/// exactly once e^{2u} leaves [≈3e-8, ≈3e7] — same saturation the libm
/// tanh reaches, so large masked/outlier activations agree bitwise.
CHIMERA_TARGET_AVX2
inline __m256 tanh8(__m256 u) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp8(_mm256_mul_ps(u, _mm256_set1_ps(2.0f)));
  return _mm256_div_ps(_mm256_sub_ps(e, one), _mm256_add_ps(e, one));
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

/// Vector mirror of detail::gelu_eval (tolerance-equal: tanh8 vs libm).
CHIMERA_TARGET_AVX2
inline __m256 gelu8(__m256 v) {
  const __m256 v2 = _mm256_mul_ps(v, v);
  const __m256 inner = _mm256_add_ps(
      v, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.044715f), v2), v));
  const __m256 t = tanh8(_mm256_mul_ps(_mm256_set1_ps(kGeluC), inner));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5f), v),
                       _mm256_add_ps(_mm256_set1_ps(1.0f), t));
}

/// Vector mirror of detail::gelu_grad_eval.
CHIMERA_TARGET_AVX2
inline __m256 gelu_grad8(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 v2 = _mm256_mul_ps(v, v);
  const __m256 inner = _mm256_add_ps(
      v, _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.044715f), v2), v));
  const __m256 t = tanh8(_mm256_mul_ps(_mm256_set1_ps(kGeluC), inner));
  const __m256 du = _mm256_mul_ps(
      _mm256_set1_ps(kGeluC),
      _mm256_add_ps(one, _mm256_mul_ps(_mm256_set1_ps(3.0f * 0.044715f), v2)));
  const __m256 left = _mm256_mul_ps(half, _mm256_add_ps(one, t));
  const __m256 sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
  const __m256 right =
      _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, v), sech2), du);
  return _mm256_add_ps(left, right);
}

/// Fixed-tree horizontal max (max is exact, so the tree shape is moot for
/// the result; fixed anyway for determinism hygiene).
CHIMERA_TARGET_AVX2
inline float hmax8(__m256 v) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

/// Elementwise rows: every tail goes through the same vector code via a
/// lane mask, so an element's value never depends on its position — the
/// stability property the tolerance-tier contracts lean on.

CHIMERA_TARGET_AVX2
void gelu_row_avx2(const float* y, float* g, int n) {
  int j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(g + j, gelu8(_mm256_loadu_ps(y + j)));
  if (j < n) {
    const __m256i m = lane_mask(n - j);
    _mm256_maskstore_ps(g + j, m, gelu8(_mm256_maskload_ps(y + j, m)));
  }
}

CHIMERA_TARGET_AVX2
void gelu_grad_row_avx2(const float* x, const float* dy, float* dx, int n) {
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gr = gelu_grad8(_mm256_loadu_ps(x + j));
    _mm256_storeu_ps(dx + j, _mm256_mul_ps(_mm256_loadu_ps(dy + j), gr));
  }
  if (j < n) {
    const __m256i m = lane_mask(n - j);
    const __m256 gr = gelu_grad8(_mm256_maskload_ps(x + j, m));
    _mm256_maskstore_ps(dx + j, m,
                        _mm256_mul_ps(_mm256_maskload_ps(dy + j, m), gr));
  }
}

/// Lane-summed row reduction: element i lands in lane i%8, the tail block
/// is masked (dead lanes exactly 0.0f before the add), and hsum8 combines
/// with a fixed tree. Extending a row with elements whose f-value is
/// exactly 0.0f therefore cannot change the sum bitwise — the
/// zero-extension stability softmax needs for the decode contract.

CHIMERA_TARGET_AVX2
float row_max_avx2(const float* p, int n) {
  int j = 0;
  float mx;
  if (n >= 8) {
    __m256 vmx = _mm256_loadu_ps(p);
    for (j = 8; j + 8 <= n; j += 8)
      vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(p + j));
    mx = hmax8(vmx);
  } else {
    mx = p[0];
    j = 1;
  }
  for (; j < n; ++j) mx = std::max(mx, p[j]);
  return mx;
}

CHIMERA_TARGET_AVX2
void softmax_row_avx2(const float* px, float* py, int C) {
  const __m256 bmx = _mm256_set1_ps(row_max_avx2(px, C));
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= C; j += 8) {
    const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmx));
    _mm256_storeu_ps(py + j, e);
    acc = _mm256_add_ps(acc, e);
  }
  if (j < C) {
    const __m256i m = lane_mask(C - j);
    __m256 e = exp8(_mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmx));
    e = _mm256_and_ps(e, _mm256_castsi256_ps(m));  // dead lanes → exact 0
    _mm256_maskstore_ps(py + j, m, e);
    acc = _mm256_add_ps(acc, e);
  }
  const float inv = 1.0f / hsum8(acc);
  const __m256 binv = _mm256_set1_ps(inv);
  for (j = 0; j + 8 <= C; j += 8)
    _mm256_storeu_ps(py + j, _mm256_mul_ps(_mm256_loadu_ps(py + j), binv));
  for (; j < C; ++j) py[j] *= inv;  // elementwise: scalar tail ≡ vector lane
}

CHIMERA_TARGET_AVX2
void layernorm_row_avx2(const float* px, const float* gamma, const float* beta,
                        float* py, int H, float* mu_out, float* rs_out) {
  __m256 acc = _mm256_setzero_ps();
  int j = 0;
  for (; j + 8 <= H; j += 8)
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(px + j));
  if (j < H) {
    const __m256i m = lane_mask(H - j);
    acc = _mm256_add_ps(acc, _mm256_maskload_ps(px + j, m));
  }
  const float mu = hsum8(acc) / H;
  const __m256 bmu = _mm256_set1_ps(mu);
  acc = _mm256_setzero_ps();
  for (j = 0; j + 8 <= H; j += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(px + j), bmu);
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  if (j < H) {
    const __m256i m = lane_mask(H - j);
    const __m256 d = _mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmu);
    acc = _mm256_add_ps(
        acc, _mm256_and_ps(_mm256_mul_ps(d, d), _mm256_castsi256_ps(m)));
  }
  const float var = hsum8(acc) / H;
  const float rs = 1.0f / std::sqrt(var + 1e-5f);
  *mu_out = mu;
  *rs_out = rs;
  const __m256 brs = _mm256_set1_ps(rs);
  for (j = 0; j + 8 <= H; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmu), brs);
    _mm256_storeu_ps(
        py + j, _mm256_add_ps(_mm256_mul_ps(xhat, _mm256_loadu_ps(gamma + j)),
                              _mm256_loadu_ps(beta + j)));
  }
  for (; j < H; ++j)
    py[j] = (px[j] - mu) * rs * gamma[j] + beta[j];
}

CHIMERA_TARGET_AVX2
void layernorm_dx_row_avx2(const float* px, const float* gamma,
                           const float* pdy, float mu, float rs, float* pdx,
                           int H) {
  const __m256 bmu = _mm256_set1_ps(mu);
  const __m256 brs = _mm256_set1_ps(rs);
  __m256 acc1 = _mm256_setzero_ps();  // Σ dy·γ
  __m256 acc2 = _mm256_setzero_ps();  // Σ dy·γ·x̂
  int j = 0;
  for (; j + 8 <= H; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmu), brs);
    const __m256 dyg =
        _mm256_mul_ps(_mm256_loadu_ps(pdy + j), _mm256_loadu_ps(gamma + j));
    acc1 = _mm256_add_ps(acc1, dyg);
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(dyg, xhat));
  }
  if (j < H) {
    const __m256i m = lane_mask(H - j);
    const __m256 mm = _mm256_castsi256_ps(m);
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmu), brs);
    const __m256 dyg = _mm256_mul_ps(_mm256_maskload_ps(pdy + j, m),
                                     _mm256_maskload_ps(gamma + j, m));
    acc1 = _mm256_add_ps(acc1, _mm256_and_ps(dyg, mm));
    acc2 = _mm256_add_ps(acc2, _mm256_and_ps(_mm256_mul_ps(dyg, xhat), mm));
  }
  const __m256 bq1 = _mm256_set1_ps(hsum8(acc1) / H);
  const __m256 bq2 = _mm256_set1_ps(hsum8(acc2) / H);
  for (j = 0; j + 8 <= H; j += 8) {
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(px + j), bmu), brs);
    const __m256 dyg =
        _mm256_mul_ps(_mm256_loadu_ps(pdy + j), _mm256_loadu_ps(gamma + j));
    const __m256 dx = _mm256_mul_ps(
        brs, _mm256_sub_ps(_mm256_sub_ps(dyg, bq1), _mm256_mul_ps(xhat, bq2)));
    _mm256_storeu_ps(pdx + j, dx);
  }
  if (j < H) {
    const __m256i m = lane_mask(H - j);
    const __m256 xhat =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_maskload_ps(px + j, m), bmu), brs);
    const __m256 dyg = _mm256_mul_ps(_mm256_maskload_ps(pdy + j, m),
                                     _mm256_maskload_ps(gamma + j, m));
    const __m256 dx = _mm256_mul_ps(
        brs, _mm256_sub_ps(_mm256_sub_ps(dyg, bq1), _mm256_mul_ps(xhat, bq2)));
    _mm256_maskstore_ps(pdx + j, m, dx);
  }
}

/// dgamma/dbeta for columns [c0, c1): vector lanes sit on columns and rows
/// advance in the same ascending order as the reference, so every column's
/// accumulation chain — and the result — is bitwise identical.
CHIMERA_TARGET_AVX2
void lnbwd_param_shard_avx2(const float* px, const float* pdy,
                            const float* pmu, const float* prs, float* dgamma,
                            float* dbeta, int R, int H, int c0, int c1) {
  for (int r = 0; r < R; ++r) {
    const float* xrow = px + static_cast<std::size_t>(r) * H;
    const float* dyrow = pdy + static_cast<std::size_t>(r) * H;
    const __m256 bmu = _mm256_set1_ps(pmu[r]);
    const __m256 brs = _mm256_set1_ps(prs[r]);
    int c = c0;
    for (; c + 8 <= c1; c += 8) {
      const __m256 dy = _mm256_loadu_ps(dyrow + c);
      const __m256 xhat =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xrow + c), bmu), brs);
      _mm256_storeu_ps(dgamma + c, _mm256_add_ps(_mm256_loadu_ps(dgamma + c),
                                                 _mm256_mul_ps(dy, xhat)));
      _mm256_storeu_ps(dbeta + c,
                       _mm256_add_ps(_mm256_loadu_ps(dbeta + c), dy));
    }
    for (; c < c1; ++c) {
      const float xhat = (xrow[c] - pmu[r]) * prs[r];
      dgamma[c] += dyrow[c] * xhat;
      dbeta[c] += dyrow[c];
    }
  }
}

/// dbias column sums for columns [c0, c1): same column-lane layout.
CHIMERA_TARGET_AVX2
void bias_bwd_shard_avx2(const float* pdy, float* dbias, int R, int C, int c0,
                         int c1) {
  for (int r = 0; r < R; ++r) {
    const float* dyrow = pdy + static_cast<std::size_t>(r) * C;
    int c = c0;
    for (; c + 8 <= c1; c += 8)
      _mm256_storeu_ps(dbias + c, _mm256_add_ps(_mm256_loadu_ps(dbias + c),
                                                _mm256_loadu_ps(dyrow + c)));
    for (; c < c1; ++c) dbias[c] += dyrow[c];
  }
}

CHIMERA_TARGET_AVX2
void add_row_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(dst + j, _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                            _mm256_loadu_ps(src + j)));
  for (; j < n; ++j) dst[j] += src[j];
}

CHIMERA_TARGET_AVX2
void scale_row_avx2(float* p, int n, float k) {
  const __m256 bk = _mm256_set1_ps(k);
  int j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(p + j, _mm256_mul_ps(_mm256_loadu_ps(p + j), bk));
  for (; j < n; ++j) p[j] *= k;
}

CHIMERA_TARGET_AVX2
float max_abs_avx2(const float* x, std::size_t n) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vmx = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    vmx = _mm256_max_ps(vmx, _mm256_and_ps(absmask, _mm256_loadu_ps(x + j)));
  float mx = hmax8(vmx);
  for (; j < n; ++j) mx = std::max(mx, std::abs(x[j]));
  return mx;
}

CHIMERA_TARGET_AVX2
void quantize_prep_avx2(const float* x, std::size_t n, float scale,
                        float levels, float* a, float* floor_a) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 bscale = _mm256_set1_ps(scale);
  const __m256 blevels = _mm256_set1_ps(levels);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 av = _mm256_and_ps(absmask, _mm256_loadu_ps(x + j));
    // |x|/scale then ·levels — division and multiply are exactly rounded,
    // so this matches the scalar expression bitwise.
    const __m256 q = _mm256_mul_ps(_mm256_div_ps(av, bscale), blevels);
    _mm256_storeu_ps(a + j, q);
    _mm256_storeu_ps(floor_a + j,
                     _mm256_round_ps(q, _MM_FROUND_TO_NEG_INF |
                                            _MM_FROUND_NO_EXC));
  }
  for (; j < n; ++j) {
    const float q = std::abs(x[j]) / scale * levels;
    a[j] = q;
    floor_a[j] = std::floor(q);
  }
}

CHIMERA_TARGET_AVX2
void dequant_add_int8_avx2(const std::int8_t* q, std::size_t n, float unit,
                           float* out) {
  const __m256 bunit = _mm256_set1_ps(unit);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m128i q8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + j));
    const __m256 qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q8));
    _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j),
                                            _mm256_mul_ps(bunit, qf)));
  }
  for (; j < n; ++j) out[j] += unit * static_cast<float>(q[j]);
}

#endif  // CHIMERA_SIMD_X86

/// mr/jt-indexed dispatch tables (index 0 unused). `gelu_row` is the GELU
/// evaluation this host's fast tier uses everywhere — fused epilogue and
/// unfused gelu_forward — so fused ≡ unfused stays bitwise within the tier.
struct Tables {
  TileFn tile[kMR + 1];
  DotFn dot[kNtGroup + 1];
  NtTileFn nt_tile;
  void (*gelu_row)(const float* y, float* g, int n);
};

constexpr Tables kPortable = {
    {nullptr, tile_portable<1>, tile_portable<2>, tile_portable<3>,
     tile_portable<4>, tile_portable<5>, tile_portable<6>},
    {nullptr, dot_portable<1>, dot_portable<2>, dot_portable<3>,
     dot_portable<4>},
    nt_tile_portable,
    gelu_row_portable};

#if CHIMERA_SIMD_X86
constexpr Tables kAvx2 = {
    {nullptr, tile_avx2<1>, tile_avx2<2>, tile_avx2<3>, tile_avx2<4>,
     tile_avx2<5>, tile_avx2<6>},
    {nullptr, dot_avx2<1>, dot_avx2<2>, dot_avx2<3>, dot_avx2<4>},
    nt_tile_avx2,
    gelu_row_avx2};
#endif

/// Set through set_portable_gemm_for_test; read only on the calling thread.
thread_local bool t_portable_for_test = false;

const Tables& tables() {
#if CHIMERA_SIMD_X86
  if (cpu_supports_avx2_fma() && !t_portable_for_test) return kAvx2;
#endif
  return kPortable;
}

/// Shared panel driver for gemm (ra=k, rl=1) and gemm_tn (ra=1, rl=m).
/// Shards own disjoint runs of 16-column panels: each packs its own panels
/// into its thread's workspace, then walks every row of C in 6-row tiles,
/// row tiles outer, so a tile's A rows stay in L1 across the shard's
/// panels and C is written in contiguous row runs (the head dW's 2 MB C
/// would otherwise be walked at a 16 KB row stride per panel). When
/// `bias`/`pg` are set, the fused epilogue runs on each finished tile: the
/// bias add is the same single add per element as add_bias, and the GELU
/// goes through the table's gelu_row — the evaluation this host's
/// fast-tier gelu_forward also uses — so fusion is bitwise-identical to
/// the unfused add_bias/gelu_forward passes within the tier.
void gemm_panels(const float* pa, std::size_t ra, std::size_t rl, int m,
                 int n, int k, const float* pb, float* pc, bool accumulate,
                 const float* bias, float* pg) {
  const int panels = (n + kNR - 1) / kNR;
  const std::size_t panel_floats = static_cast<std::size_t>(k) * kNR;
  const Tables& t = tables();
  const int shards = gemm_panel_shards(m, n, k);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int p0 = shard_begin(panels, shards, s);
    const int p1 = shard_begin(panels, shards, s + 1);
    float* packed = pack_workspace((p1 - p0) * panel_floats);
    for (int p = p0; p < p1; ++p)
      pack_panel(pb, k, n, p * kNR, packed + (p - p0) * panel_floats);
    for (int i = 0; i < m; i += kMR) {
      const int mr = std::min(kMR, m - i);
      for (int p = p0; p < p1; ++p) {
        const int j0 = p * kNR;
        const int width = std::min(kNR, n - j0);
        float* ctile = pc + static_cast<std::size_t>(i) * n + j0;
        t.tile[mr](pa + i * ra, ra, rl, k, packed + (p - p0) * panel_floats,
                   ctile, n, width, accumulate);
        if (bias || pg) {
          for (int r = i; r < i + mr; ++r) {
            float* yrow = pc + static_cast<std::size_t>(r) * n + j0;
            if (bias)
              for (int j = 0; j < width; ++j) yrow[j] += bias[j0 + j];
            if (pg)
              t.gelu_row(yrow, pg + static_cast<std::size_t>(r) * n + j0,
                         width);
          }
        }
      }
    }
  });
}

}  // namespace

bool cpu_supports_avx2_fma() {
#if CHIMERA_SIMD_X86
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

void set_portable_gemm_for_test(bool on) { t_portable_for_test = on; }

int gemm_panel_shards(int m, int n, int k) {
  return plan_shards((n + kNR - 1) / kNR,
                     static_cast<std::size_t>(m) * k * kNR);
}

int gemm_nt_shards(int m, int n, int k) {
  return plan_shards((n + kNtGroup - 1) / kNtGroup,
                     static_cast<std::size_t>(m) * k * kNtGroup);
}

void gemm_fast(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  CHIMERA_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  gemm_panels(a.data(), k, 1, m, n, k, b.data(), c.data(), accumulate,
              nullptr, nullptr);
}

void gemm_tn_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate) {
  const int k = a.rows(), m = a.cols(), n = b.cols();
  CHIMERA_CHECK(b.rows() == k && c.rows() == m && c.cols() == n);
  gemm_panels(a.data(), 1, m, m, n, k, b.data(), c.data(), accumulate,
              nullptr, nullptr);
}

void gemm_bias_act_fast(const Tensor& x, const Tensor& w, const Tensor& bias,
                        Tensor& y, Tensor* g) {
  const int m = x.rows(), k = x.cols(), n = w.cols();
  CHIMERA_CHECK(w.rows() == k && y.rows() == m && y.cols() == n);
  CHIMERA_CHECK(bias.rows() == 1 && bias.cols() == n);
  if (g != nullptr) CHIMERA_CHECK(g->rows() == m && g->cols() == n);
  gemm_panels(x.data(), k, 1, m, n, k, w.data(), y.data(), /*accumulate=*/false,
              bias.data(), g != nullptr ? g->data() : nullptr);
}

void gemm_nt_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate) {
  const int m = a.rows(), k = a.cols(), n = b.rows();
  CHIMERA_CHECK(b.cols() == k && c.rows() == m && c.cols() == n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const Tables& t = tables();
  // Column shards of whole 4-column dot groups, so an M = 32 call still
  // splits by n. Inside a shard, 48-row blocks outer and dot groups inner:
  // the group's four B rows (4k floats: 2 KB at k = 128, 64 KB at
  // k = 4096) are reused by every 3-row tile of the block. A tile loads
  // 3 A + 4 B vectors per 12 FMAs where the single-row dot loads 1 + 4 per
  // 4, so the k = 4096 head dX streams its dot group from L2 a third as
  // often. A short last group and the rows after the block's last full
  // tile run dot<JT> row by row. No packing — both operands are read
  // row-contiguously.
  const int groups = (n + kNtGroup - 1) / kNtGroup;
  const int shards = gemm_nt_shards(m, n, k);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int c0 = shard_begin(groups, shards, s) * kNtGroup;
    const int c1 = std::min(n, shard_begin(groups, shards, s + 1) * kNtGroup);
    for (int i0 = 0; i0 < m; i0 += kNtBlock) {
      const int i1 = std::min(m, i0 + kNtBlock);
      for (int j0 = c0; j0 < c1; j0 += kNtGroup) {
        const int jt = std::min(kNtGroup, c1 - j0);
        const float* bgroup = pb + static_cast<std::size_t>(j0) * k;
        int i = i0;
        if (jt == kNtGroup)
          for (; i + kNtRows <= i1; i += kNtRows)
            t.nt_tile(pa + static_cast<std::size_t>(i) * k, k, bgroup, k, k,
                      pc + static_cast<std::size_t>(i) * n + j0, n,
                      accumulate);
        for (; i < i1; ++i)
          t.dot[jt](pa + static_cast<std::size_t>(i) * k, bgroup, k, k,
                    pc + static_cast<std::size_t>(i) * n + j0, accumulate);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Non-GEMM fast-tier entry points. The dispatcher in tensor/kernels.cc only
// routes here when cpu_supports_avx2_fma() is true (there is no portable
// mirror for these — the scalar reference *is* the fallback), so the x86
// bodies may assume AVX2. Pool sharding reuses the scalar tier's exact
// shape-only split points: pooled ≡ serial within the tier by construction.
// ---------------------------------------------------------------------------
#if CHIMERA_SIMD_X86

void add_bias_fast(Tensor& y, const Tensor& bias) {
  CHIMERA_CHECK(bias.cols() == y.cols() && bias.rows() == 1);
  const int R = y.rows(), C = y.cols();
  float* py = y.data();
  const float* pb = bias.data();
  const int shards = plan_shards(R, static_cast<std::size_t>(C));
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r)
      add_row_avx2(py + static_cast<std::size_t>(r) * C, pb,
                   static_cast<std::size_t>(C));
  });
}

void bias_backward_fast(const Tensor& dy, Tensor& dbias) {
  CHIMERA_CHECK(dbias.cols() == dy.cols() && dbias.rows() == 1);
  const int R = dy.rows(), C = dy.cols();
  const int shards = plan_shards(C, static_cast<std::size_t>(R));
  ComputePool::instance().parallel_for(shards, [&](int s) {
    bias_bwd_shard_avx2(dy.data(), dbias.data(), R, C,
                        shard_begin(C, shards, s),
                        shard_begin(C, shards, s + 1));
  });
}

void gelu_forward_fast(const Tensor& x, Tensor& y) {
  CHIMERA_CHECK(x.numel() == y.numel());
  const std::size_t n = x.numel();
  const int units = static_cast<int>(n / 256 + 1);
  const int shards = plan_shards(units, 256 * 8);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const std::size_t i0 =
        static_cast<std::size_t>(shard_begin(units, shards, s)) * 256;
    const std::size_t i1 = std::min(
        n, static_cast<std::size_t>(shard_begin(units, shards, s + 1)) * 256);
    if (i0 < i1)
      gelu_row_avx2(x.data() + i0, y.data() + i0, static_cast<int>(i1 - i0));
  });
}

void gelu_backward_fast(const Tensor& x, const Tensor& dy, Tensor& dx) {
  CHIMERA_CHECK(x.numel() == dy.numel() && x.numel() == dx.numel());
  const std::size_t n = x.numel();
  const int units = static_cast<int>(n / 256 + 1);
  const int shards = plan_shards(units, 256 * 8);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const std::size_t i0 =
        static_cast<std::size_t>(shard_begin(units, shards, s)) * 256;
    const std::size_t i1 = std::min(
        n, static_cast<std::size_t>(shard_begin(units, shards, s + 1)) * 256);
    if (i0 < i1)
      gelu_grad_row_avx2(x.data() + i0, dy.data() + i0, dx.data() + i0,
                         static_cast<int>(i1 - i0));
  });
}

void layernorm_forward_fast(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, Tensor& y, Tensor& mean,
                            Tensor& rstd) {
  const int R = x.rows(), H = x.cols();
  CHIMERA_CHECK(gamma.cols() == H && beta.cols() == H);
  CHIMERA_CHECK(y.rows() == R && mean.rows() == R && rstd.rows() == R);
  float* pmu = mean.data();
  float* prs = rstd.data();
  const int shards = plan_shards(R, static_cast<std::size_t>(H) * 4);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r)
      layernorm_row_avx2(x.data() + static_cast<std::size_t>(r) * H,
                         gamma.data(), beta.data(),
                         y.data() + static_cast<std::size_t>(r) * H, H,
                         pmu + r, prs + r);
  });
}

void layernorm_backward_fast(const Tensor& x, const Tensor& gamma,
                             const Tensor& mean, const Tensor& rstd,
                             const Tensor& dy, Tensor& dx, Tensor& dgamma,
                             Tensor& dbeta) {
  const int R = x.rows(), H = x.cols();
  ComputePool& pool = ComputePool::instance();
  const int row_shards = plan_shards(R, static_cast<std::size_t>(H) * 6);
  pool.parallel_for(row_shards, [&](int s) {
    const int r0 = shard_begin(R, row_shards, s);
    const int r1 = shard_begin(R, row_shards, s + 1);
    for (int r = r0; r < r1; ++r)
      layernorm_dx_row_avx2(x.data() + static_cast<std::size_t>(r) * H,
                            gamma.data(),
                            dy.data() + static_cast<std::size_t>(r) * H,
                            mean.at(r, 0), rstd.at(r, 0),
                            dx.data() + static_cast<std::size_t>(r) * H, H);
  });
  const int col_shards = plan_shards(H, static_cast<std::size_t>(R) * 3);
  pool.parallel_for(col_shards, [&](int s) {
    lnbwd_param_shard_avx2(x.data(), dy.data(), mean.data(), rstd.data(),
                           dgamma.data(), dbeta.data(), R, H,
                           shard_begin(H, col_shards, s),
                           shard_begin(H, col_shards, s + 1));
  });
}

void softmax_rows_fast(const Tensor& x, Tensor& y) {
  const int R = x.rows(), C = x.cols();
  CHIMERA_CHECK(y.rows() == R && y.cols() == C);
  const int shards = plan_shards(R, static_cast<std::size_t>(C) * 4);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r)
      softmax_row_avx2(x.data() + static_cast<std::size_t>(r) * C,
                       y.data() + static_cast<std::size_t>(r) * C, C);
  });
}

void cross_entropy_grad_fast(Tensor& probs, const std::vector<int>& targets,
                             float k, float* row_logp) {
  const int R = probs.rows(), V = probs.cols();
  const int shards = plan_shards(R, static_cast<std::size_t>(V) * 2);
  ComputePool::instance().parallel_for(shards, [&](int s) {
    const int r0 = shard_begin(R, shards, s);
    const int r1 = shard_begin(R, shards, s + 1);
    for (int r = r0; r < r1; ++r) {
      const int t = targets[r];
      float* prow = probs.data() + static_cast<std::size_t>(r) * V;
      row_logp[r] = std::log(std::max(prow[t], 1e-20f));
      scale_row_avx2(prow, V, k);
      prow[t] -= k;
    }
  });
}

void vector_add_fast(float* dst, const float* src, std::size_t n) {
  add_row_avx2(dst, src, n);
}

float max_abs_fast(const float* x, std::size_t n) {
  return max_abs_avx2(x, n);
}

void quantize_prep_fast(const float* x, std::size_t n, float scale,
                        float levels, float* a, float* floor_a) {
  quantize_prep_avx2(x, n, scale, levels, a, floor_a);
}

void dequant_add_int8_fast(const std::int8_t* q, std::size_t n, float unit,
                           float* out) {
  dequant_add_int8_avx2(q, n, unit, out);
}

#else  // !CHIMERA_SIMD_X86 — never dispatched to (see header comment).

void add_bias_fast(Tensor&, const Tensor&) { CHIMERA_CHECK(false); }
void bias_backward_fast(const Tensor&, Tensor&) { CHIMERA_CHECK(false); }
void gelu_forward_fast(const Tensor&, Tensor&) { CHIMERA_CHECK(false); }
void gelu_backward_fast(const Tensor&, const Tensor&, Tensor&) {
  CHIMERA_CHECK(false);
}
void layernorm_forward_fast(const Tensor&, const Tensor&, const Tensor&,
                            Tensor&, Tensor&, Tensor&) {
  CHIMERA_CHECK(false);
}
void layernorm_backward_fast(const Tensor&, const Tensor&, const Tensor&,
                             const Tensor&, const Tensor&, Tensor&, Tensor&,
                             Tensor&) {
  CHIMERA_CHECK(false);
}
void softmax_rows_fast(const Tensor&, Tensor&) { CHIMERA_CHECK(false); }
void cross_entropy_grad_fast(Tensor&, const std::vector<int>&, float, float*) {
  CHIMERA_CHECK(false);
}
void vector_add_fast(float*, const float*, std::size_t) {
  CHIMERA_CHECK(false);
}
float max_abs_fast(const float*, std::size_t) {
  CHIMERA_CHECK(false);
  return 0.0f;
}
void quantize_prep_fast(const float*, std::size_t, float, float, float*,
                        float*) {
  CHIMERA_CHECK(false);
}
void dequant_add_int8_fast(const std::int8_t*, std::size_t, float, float*) {
  CHIMERA_CHECK(false);
}

#endif  // CHIMERA_SIMD_X86

}  // namespace chimera::simd
