// Internal interface of the fast kernel tier (DESIGN.md §2 item 18):
// cache-blocked, register-tiled GEMM microkernels with packed B panels and
// fused epilogues, plus lane-parallel implementations of the non-GEMM
// dense ops (bias, GELU, LayerNorm, softmax, cross-entropy) and the comm
// inner loops. The GEMMs ship an AVX2+FMA path selected by runtime CPU
// dispatch plus a portable mirror with the same blocking and the same
// per-element accumulation orders. The non-GEMM ops are AVX2-only: the
// tier dispatcher in tensor/kernels.cc routes to them only when
// cpu_supports_avx2_fma() is true, and runs the scalar reference otherwise
// (a scalar "fast tier" trivially satisfies every contract). Only
// tensor/kernels.cc includes this header for dispatch; tests include it to
// query CPU capability and to run the portable GEMM mirror directly.
//
// Contract recap (full per-op table: DESIGN.md §2 item 18):
//  - gemm_fast / gemm_tn_fast keep each output element's serial ascending
//    reduction over the contraction dimension and pair every multiply with
//    a separate add (no FMA contraction) — bitwise ≡ scalar reference on
//    every host. Same for add_bias_fast, bias_backward_fast, the
//    dgamma/dbeta pass of layernorm_backward_fast (column lanes, ascending
//    rows) and the comm loops (one exact op per element).
//  - gemm_nt_fast reduces a dot product across lanes (8 strided partials
//    fused multiply-added, fixed combine tree; the portable mirror uses
//    std::fma, so both paths agree bitwise) — tolerance-equal; bitwise
//    stable in the row count for fixed k.
//  - gelu_*_fast, softmax_rows_fast, cross_entropy_fast and the row
//    statistics of layernorm_*_fast use a vector exp/tanh polynomial and
//    lane-summed row reductions — tolerance-equal; every element is a pure
//    function of its row's data (element i always reduces in lane i%8,
//    tails are masked through the same vector code), so results never
//    depend on the shard split, the row count, or zero-extension of masked
//    softmax columns. The vector exp flushes arguments < −87.34 to exactly
//    0.0f, preserving the masked-softmax exact-zero contract.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace chimera::simd {

/// True when the running CPU has AVX2 and FMA (what KernelPolicy::kAuto
/// keys on). The fast tier still works without them via the portable path.
bool cpu_supports_avx2_fma();

/// Test-only: while on, this thread's fast-tier GEMM calls (gemm_fast,
/// gemm_tn_fast, gemm_nt_fast, gemm_bias_act_fast) run the portable mirror
/// even on AVX2 hosts, so tests can pin the mirror that non-AVX2 hosts run.
/// Not an engine option; only tests call it.
void set_portable_gemm_for_test(bool on);

/// The shape-only shard counts the fast-tier GEMMs split an [m, n] output
/// into: gemm/gemm_tn/gemm_bias_act_fast over 16-column panels, gemm_nt
/// over 4-column dot groups (k is the contraction length).
int gemm_panel_shards(int m, int n, int k);
int gemm_nt_shards(int m, int n, int k);

/// Fast-tier C = A·B (+ C if accumulate). Bitwise ≡ scalar reference.
void gemm_fast(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate);
/// Fast-tier C = Aᵀ·B (+ C). Bitwise ≡ scalar reference.
void gemm_tn_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate);
/// Fast-tier C = A·Bᵀ (+ C). Tolerance-equal to the reference (lane
/// reduction tree); bitwise stable in the row count for fixed k.
void gemm_nt_fast(const Tensor& a, const Tensor& b, Tensor& c,
                  bool accumulate);

/// Fast-tier fused Linear forward: y = x·w + bias, and (when g != nullptr)
/// g = gelu(y). The epilogue runs on each just-computed output tile —
/// the bias add is bitwise ≡ add_bias, and the GELU uses the same
/// evaluation as this host's gelu_forward fast path (vector polynomial on
/// AVX2, detail::gelu_eval on the portable mirror), so fused ≡ unfused
/// bitwise within the tier.
void gemm_bias_act_fast(const Tensor& x, const Tensor& w, const Tensor& bias,
                        Tensor& y, Tensor* g);

// ---- Non-GEMM dense ops (AVX2 hosts only — see header comment) ----------
// Pool sharding uses the same shape-only split points as the scalar
// reference, so pooled ≡ serial holds within the tier by construction.

/// Bitwise ≡ scalar reference.
void add_bias_fast(Tensor& y, const Tensor& bias);
/// Bitwise ≡ scalar reference (column lanes, ascending rows).
void bias_backward_fast(const Tensor& dy, Tensor& dbias);
/// Tolerance-equal (vector tanh); position/shard independent.
void gelu_forward_fast(const Tensor& x, Tensor& y);
/// Tolerance-equal (vector tanh); position/shard independent.
void gelu_backward_fast(const Tensor& x, const Tensor& dy, Tensor& dx);
/// Tolerance-equal (lane-reduced mean/var); row independent.
void layernorm_forward_fast(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, Tensor& y, Tensor& mean,
                            Tensor& rstd);
/// dx tolerance-equal (lane-reduced row dots); dgamma/dbeta bitwise given
/// the same (mean, rstd).
void layernorm_backward_fast(const Tensor& x, const Tensor& gamma,
                             const Tensor& mean, const Tensor& rstd,
                             const Tensor& dy, Tensor& dx, Tensor& dgamma,
                             Tensor& dbeta);
/// Tolerance-equal; masked (< −87.34) scores → exact 0.0f; zero-extension
/// stable (see header comment).
void softmax_rows_fast(const Tensor& x, Tensor& y);
/// The post-softmax pass of cross_entropy: reads each row's target
/// probability into row_logp (as log(max(p, 1e-20))), then scales the row
/// by `k` and subtracts k at the target — same order as the reference.
/// The dispatcher runs softmax first and sums the loss afterwards.
void cross_entropy_grad_fast(Tensor& probs, const std::vector<int>& targets,
                             float k, float* row_logp);

// ---- Comm / optimizer inner loops (AVX2 hosts only) ---------------------
// All bitwise ≡ their scalar loops: one exact operation per element.

void vector_add_fast(float* dst, const float* src, std::size_t n);
float max_abs_fast(const float* x, std::size_t n);
void quantize_prep_fast(const float* x, std::size_t n, float scale,
                        float levels, float* a, float* floor_a);
void dequant_add_int8_fast(const std::int8_t* q, std::size_t n, float unit,
                           float* out);

}  // namespace chimera::simd
