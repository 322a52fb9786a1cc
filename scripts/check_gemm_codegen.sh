#!/usr/bin/env bash
# Codegen guard for the fast-tier GEMM microkernels (DESIGN.md §2 item 18).
#
# The microkernels tile_avx2<MR> (MR = 1..6), dot_avx2<JT> (JT = 1..4) and
# the 3x4 gemm_nt tile nt_tile_avx2 only run at register speed when their
# accumulators stay in ymm registers. If a compiler upgrade or a refactor
# leaves an MR/JT/row loop rolled, the accumulator array moves to the stack
# and every multiply-add in the k-loop becomes a load/store round trip,
# with bitwise identical results, so no test notices. This script
# disassembles kernels_simd.cc.o, finds each kernel's k-loop (the
# innermost loop holding the kernel's arithmetic: the shortest span from a
# backward branch's target to that branch) and fails if that loop
#   - addresses memory through %rsp or %rbp with a ymm operand, or
#   - stores a ymm register at all: the k-loop writes no memory, so a ymm
#     store there is an accumulator spilled into the frame, even when the
#     frame slot is addressed through another register.
#
#   $ scripts/check_gemm_codegen.sh [path/to/kernels_simd.cc.o]
#
# The default object path is the one `cmake -B build -S .` produces.
set -euo pipefail
cd "$(dirname "$0")/.."

obj=${1:-build/CMakeFiles/chimera.dir/src/tensor/kernels_simd.cc.o}
if [ ! -f "$obj" ]; then
  echo "check-gemm-codegen: object not found: $obj (build the library first)" >&2
  exit 2
fi

dis=$(objdump -d --no-show-raw-insn -C "$obj")

# check_kernel NAME ARITH: NAME is the demangled symbol prefix, ARITH the
# regex of the k-loop's arithmetic mnemonic.
check_kernel() {
  printf '%s\n' "$dis" | awk -v name="$1" -v arith="$2" '
    function hex(s,   i, c, v) {
      v = 0
      s = tolower(s)
      for (i = 1; i <= length(s); ++i) {
        c = index("0123456789abcdef", substr(s, i, 1))
        if (c == 0) break
        v = v * 16 + c - 1
      }
      return v
    }
    # Function header: "0000000000002c20 <void chimera::...::tile_avx2<6>(...)>:"
    /^[0-9a-f]+ </ { infn = index($0, "::" name "(") > 0; next }
    infn && /^ *[0-9a-f]+:\t/ {
      split($0, f, "\t")
      a = f[1]; sub(/^ */, "", a); sub(/:$/, "", a)
      n++; addr[n] = hex(a); insn[n] = f[2]; at[addr[n]] = n
      next
    }
    infn && /^$/ { infn = 0 }
    END {
      if (n == 0) { printf "FAIL: %s not found in the object\n", name; exit 1 }
      lo = 0
      for (j = 1; j <= n; ++j) {
        split(insn[j], w, /[ \t]+/)
        if (w[1] !~ /^j/ || w[2] !~ /^[0-9a-f]+$/) continue
        t = hex(w[2])
        if (t >= addr[j] || !(t in at)) continue
        body = 0
        for (i = at[t]; i <= j; ++i) if (insn[i] ~ arith) body = 1
        if (body && (lo == 0 || j - at[t] < hi - lo)) { lo = at[t]; hi = j }
      }
      if (lo == 0) { printf "FAIL: no k-loop found in %s\n", name; exit 1 }
      bad = 0
      for (i = lo; i <= hi; ++i) {
        if (insn[i] !~ /%ymm/) continue
        ops = insn[i]; sub(/^[a-z0-9]+[ \t]+/, "", ops)
        stack = insn[i] ~ /\(%r[sb]p/
        if (stack || ops ~ /\)$/) {
          printf "FAIL: %s k-loop: %s (%s)\n", name, insn[i],
                 stack ? "stack-relative ymm operand" : "ymm store"
          bad = 1
        }
      }
      printf "%s k-loop [%x, %x]: %d instructions\n", name, addr[lo],
             addr[hi], hi - lo + 1
      exit bad
    }'
}

status=0
for mr in 1 2 3 4 5 6; do
  check_kernel "tile_avx2<$mr>" '^vmulps' || status=1
done
for jt in 1 2 3 4; do
  check_kernel "dot_avx2<$jt>" '^vfmadd' || status=1
done
check_kernel "nt_tile_avx2" '^vfmadd' || status=1
if [ "$status" -eq 0 ]; then
  echo "check-gemm-codegen: accumulators stay in registers"
fi
exit "$status"
