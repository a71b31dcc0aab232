#ifndef DELREC_NN_GEMM_H_
#define DELREC_NN_GEMM_H_

#include <cstdint>
#include <string>

namespace delrec::nn {

/// Cache-blocked, register-tiled GEMM kernels (DESIGN.md §10).
///
/// All three variants produce results bit-identical to the retained naive
/// reference kernels below — and therefore to the historical serial kernels
/// of DESIGN.md §9 — at every thread count. The invariant that makes this
/// hold: per output element, partial products are accumulated in ascending
/// `p` (the contraction index) into a single accumulator chain, with the
/// same start value (0 or the prior C element) and the same `a == 0.0f`
/// skip behaviour as the reference. Register tiling only changes *which*
/// independent accumulator chains run interleaved, never the order within
/// one chain; spilling an accumulator to memory and reloading it is exact
/// in IEEE arithmetic, so cache blocking is free too.
///
/// Threading: rows of C are statically partitioned across
/// util::ParallelConfig threads exactly as before (each row is written by
/// one chunk; see DESIGN.md §9); the microkernels run inside each chunk.
///
/// The microkernel geometry is kGemmRowTile × kGemmColTile accumulators
/// held live across the full k loop. For GemmNN/GemmTN, B is repacked into
/// contiguous kGemmColTile-wide panels (one pack per GEMM call, pooled via
/// util::BufferPool, shared read-only by every row chunk) whenever the
/// output has enough rows to amortize the pack; GemmNT transpose-packs B so
/// its tiles get the same lane-parallel shape while keeping the reference's
/// dot-then-combine association. A packed edge panel (the last n %
/// kGemmColTile columns, or all of them when n < kGemmColTile) is
/// zero-padded, and full row tiles run the vector tile on it through a
/// local C tile; only row remainders and unpacked calls take the scalar
/// edge path.
///
/// Each full tile has one body, written in GCC vector extensions and
/// templated on the vector width: 16 lanes compiled for AVX-512F, 8 for
/// AVX2, and 4 for the baseline tier (SSE2 on x86-64, portable elsewhere),
/// selected once per GEMM call via __builtin_cpu_supports. Lane-parallel
/// mul/add is IEEE-identical per lane to scalar, and the GEMM translation
/// unit is built with -ffp-contract=off so no FMA contraction can split
/// blocked and reference numerics — the width never changes results.

inline constexpr int kGemmRowTile = 4;   // MR: C rows per microkernel tile.
inline constexpr int kGemmColTile = 16;  // NR: C columns per microkernel tile.
/// Minimum M at which GemmNN/GemmTN pack B (below it the pack's extra pass
/// over B costs more than it saves).
inline constexpr int64_t kGemmPackMinRows = 8;

/// C (M,N) = A (M,K) · B (K,N); accumulate adds into C instead of storing.
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate);
/// C (M,N) = A (M,K) · Bᵀ with B stored (N,K).
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate);
/// C (M,N) = Aᵀ · B with A stored (K,M), B stored (K,N).
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate);

/// Naive serial reference kernels — the exact historical loop nests, kept
/// as the bit-identity oracle for tests and the perf baseline for benches.
/// Single-threaded regardless of util::ParallelConfig.
void GemmNNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate);
void GemmNTRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate);
void GemmTNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate);

/// Human-readable summary of the compiled kernel configuration (tile sizes,
/// packing threshold, whether -march=native was enabled). Printed at bench
/// startup and recorded in BENCH_*.json.
std::string GemmKernelConfig();

/// The dispatched fp32 tile's ISA tier alone ("avx512", "avx2", "sse2", or
/// "portable") — recorded as config.isa in BENCH_*.json so baselines gate
/// only against like-for-like hardware runs.
std::string GemmKernelIsa();

/// Test hooks: run one GEMM on the tiles of a named vector width (k16 is
/// the "avx512" tier, k8 "avx2", k4 "sse2"/"portable").
/// `GemmTileWidthSupported` says whether this host can run it (k4 always
/// can). Every width returns the references' bits.
enum class GemmTileWidth { k4 = 4, k8 = 8, k16 = 16 };
bool GemmTileWidthSupported(GemmTileWidth width);
void GemmNNWith(GemmTileWidth width, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool accumulate);
void GemmNTWith(GemmTileWidth width, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool accumulate);
void GemmTNWith(GemmTileWidth width, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool accumulate);

}  // namespace delrec::nn

#endif  // DELREC_NN_GEMM_H_
