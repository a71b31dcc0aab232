#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/threadpool.h"

// This translation unit is compiled with -ffp-contract=off (set in
// src/nn/CMakeLists.txt): the blocked kernels stay bit-identical to the
// scalar reference kernels only because every multiply and add rounds
// separately — a contracted FMA would round once and break the oracle,
// including under -DDELREC_NATIVE=ON or inside an AVX-512 target, where the
// vector tiles' mul/add pairs would otherwise be fused as well.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DELREC_GEMM_X86 1
#else
#define DELREC_GEMM_X86 0
#endif

namespace delrec::nn {
namespace {

constexpr int MR = kGemmRowTile;
constexpr int NR = kGemmColTile;
constexpr int kNtScalarColTile = 4;  // Unpacked NT keeps 4×4 dot chains.
static_assert(NR % 16 == 0, "a C row's columns split into whole vectors at "
                            "every tile width");

// Row-partitioned dispatch over C across util::ParallelConfig threads.
// Determinism contract (DESIGN.md §9): every C row is written by exactly one
// chunk of a static partition, and each element's accumulation order over k
// is fixed (ascending p) regardless of the chunking — so all kernels are
// bit-identical to their serial (num_threads = 1) reference for any thread
// count, and need no synchronisation or float atomics. GEMMs whose m·n·k
// falls below ParallelMinWork() skip dispatch and run serially, which by the
// same argument cannot change results.
void GemmRows(int64_t m, int64_t n, int64_t k,
              const std::function<void(int64_t, int64_t)>& rows) {
  if (util::ParallelThreads() > 1 && m * n * k >= util::ParallelMinWork()) {
    util::ParallelFor(
        m, [&rows](int64_t begin, int64_t end, int) { rows(begin, end); });
  } else {
    rows(0, m);
  }
}

// -- Microkernel tiles --------------------------------------------------------
// Each GEMM call picks the ISA once, through a TileSet of full-tile pointers
// (function-pointer dispatch via __builtin_cpu_supports); the drivers and
// row-remainder edge tiles are ISA-agnostic scalar code, while column edges
// of packed B run the full tiles on zero-padded panels (ViaLocalTile). Per
// output element every tile accumulates ascending p into a single chain
// from the same start value, so lane width never changes results — vector
// lanes are distinct C columns.
//
// Each tile has one body, written in GCC vector extensions and templated on
// the vector width W: a C row's NR columns are NR/W vectors of W lanes. The
// body is instantiated at 16 lanes under target("avx512f"), at 8 under
// target("avx2"), and at 4 for the baseline tier. Two flags pick between the
// reference semantics:
// - kSkipZeros replicates the NN/TN references' per-(row, p) `a == 0.0f`
//   skip (it is semantically observable — it avoids 0·inf → NaN and
//   signed-zero flips). Without it the tile is dense, chosen only after a
//   prescan proves the A tile zero-free, where skipping and not-skipping
//   are the same program.
// - kSeedFromC seeds the accumulator from C, as NN/TN do; without it the
//   accumulator starts at 0 and combines with C at the end — the NT
//   reference's dot-then-combine association.

using TileFn = void (*)(const float* a, int64_t a_i_stride,
                        int64_t a_p_stride, const float* bpanel,
                        int64_t b_p_stride, float* c, int64_t n, int64_t k,
                        int64_t i0, int64_t j0, bool accumulate);
// The NT tile has fixed strides (NtTile below), so its signature drops them.
using NtTileFn = void (*)(const float* a, const float* bpanel, float* c,
                          int64_t n, int64_t k, int64_t i0, int64_t j0,
                          bool accumulate);
using ZeroScanFn = bool (*)(const float* a, int64_t a_i_stride,
                            int64_t a_p_stride, int64_t i0, int64_t k);

// W lanes of T. The member alias is what makes W a real dependent vector
// size (GCC drops the attribute on an alias template).
template <typename T, int W>
struct VectorOf {
  using type [[gnu::vector_size(W * sizeof(T))]] = T;
};

template <int W, bool kSkipZeros, bool kSeedFromC>
[[gnu::always_inline]] inline void Tile(const float* a, int64_t a_i_stride,
                                        int64_t a_p_stride,
                                        const float* bpanel,
                                        int64_t b_p_stride, float* c,
                                        int64_t n, int64_t k, int64_t i0,
                                        int64_t j0, bool accumulate) {
  using V = typename VectorOf<float, W>::type;
  constexpr int kVecs = NR / W;
  // acc[r·kVecs + v] holds row r's columns [v·W, v·W + W). The two loops
  // that address it by a computed index are unrolled so every index is a
  // constant and the accumulators live in registers, as in the k loop.
  V acc[MR * kVecs];
#pragma GCC unroll 16
  for (int i = 0; i < MR * kVecs; ++i) {
    acc[i] = V{};
    if (kSeedFromC && accumulate) {
      std::memcpy(&acc[i], c + (i0 + i / kVecs) * n + j0 + i % kVecs * W,
                  sizeof(V));
    }
  }
  for (int64_t p = 0; p < k; ++p) {
    V b[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      std::memcpy(&b[v], bpanel + p * b_p_stride + v * W, sizeof(V));
    }
    for (int r = 0; r < MR; ++r) {
      const float av = a[(i0 + r) * a_i_stride + p * a_p_stride];
      // Likely: GCC otherwise moves every multiply-add off the fall-through
      // path, which cost ~20% on zero-bearing attention probabilities.
      if (!kSkipZeros || av != 0.0f) [[likely]] {
        for (int v = 0; v < kVecs; ++v) acc[r * kVecs + v] += av * b[v];
      }
    }
  }
#pragma GCC unroll 16
  for (int i = 0; i < MR * kVecs; ++i) {
    float* cv = c + (i0 + i / kVecs) * n + j0 + i % kVecs * W;
    if (!kSeedFromC && accumulate) {
      // C first, dot second — the reference's `c += dot` operand order.
      V prior;
      std::memcpy(&prior, cv, sizeof(V));
      acc[i] = prior + acc[i];
    }
    std::memcpy(cv, &acc[i], sizeof(V));
  }
}

// NT's tile: the dense, unseeded Tile with NT's strides bound as constants
// — A rows contiguous along k (a_i_stride = k, a_p_stride = 1) and
// transpose-packed B panels (b_p_stride = NR). Passed at run time, they
// would make the compiler version the k loop on a stride-1 check and keep
// the general address arithmetic.
template <int W>
[[gnu::always_inline]] inline void NtTile(const float* a, const float* bpanel,
                                          float* c, int64_t n, int64_t k,
                                          int64_t i0, int64_t j0,
                                          bool accumulate) {
  Tile<W, false, false>(a, k, 1, bpanel, NR, c, n, k, i0, j0, accumulate);
}

// Dense-tile eligibility prescan: true iff any A element in the MR-row tile
// compares == 0.0f (matches ±0, never NaN — the exact predicate the skip
// tile applies per element). This runs once per 4-row tile over 4×k floats,
// so on small GEMMs it is a visible fraction of the whole product. Only the
// contiguous-row layout (NN path, a_p_stride == 1) vectorizes; the strided
// TN layout keeps the scalar scan. A prescan is a pure predicate — speeding
// it up cannot change any result.
bool TileHasZeroScalar(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                       int64_t i0, int64_t k) {
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    for (int64_t p = 0; p < k; ++p) {
      if (ar[p * a_p_stride] == 0.0f) return true;
    }
  }
  return false;
}

// True iff any lane of a compare mask is set: OR the upper half of the
// lanes into the lower (__builtin_shufflevector) down to 4 lanes, then test
// those as two 64-bit words.
template <int W>
[[gnu::always_inline]] inline bool AnyLane(
    const typename VectorOf<int32_t, W>::type& mask) {
  if constexpr (W == 4) {
    uint64_t words[2];
    std::memcpy(words, &mask, sizeof words);
    return (words[0] | words[1]) != 0;
  } else {
    typename VectorOf<int32_t, W / 2>::type half;
    [&]<int... I>(std::integer_sequence<int, I...>) {
      half = __builtin_shufflevector(mask, mask, I...) |
             __builtin_shufflevector(mask, mask, (I + W / 2)...);
    }(std::make_integer_sequence<int, W / 2>{});
    return AnyLane<W / 2>(half);
  }
}

template <int W>
[[gnu::always_inline]] inline bool TileHasZero(const float* a,
                                               int64_t a_i_stride,
                                               int64_t a_p_stride, int64_t i0,
                                               int64_t k) {
  if (a_p_stride != 1) {
    return TileHasZeroScalar(a, a_i_stride, a_p_stride, i0, k);
  }
  using V = typename VectorOf<float, W>::type;
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    typename VectorOf<int32_t, W>::type zero = {};
    int64_t p = 0;
    for (; p + W <= k; p += W) {
      V v;
      std::memcpy(&v, ar + p, sizeof v);
      zero |= v == 0.0f;
    }
    if (AnyLane<W>(zero)) return true;
    for (; p < k; ++p) {
      if (ar[p] == 0.0f) return true;
    }
  }
  return false;
}

struct TileSet {
  TileFn dense;
  TileFn skip;
  NtTileFn nt;
  ZeroScanFn has_zero;
  const char* isa;
};

#if DELREC_GEMM_X86
// Compiles an always-inline body into a function of the named target, so
// its vectors get that target's registers. Only pointers and scalars cross
// the call: a wide vector passed by value outside a target context would
// change the ABI.
template <auto kBody, typename R, typename... Args>
[[gnu::target("avx512f")]] R InAvx512(Args... args) {
  return kBody(args...);
}
template <auto kBody, typename R, typename... Args>
[[gnu::target("avx2")]] R InAvx2(Args... args) {
  return kBody(args...);
}
#endif

TileSet TilesFor(GemmTileWidth width) {
#if DELREC_GEMM_X86
  if (width == GemmTileWidth::k16) {
    return {InAvx512<Tile<16, false, true>>, InAvx512<Tile<16, true, true>>,
            InAvx512<NtTile<16>>, InAvx512<TileHasZero<16>>,
            "avx512"};
  }
  if (width == GemmTileWidth::k8) {
    return {InAvx2<Tile<8, false, true>>, InAvx2<Tile<8, true, true>>,
            InAvx2<NtTile<8>>, InAvx2<TileHasZero<8>>, "avx2"};
  }
  const char* isa = "sse2";
#else
  const char* isa = "portable";
#endif
  return {Tile<4, false, true>, Tile<4, true, true>, NtTile<4>,
          TileHasZero<4>, isa};
}

const TileSet& PickTiles() {
  static const TileSet tiles =
      TilesFor(GemmTileWidthSupported(GemmTileWidth::k16) ? GemmTileWidth::k16
               : GemmTileWidthSupported(GemmTileWidth::k8) ? GemmTileWidth::k8
                                                           : GemmTileWidth::k4);
  return tiles;
}

// -- Blocked NN / TN ----------------------------------------------------------
// Both contract C(i,j) = Σ_p A(i,p)·B(p,j) with B stored row-major (K,N);
// they differ only in how A is addressed: A(i,p) = a[i·a_i_stride +
// p·a_p_stride] (NN: strides (k,1); TN with A stored (K,M): strides (1,m)).

// Remainder tile (mr < MR, or nr < NR on an unpacked panel): same
// accumulation structure with runtime bounds; always uses the skip form
// (identical on zero-free data).
void MicroTileEdge(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                   const float* bpanel, int64_t b_p_stride, float* c,
                   int64_t n, int64_t k, int64_t i0, int mr, int64_t j0,
                   int nr, bool accumulate) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + (i0 + r) * a_i_stride;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < nr; ++jr) acc[jr] = accumulate ? cr[jr] : 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p * a_p_stride];
      if (av == 0.0f) continue;
      const float* bp = bpanel + p * b_p_stride;
      for (int jr = 0; jr < nr; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < nr; ++jr) cr[jr] = acc[jr];
  }
}

// A full row tile on a zero-padded edge panel (nr < NR): `tile` writes an
// MR×NR block at row stride NR into a local C tile seeded from the nr valid
// columns of C, and only those columns are copied back. Each valid lane runs
// the same chain it would in the scalar edge; the padded lanes see B = 0 and
// are discarded.
template <typename Tile>
void ViaLocalTile(float* c, int64_t n, int64_t i0, int64_t j0, int nr,
                  bool accumulate, const Tile& tile) {
  float local[MR * NR] = {};
  float* corner = c + i0 * n + j0;
  if (accumulate) {
    for (int r = 0; r < MR; ++r) {
      std::copy(corner + r * n, corner + r * n + nr, local + r * NR);
    }
  }
  tile(local);
  for (int r = 0; r < MR; ++r) {
    std::copy(local + r * NR, local + r * NR + nr, corner + r * n);
  }
}

struct AxBContext {
  const float* a;
  int64_t a_i_stride;
  int64_t a_p_stride;
  const float* b;       // Unpacked row-major (K,N) view.
  const float* packed;  // NR-wide panels, or nullptr when unpacked.
  float* c;
  int64_t n;
  int64_t k;
  int64_t num_panels;
  bool accumulate;
  TileFn dense;
  TileFn skip;
  ZeroScanFn has_zero;
};

void AxBRows(const AxBContext& ctx, int64_t row_begin, int64_t row_end) {
  // Full row tiles run the ISA tile on every full panel, and on the edge
  // panel too once packing has zero-padded it.
  const bool packed = ctx.packed != nullptr;
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    const bool dense =
        mr == MR && (packed || ctx.n >= NR) &&
        !ctx.has_zero(ctx.a, ctx.a_i_stride, ctx.a_p_stride, i, ctx.k);
    const TileFn tile = dense ? ctx.dense : ctx.skip;
    for (int64_t jb = 0; jb < ctx.num_panels; ++jb) {
      const int64_t j0 = jb * NR;
      const int nr = static_cast<int>(std::min<int64_t>(NR, ctx.n - j0));
      const float* bpanel = packed ? ctx.packed + jb * ctx.k * NR : ctx.b + j0;
      const int64_t b_p_stride = packed ? NR : ctx.n;
      if (mr == MR && nr == NR) {
        tile(ctx.a, ctx.a_i_stride, ctx.a_p_stride, bpanel, b_p_stride, ctx.c,
             ctx.n, ctx.k, i, j0, ctx.accumulate);
      } else if (mr == MR && packed) {
        ViaLocalTile(ctx.c, ctx.n, i, j0, nr, ctx.accumulate,
                     [&](float* local) {
                       tile(ctx.a + i * ctx.a_i_stride, ctx.a_i_stride,
                            ctx.a_p_stride, bpanel, NR, local, NR, ctx.k,
                            /*i0=*/0, /*j0=*/0, ctx.accumulate);
                     });
      } else {
        MicroTileEdge(ctx.a, ctx.a_i_stride, ctx.a_p_stride, bpanel,
                      b_p_stride, ctx.c, ctx.n, ctx.k, i, mr, j0, nr,
                      ctx.accumulate);
      }
    }
  }
}

void BlockedAxB(const TileSet& tiles, const float* a, int64_t a_i_stride,
                int64_t a_p_stride, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool accumulate) {
  if (m == 0 || n == 0) return;
  const int64_t num_panels = (n + NR - 1) / NR;
  // Pack B into contiguous NR-wide panels once per call when enough row
  // tiles will reuse it (the pack is one extra pass over B; with few rows
  // the in-place panel view is cheaper). Edge-panel lanes past n are zeroed
  // so full row tiles run the ISA tile there too (ViaLocalTile) — for
  // n < NR, e.g. attention's A·V with head_dim 8, that is every tile. The
  // pack buffer is pooled scratch shared read-only by all row chunks;
  // ParallelFor joins before the arena releases it.
  util::ScopedArena arena;
  AxBContext ctx{a,           a_i_stride, a_p_stride, b, nullptr,       c,
                 n,           k,          num_panels, accumulate,
                 tiles.dense, tiles.skip, tiles.has_zero};
  if (m >= kGemmPackMinRows) {
    float* pack = arena.Alloc(static_cast<size_t>(num_panels) * k * NR);
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int nr = static_cast<int>(std::min<int64_t>(NR, n - jb * NR));
      float* panel = pack + jb * k * NR;
      const float* bsrc = b + jb * NR;
      if (nr < NR) std::fill(panel, panel + k * NR, 0.0f);
      for (int64_t p = 0; p < k; ++p) {
        for (int jr = 0; jr < nr; ++jr) {
          panel[p * NR + jr] = bsrc[p * n + jr];
        }
      }
    }
    ctx.packed = pack;
  }
  GemmRows(m, n, k, [&ctx](int64_t row_begin, int64_t row_end) {
    AxBRows(ctx, row_begin, row_end);
  });
}

// -- Blocked NT ---------------------------------------------------------------
// C(i,j) = Σ_p A(i,p)·B(j,p), both operands stored contiguous along k. With
// enough rows B is transpose-packed into NR-wide panels (panel[p·NR + jr] =
// B(j0+jr, p)), which turns the inner update into the same lane-parallel
// shape as NN — lanes are distinct output columns, each lane still a single
// ascending-p chain with the reference's dot-then-combine association.
// Small-m calls skip the pack and use MR×4 independent scalar dot chains.

// Row-remainder tile (mr < MR) of the packed path.
void NtPanelEdge(const float* a, const float* bpanel, float* c, int64_t n,
                 int64_t k, int64_t i0, int mr, int64_t j0, int nr,
                 bool accumulate) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + (i0 + r) * k;
    float* cr = c + (i0 + r) * n + j0;
    float acc[NR];
    for (int jr = 0; jr < nr; ++jr) acc[jr] = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float av = ar[p];
      const float* bp = bpanel + p * NR;
      for (int jr = 0; jr < nr; ++jr) acc[jr] += av * bp[jr];
    }
    for (int jr = 0; jr < nr; ++jr) {
      cr[jr] = accumulate ? cr[jr] + acc[jr] : acc[jr];
    }
  }
}

struct NtContext {
  const float* a;
  const float* b;       // (N,K) rows, used by the unpacked path.
  const float* packed;  // Transpose-packed NR-wide panels, or nullptr.
  float* c;
  int64_t n;
  int64_t k;
  int64_t num_panels;
  bool accumulate;
  NtTileFn tile;
};

void NtPackedRows(const NtContext& ctx, int64_t row_begin, int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    for (int64_t jb = 0; jb < ctx.num_panels; ++jb) {
      const int64_t j0 = jb * NR;
      const int nr = static_cast<int>(std::min<int64_t>(NR, ctx.n - j0));
      const float* bpanel = ctx.packed + jb * ctx.k * NR;
      if (mr == MR && nr == NR) {
        ctx.tile(ctx.a, bpanel, ctx.c, ctx.n, ctx.k, i, j0, ctx.accumulate);
      } else if (mr == MR) {
        ViaLocalTile(ctx.c, ctx.n, i, j0, nr, ctx.accumulate,
                     [&](float* local) {
                       ctx.tile(ctx.a + i * ctx.k, bpanel, local, NR, ctx.k,
                                /*i0=*/0, /*j0=*/0, ctx.accumulate);
                     });
      } else {
        NtPanelEdge(ctx.a, bpanel, ctx.c, ctx.n, ctx.k, i, mr, j0, nr,
                    ctx.accumulate);
      }
    }
  }
}

// Unpacked small-m NT: MR×4 independent scalar dot chains.
void NtDotTile(const float* a, const float* b, float* c, int64_t n, int64_t k,
               int64_t i0, int64_t j0, bool accumulate) {
  const float* arow[MR];
  const float* brow[kNtScalarColTile];
  for (int r = 0; r < MR; ++r) arow[r] = a + (i0 + r) * k;
  for (int jj = 0; jj < kNtScalarColTile; ++jj) brow[jj] = b + (j0 + jj) * k;
  float acc[MR][kNtScalarColTile] = {};
  for (int64_t p = 0; p < k; ++p) {
    float av[MR], bv[kNtScalarColTile];
    for (int r = 0; r < MR; ++r) av[r] = arow[r][p];
    for (int jj = 0; jj < kNtScalarColTile; ++jj) bv[jj] = brow[jj][p];
    for (int r = 0; r < MR; ++r) {
      for (int jj = 0; jj < kNtScalarColTile; ++jj) {
        acc[r][jj] += av[r] * bv[jj];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* cr = c + (i0 + r) * n + j0;
    for (int jj = 0; jj < kNtScalarColTile; ++jj) {
      cr[jj] = accumulate ? cr[jj] + acc[r][jj] : acc[r][jj];
    }
  }
}

void NtDotEdge(const float* a, const float* b, float* c, int64_t n, int64_t k,
               int64_t i0, int mr, int64_t j0, int nr, bool accumulate) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + (i0 + r) * k;
    float* cr = c + (i0 + r) * n + j0;
    for (int jj = 0; jj < nr; ++jj) {
      const float* br = b + (j0 + jj) * k;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += ar[p] * br[p];
      cr[jj] = accumulate ? cr[jj] + dot : dot;
    }
  }
}

void NtDotRows(const NtContext& ctx, int64_t row_begin, int64_t row_end) {
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    for (int64_t j0 = 0; j0 < ctx.n; j0 += kNtScalarColTile) {
      const int nr =
          static_cast<int>(std::min<int64_t>(kNtScalarColTile, ctx.n - j0));
      if (mr == MR && nr == kNtScalarColTile) {
        NtDotTile(ctx.a, ctx.b, ctx.c, ctx.n, ctx.k, i, j0, ctx.accumulate);
      } else {
        NtDotEdge(ctx.a, ctx.b, ctx.c, ctx.n, ctx.k, i, mr, j0, nr,
                  ctx.accumulate);
      }
    }
  }
}

void BlockedNT(const TileSet& tiles, const float* a, const float* b,
               float* c, int64_t m, int64_t n, int64_t k, bool accumulate) {
  if (m == 0 || n == 0) return;
  const int64_t num_panels = (n + NR - 1) / NR;
  util::ScopedArena arena;
  NtContext ctx{a, b, nullptr, c, n, k, num_panels, accumulate, tiles.nt};
  if (m >= kGemmPackMinRows) {
    // Transpose-pack B so the microkernel reads NR output columns per load;
    // the pack costs one pass over B, amortized across m/MR row tiles. The
    // edge panel's lanes past n are zeroed, as in BlockedAxB.
    float* pack = arena.Alloc(static_cast<size_t>(num_panels) * k * NR);
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int nr = static_cast<int>(std::min<int64_t>(NR, n - jb * NR));
      float* panel = pack + jb * k * NR;
      if (nr < NR) std::fill(panel, panel + k * NR, 0.0f);
      for (int jr = 0; jr < nr; ++jr) {
        const float* bcol = b + (jb * NR + jr) * k;
        for (int64_t p = 0; p < k; ++p) panel[p * NR + jr] = bcol[p];
      }
    }
    ctx.packed = pack;
    GemmRows(m, n, k, [&ctx](int64_t row_begin, int64_t row_end) {
      NtPackedRows(ctx, row_begin, row_end);
    });
  } else {
    GemmRows(m, n, k, [&ctx](int64_t row_begin, int64_t row_end) {
      NtDotRows(ctx, row_begin, row_end);
    });
  }
}

TileSet SupportedTiles(GemmTileWidth width) {
  DELREC_CHECK(GemmTileWidthSupported(width));
  return TilesFor(width);
}

}  // namespace

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  BlockedAxB(PickTiles(), a, /*a_i_stride=*/k, /*a_p_stride=*/1, b, c, m, n,
             k, accumulate);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  // A stored (K,M): A(i,p) = a[p·m + i].
  BlockedAxB(PickTiles(), a, /*a_i_stride=*/1, /*a_p_stride=*/m, b, c, m, n,
             k, accumulate);
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  BlockedNT(PickTiles(), a, b, c, m, n, k, accumulate);
}

bool GemmTileWidthSupported(GemmTileWidth width) {
#if DELREC_GEMM_X86
  if (width == GemmTileWidth::k16) return __builtin_cpu_supports("avx512f");
  if (width == GemmTileWidth::k8) return __builtin_cpu_supports("avx2");
#endif
  return width == GemmTileWidth::k4;
}

void GemmNNWith(GemmTileWidth width, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool accumulate) {
  BlockedAxB(SupportedTiles(width), a, /*a_i_stride=*/k, /*a_p_stride=*/1, b,
             c, m, n, k, accumulate);
}

void GemmTNWith(GemmTileWidth width, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool accumulate) {
  BlockedAxB(SupportedTiles(width), a, /*a_i_stride=*/1, /*a_p_stride=*/m, b,
             c, m, n, k, accumulate);
}

void GemmNTWith(GemmTileWidth width, const float* a, const float* b, float* c,
                int64_t m, int64_t n, int64_t k, bool accumulate) {
  BlockedNT(SupportedTiles(width), a, b, c, m, n, k, accumulate);
}

// -- Reference kernels --------------------------------------------------------
// The exact historical serial loop nests (pre-blocking), kept as the
// bit-identity oracle and the perf baseline.

void GemmNNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      if (a_val == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

void GemmNTRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += a_row[p] * b_row[p];
      if (accumulate) {
        c_row[j] += dot;
      } else {
        c_row[j] = dot;
      }
    }
  }
}

void GemmTNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a[p * m + i];
      if (a_val == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

std::string GemmKernelConfig() {
#ifdef DELREC_NATIVE_BUILD
  const char* native = "on";
#else
  const char* native = "off";
#endif
  return "blocked " + std::to_string(kGemmRowTile) + "x" +
         std::to_string(kGemmColTile) + " microkernel, packed-B (m>=" +
         std::to_string(kGemmPackMinRows) + "), isa=" +
         PickTiles().isa + ", fp-contract=off, pool-backed pack buffers, "
         "march=native " + native;
}

std::string GemmKernelIsa() { return PickTiles().isa; }

}  // namespace delrec::nn
