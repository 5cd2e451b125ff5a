// simd — the dispatch shim for the repo's row-wise vector kernels.
//
// Three data-parallel primitives over flat, row-major uint64 word buffers,
// and THIS header is the only place in the tree allowed to know how they
// are vectorized:
//
//   and_rows          — elementwise AND over a flat word buffer
//                       (BitVec::and_into runs on it)
//   first_set_select  — per-row find-first-set (optionally from a per-row
//                       round-robin hint, wrapping), -1 when the row is zero
//   popcount_rows     — per-row popcount (rows are trimmed: spare high bits
//                       of the last word are zero, so the count is masked by
//                       construction)
//
// No scheduler calls these: the level-wise sweep ANDs and scans one
// request's rows at a time through LinkState, which measured faster than
// gathering rows into a batch for the kernels (docs/PERFORMANCE.md §4).
//
// Dispatch is RUNTIME, not compile-time: every kernel exists at three levels
// (scalar / AVX2 / AVX-512), the binary carries all of them, and a process-
// wide level — resolved from the CPU at first use, an FTSCHED_SIMD
// environment override, or an explicit force() from a --simd flag — selects
// the table. All levels compute the same pure function, so results are
// bit-identical BY CONSTRUCTION; the scalar table is the reference the unit
// tests compare the vector tables against, word for word.
//
// ftlint's no-raw-intrinsics rule pins the boundary: <immintrin.h>, __m256i
// and friends may appear only under src/util, so callers can never grow a
// second, untested vector path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace ftsched::simd {

/// Dispatch levels, ordered: a level implies every level below it.
enum class Level : std::uint8_t {
  kScalar = 0,  ///< portable reference kernels (any CPU)
  kAvx2 = 1,    ///< 256-bit AND, pshufb-popcount select
  kAvx512 = 2,  ///< 512-bit AND, native vpopcntq select
};

std::string_view to_string(Level level);

/// Parses "scalar" | "avx2" | "avx512" | "auto". "auto" yields the detected
/// level; anything else yields nullopt.
std::optional<Level> parse_level(std::string_view text);

/// Best level this CPU supports (cached after the first call). AVX-512
/// additionally requires the CD and VPOPCNTDQ subsets the select kernel
/// uses; without them detection stops at AVX2.
Level detect();

/// The level ops() currently dispatches to. Resolution order: an explicit
/// force() wins, else the FTSCHED_SIMD environment variable (same grammar
/// as parse_level; unparseable values are ignored), else detect().
Level active();

/// Forces the dispatch level, clamped to detect() — requesting AVX-512 on
/// an AVX2-only box yields AVX2, never an illegal-instruction fault. This
/// is the --simd=LEVEL hook; it applies process-wide.
void force(Level level);

/// Drops any force() override and re-resolves from environment/CPU —
/// --simd=auto, and what tests use to restore the default.
void use_auto();

/// One resolved kernel table. Function pointers, not virtuals: the
/// scheduler grabs the table once per batch and the calls inline into
/// direct jumps with no per-call dispatch branch.
struct Ops {
  Level level;

  /// out[k] = a[k] & b[k] for k < words. `out` may equal `a` or `b`
  /// exactly; partial overlap is undefined.
  void (*and_rows)(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* out, std::size_t words);

  /// out[r] = index of the lowest set bit of row r (rows + r*row_words),
  /// or -1 when the row is all zero. row_words >= 1.
  void (*first_set_select)(const std::uint64_t* rows, std::size_t n,
                           std::size_t row_words, std::int32_t* out);

  /// Round-robin select: out[r] = lowest set bit at index >= hints[r],
  /// wrapping to the lowest set bit overall when none qualifies, or -1 when
  /// the row is all zero. This is the round-robin policy's rule — a
  /// LinkState::next_available_port(hint) scan, then a first_available_port
  /// wrap when that returns LinkState::kNoPort — with -1 where LinkState
  /// returns kNoPort. hints[r] < row_words*64.
  void (*first_set_select_hint)(const std::uint64_t* rows, std::size_t n,
                                std::size_t row_words,
                                const std::uint32_t* hints, std::int32_t* out);

  /// out[r] = popcount of row r.
  void (*popcount_rows)(const std::uint64_t* rows, std::size_t n,
                        std::size_t row_words, std::uint32_t* out);
};

/// The table for active(). Callers hold the reference at most for one batch
/// (a force() between batches redirects the next call, not in-flight use).
const Ops& ops();

/// The table for an explicit level, clamped to detect() like force(). Unit
/// tests use this to compare levels side by side without global state.
const Ops& ops_for(Level level);

}  // namespace ftsched::simd
