#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "util/bitvec.hpp"
#include "util/contracts.hpp"

// The one translation unit allowed to touch raw intrinsics (ftlint rule
// no-raw-intrinsics). Vector kernels are compiled with function-level
// `target` attributes, so the file builds on any x86-64 toolchain and the
// binary runs on any CPU — a kernel is only ever CALLED after
// __builtin_cpu_supports confirmed its ISA.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FTSCHED_SIMD_X86 1
#include <immintrin.h>
#else
#define FTSCHED_SIMD_X86 0
#endif

namespace ftsched::simd {
namespace {

// --- Scalar reference kernels -----------------------------------------------
// Ground truth: the vector kernels below compute exactly these functions.

void scalar_and_rows(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* out, std::size_t words) {
  for (std::size_t k = 0; k < words; ++k) {
    out[k] = a[k] & b[k];
  }
}

std::int32_t row_first_set(const std::uint64_t* row, std::size_t row_words) {
  for (std::size_t wi = 0; wi < row_words; ++wi) {
    if (row[wi] != 0) {
      return static_cast<std::int32_t>(wi * 64 + bits::find_first_word(row[wi]));
    }
  }
  return -1;
}

// The round-robin rule: first set bit >= hint, else first set bit anywhere
// (which is necessarily < hint), else -1 (LinkState's kNoPort).
std::int32_t row_first_set_from(const std::uint64_t* row,
                                std::size_t row_words, std::uint32_t hint) {
  const std::size_t start = hint / 64;
  FT_ASSERT(start < row_words);
  const std::uint64_t head = row[start] & ~bits::low_mask(hint % 64);
  if (head != 0) {
    return static_cast<std::int32_t>(start * 64 + bits::find_first_word(head));
  }
  for (std::size_t wi = start + 1; wi < row_words; ++wi) {
    if (row[wi] != 0) {
      return static_cast<std::int32_t>(wi * 64 + bits::find_first_word(row[wi]));
    }
  }
  return row_first_set(row, row_words);
}

void scalar_first_set_select(const std::uint64_t* rows, std::size_t n,
                             std::size_t row_words, std::int32_t* out) {
  FT_ASSERT(row_words >= 1);
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = row_first_set(rows + r * row_words, row_words);
  }
}

void scalar_first_set_select_hint(const std::uint64_t* rows, std::size_t n,
                                  std::size_t row_words,
                                  const std::uint32_t* hints,
                                  std::int32_t* out) {
  FT_ASSERT(row_words >= 1);
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = row_first_set_from(rows + r * row_words, row_words, hints[r]);
  }
}

void scalar_popcount_rows(const std::uint64_t* rows, std::size_t n,
                          std::size_t row_words, std::uint32_t* out) {
  FT_ASSERT(row_words >= 1);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t* row = rows + r * row_words;
    std::size_t count = 0;
    for (std::size_t wi = 0; wi < row_words; ++wi) {
      count += bits::popcount(row[wi]);
    }
    out[r] = static_cast<std::uint32_t>(count);
  }
}

#if FTSCHED_SIMD_X86

// --- AVX2 kernels -------------------------------------------------------------
// Select/popcount vectorize ACROSS rows, four single-word rows per 256-bit
// lane-set; multi-word rows (w > 64) take the scalar path inside the same
// entry point. Find-first-set has no AVX2 instruction, so it is computed as
// popcount((v & -v) - 1) with Mula's pshufb nibble popcount: an all-zero row
// yields (0 - 1) = ~0 → popcount 64, which the store loop maps to -1.

__attribute__((target("avx2"))) inline __m256i popcount_epi64_avx2(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, nibble);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline __m256i first_set_epi64_avx2(__m256i v) {
  const __m256i lowest =
      _mm256_and_si256(v, _mm256_sub_epi64(_mm256_setzero_si256(), v));
  return popcount_epi64_avx2(
      _mm256_sub_epi64(lowest, _mm256_set1_epi64x(1)));
}

__attribute__((target("avx2"))) void avx2_and_rows(const std::uint64_t* a,
                                                   const std::uint64_t* b,
                                                   std::uint64_t* out,
                                                   std::size_t words) {
  std::size_t k = 0;
  for (; k + 4 <= words; k += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        _mm256_and_si256(va, vb));
  }
  for (; k < words; ++k) {
    out[k] = a[k] & b[k];
  }
}

__attribute__((target("avx2"))) void avx2_first_set_select(
    const std::uint64_t* rows, std::size_t n, std::size_t row_words,
    std::int32_t* out) {
  FT_ASSERT(row_words >= 1);
  if (row_words != 1) {
    scalar_first_set_select(rows, n, row_words, out);
    return;
  }
  std::size_t r = 0;
  alignas(32) std::uint64_t tmp[4];
  for (; r + 4 <= n; r += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + r));
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       first_set_epi64_avx2(v));
    for (std::size_t k = 0; k < 4; ++k) {
      const auto fs = static_cast<std::int32_t>(tmp[k]);
      out[r + k] = fs == 64 ? -1 : fs;
    }
  }
  for (; r < n; ++r) {
    out[r] = row_first_set(rows + r, 1);
  }
}

__attribute__((target("avx2"))) void avx2_first_set_select_hint(
    const std::uint64_t* rows, std::size_t n, std::size_t row_words,
    const std::uint32_t* hints, std::int32_t* out) {
  FT_ASSERT(row_words >= 1);
  if (row_words != 1) {
    scalar_first_set_select_hint(rows, n, row_words, hints, out);
    return;
  }
  std::size_t r = 0;
  alignas(32) std::uint64_t tmp[4];
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (; r + 4 <= n; r += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + r));
    const __m256i hint = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(hints + r)));
    // Bits >= hint; hint < 64 here (row_words == 1), so sllv never saturates.
    const __m256i masked = _mm256_and_si256(v, _mm256_sllv_epi64(ones, hint));
    const __m256i fs_masked = first_set_epi64_avx2(masked);
    const __m256i fs_all = first_set_epi64_avx2(v);
    const __m256i wrap =
        _mm256_cmpeq_epi64(masked, _mm256_setzero_si256());
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       _mm256_blendv_epi8(fs_masked, fs_all, wrap));
    for (std::size_t k = 0; k < 4; ++k) {
      const auto fs = static_cast<std::int32_t>(tmp[k]);
      out[r + k] = fs == 64 ? -1 : fs;
    }
  }
  for (; r < n; ++r) {
    out[r] = row_first_set_from(rows + r, 1, hints[r]);
  }
}

__attribute__((target("avx2"))) void avx2_popcount_rows(
    const std::uint64_t* rows, std::size_t n, std::size_t row_words,
    std::uint32_t* out) {
  FT_ASSERT(row_words >= 1);
  if (row_words != 1) {
    scalar_popcount_rows(rows, n, row_words, out);
    return;
  }
  std::size_t r = 0;
  alignas(32) std::uint64_t tmp[4];
  for (; r + 4 <= n; r += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + r));
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), popcount_epi64_avx2(v));
    for (std::size_t k = 0; k < 4; ++k) {
      out[r + k] = static_cast<std::uint32_t>(tmp[k]);
    }
  }
  for (; r < n; ++r) {
    out[r] = static_cast<std::uint32_t>(bits::popcount(rows[r]));
  }
}

// --- AVX-512 kernels ----------------------------------------------------------
// Same shapes, eight rows per vector, native vpopcntq instead of the pshufb
// emulation. Detection requires f+cd+vpopcntdq together (simd.hpp).

// GCC's avx512fintrin.h models _mm512_undefined_pd() as a self-initialized
// local, which -Wmaybe-uninitialized flags when intrinsics inline into our
// kernels. Header artifact, not our data flow.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define FTSCHED_AVX512_TARGET \
  __attribute__((target("avx512f,avx512cd,avx512vpopcntdq")))

FTSCHED_AVX512_TARGET inline __m512i first_set_epi64_avx512(__m512i v) {
  const __m512i lowest =
      _mm512_and_si512(v, _mm512_sub_epi64(_mm512_setzero_si512(), v));
  return _mm512_popcnt_epi64(
      _mm512_sub_epi64(lowest, _mm512_set1_epi64(1)));
}

FTSCHED_AVX512_TARGET void avx512_and_rows(const std::uint64_t* a,
                                           const std::uint64_t* b,
                                           std::uint64_t* out,
                                           std::size_t words) {
  std::size_t k = 0;
  for (; k + 8 <= words; k += 8) {
    const __m512i va = _mm512_loadu_si512(a + k);
    const __m512i vb = _mm512_loadu_si512(b + k);
    _mm512_storeu_si512(out + k, _mm512_and_si512(va, vb));
  }
  for (; k < words; ++k) {
    out[k] = a[k] & b[k];
  }
}

FTSCHED_AVX512_TARGET void avx512_first_set_select(const std::uint64_t* rows,
                                                   std::size_t n,
                                                   std::size_t row_words,
                                                   std::int32_t* out) {
  FT_ASSERT(row_words >= 1);
  if (row_words != 1) {
    scalar_first_set_select(rows, n, row_words, out);
    return;
  }
  std::size_t r = 0;
  alignas(64) std::uint64_t tmp[8];
  for (; r + 8 <= n; r += 8) {
    const __m512i v = _mm512_loadu_si512(rows + r);
    _mm512_store_si512(tmp, first_set_epi64_avx512(v));
    for (std::size_t k = 0; k < 8; ++k) {
      const auto fs = static_cast<std::int32_t>(tmp[k]);
      out[r + k] = fs == 64 ? -1 : fs;
    }
  }
  for (; r < n; ++r) {
    out[r] = row_first_set(rows + r, 1);
  }
}

FTSCHED_AVX512_TARGET void avx512_first_set_select_hint(
    const std::uint64_t* rows, std::size_t n, std::size_t row_words,
    const std::uint32_t* hints, std::int32_t* out) {
  FT_ASSERT(row_words >= 1);
  if (row_words != 1) {
    scalar_first_set_select_hint(rows, n, row_words, hints, out);
    return;
  }
  std::size_t r = 0;
  alignas(64) std::uint64_t tmp[8];
  const __m512i ones = _mm512_set1_epi64(-1);
  for (; r + 8 <= n; r += 8) {
    const __m512i v = _mm512_loadu_si512(rows + r);
    const __m512i hint = _mm512_cvtepu32_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hints + r)));
    const __m512i masked = _mm512_and_si512(v, _mm512_sllv_epi64(ones, hint));
    const __mmask8 has_masked =
        _mm512_cmpneq_epi64_mask(masked, _mm512_setzero_si512());
    const __m512i fs = _mm512_mask_blend_epi64(
        has_masked, first_set_epi64_avx512(v), first_set_epi64_avx512(masked));
    _mm512_store_si512(tmp, fs);
    for (std::size_t k = 0; k < 8; ++k) {
      const auto pick = static_cast<std::int32_t>(tmp[k]);
      out[r + k] = pick == 64 ? -1 : pick;
    }
  }
  for (; r < n; ++r) {
    out[r] = row_first_set_from(rows + r, 1, hints[r]);
  }
}

FTSCHED_AVX512_TARGET void avx512_popcount_rows(const std::uint64_t* rows,
                                                std::size_t n,
                                                std::size_t row_words,
                                                std::uint32_t* out) {
  FT_ASSERT(row_words >= 1);
  if (row_words != 1) {
    scalar_popcount_rows(rows, n, row_words, out);
    return;
  }
  std::size_t r = 0;
  alignas(64) std::uint64_t tmp[8];
  for (; r + 8 <= n; r += 8) {
    const __m512i v = _mm512_loadu_si512(rows + r);
    _mm512_store_si512(tmp, _mm512_popcnt_epi64(v));
    for (std::size_t k = 0; k < 8; ++k) {
      out[r + k] = static_cast<std::uint32_t>(tmp[k]);
    }
  }
  for (; r < n; ++r) {
    out[r] = static_cast<std::uint32_t>(bits::popcount(rows[r]));
  }
}

#undef FTSCHED_AVX512_TARGET

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // FTSCHED_SIMD_X86

// --- Dispatch tables ----------------------------------------------------------

constexpr Ops kScalarOps{Level::kScalar, &scalar_and_rows,
                         &scalar_first_set_select, &scalar_first_set_select_hint,
                         &scalar_popcount_rows};

#if FTSCHED_SIMD_X86
constexpr Ops kAvx2Ops{Level::kAvx2, &avx2_and_rows, &avx2_first_set_select,
                       &avx2_first_set_select_hint, &avx2_popcount_rows};

constexpr Ops kAvx512Ops{Level::kAvx512, &avx512_and_rows,
                         &avx512_first_set_select, &avx512_first_set_select_hint,
                         &avx512_popcount_rows};
#endif

Level detect_uncached() {
#if FTSCHED_SIMD_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512cd") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level clamp_to_cpu(Level level) {
  const Level best = detect();
  return static_cast<std::uint8_t>(level) <= static_cast<std::uint8_t>(best)
             ? level
             : best;
}

Level env_or_detected() {
  if (const char* env = std::getenv("FTSCHED_SIMD")) {
    if (const auto parsed = parse_level(env)) {
      return clamp_to_cpu(*parsed);
    }
  }
  return detect();
}

// -1 = no force() override (resolve from env/CPU). Relaxed atomics: the
// override is set from flag parsing before batches run; readers only need a
// torn-free load, not ordering.
std::atomic<int> g_forced{-1};

}  // namespace

std::string_view to_string(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  FT_UNREACHABLE();
}

std::optional<Level> parse_level(std::string_view text) {
  if (text == "scalar") return Level::kScalar;
  if (text == "avx2") return Level::kAvx2;
  if (text == "avx512") return Level::kAvx512;
  if (text == "auto") return detect();
  return std::nullopt;
}

Level detect() {
  static const Level cached = detect_uncached();
  return cached;
}

Level active() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<Level>(forced);
  }
  static const Level resolved = env_or_detected();
  return resolved;
}

void force(Level level) {
  g_forced.store(static_cast<int>(clamp_to_cpu(level)),
                 std::memory_order_relaxed);
}

void use_auto() { g_forced.store(-1, std::memory_order_relaxed); }

const Ops& ops_for(Level level) {
  switch (clamp_to_cpu(level)) {
    case Level::kScalar:
      return kScalarOps;
#if FTSCHED_SIMD_X86
    case Level::kAvx2:
      return kAvx2Ops;
    case Level::kAvx512:
      return kAvx512Ops;
#else
    case Level::kAvx2:
    case Level::kAvx512:
      break;  // clamp_to_cpu never yields these without x86 support
#endif
  }
  FT_UNREACHABLE();
}

const Ops& ops() { return ops_for(active()); }

}  // namespace ftsched::simd
