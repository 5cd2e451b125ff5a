// SIMD dispatch shim contract (util/simd.hpp): every kernel table computes
// the same pure function. The scalar table is the reference — each level the
// host CPU supports is compared against it word for word, over pinned edge
// layouts (bits straddling the 64-bit word boundary, zero rows, hints at and
// past the last set bit) and a deterministic fuzz sweep that also drives
// misaligned base pointers (8-mod-32 alignment) and odd row strides. Levels
// the CPU lacks are clamped by ops_for, so this file never faults on a
// scalar-only box — it just compares scalar against itself.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ftsched::simd {
namespace {

std::vector<Level> supported_levels() {
  std::vector<Level> levels = {Level::kScalar};
  if (detect() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  if (detect() >= Level::kAvx512) levels.push_back(Level::kAvx512);
  return levels;
}

// Independent reference implementations — deliberately naive loops, so the
// scalar kernels are themselves under test rather than self-certifying.
std::int32_t ref_first_set(const std::uint64_t* row, std::size_t row_words) {
  for (std::size_t k = 0; k < row_words; ++k) {
    if (row[k] != 0) {
      for (std::uint32_t b = 0; b < 64; ++b) {
        if ((row[k] >> b) & 1u) {
          return static_cast<std::int32_t>(k * 64 + b);
        }
      }
    }
  }
  return -1;
}

std::int32_t ref_first_set_hint(const std::uint64_t* row,
                                std::size_t row_words, std::uint32_t hint) {
  for (std::uint32_t bit = hint; bit < row_words * 64; ++bit) {
    if ((row[bit / 64] >> (bit % 64)) & 1u) {
      return static_cast<std::int32_t>(bit);
    }
  }
  return ref_first_set(row, row_words);  // wrap to the lowest overall
}

TEST(Simd, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_level("scalar"), Level::kScalar);
  EXPECT_EQ(parse_level("avx2"), Level::kAvx2);
  EXPECT_EQ(parse_level("avx512"), Level::kAvx512);
  EXPECT_EQ(parse_level("auto"), detect());
  EXPECT_EQ(parse_level("neon"), std::nullopt);
  EXPECT_EQ(parse_level(""), std::nullopt);
  EXPECT_EQ(to_string(Level::kScalar), "scalar");
  EXPECT_EQ(to_string(Level::kAvx2), "avx2");
  EXPECT_EQ(to_string(Level::kAvx512), "avx512");
}

TEST(Simd, OpsForClampsToDetectedLevel) {
  const Ops& table = ops_for(Level::kAvx512);
  EXPECT_LE(static_cast<int>(table.level), static_cast<int>(detect()));
  EXPECT_EQ(ops_for(Level::kScalar).level, Level::kScalar);
}

TEST(Simd, ForceIsClampedAndAutoRestores) {
  force(Level::kAvx512);
  EXPECT_LE(static_cast<int>(active()), static_cast<int>(detect()));
  force(Level::kScalar);
  EXPECT_EQ(active(), Level::kScalar);
  EXPECT_EQ(ops().level, Level::kScalar);
  use_auto();
}

TEST(Simd, AndRowsMatchesReferenceAtEveryLevel) {
  Xoshiro256ss rng(1);
  // Word counts straddling every vector width: remainder-only, one vector,
  // vector + tail, many vectors.
  for (std::size_t words : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{4}, std::size_t{5}, std::size_t{7},
                            std::size_t{8}, std::size_t{9}, std::size_t{16},
                            std::size_t{33}, std::size_t{100}}) {
    std::vector<std::uint64_t> a(words);
    std::vector<std::uint64_t> b(words);
    for (std::size_t k = 0; k < words; ++k) {
      a[k] = rng();
      b[k] = rng();
    }
    std::vector<std::uint64_t> expect(words);
    for (std::size_t k = 0; k < words; ++k) expect[k] = a[k] & b[k];
    for (Level level : supported_levels()) {
      std::vector<std::uint64_t> out(words, ~0ull);
      ops_for(level).and_rows(a.data(), b.data(), out.data(), words);
      EXPECT_EQ(out, expect) << to_string(level) << " words=" << words;
      // Exact-overlap aliasing is part of the contract (out == a).
      std::vector<std::uint64_t> inplace = a;
      ops_for(level).and_rows(inplace.data(), b.data(), inplace.data(),
                              words);
      EXPECT_EQ(inplace, expect) << to_string(level) << " aliased";
    }
  }
}

TEST(Simd, FirstSetSelectPinnedEdgeRows) {
  // Rows of 2 words each: bits at the word boundary and an all-zero row.
  const std::uint64_t rows[] = {
      1ull, 0ull,                 // bit 0
      1ull << 63, 0ull,           // bit 63 (last of word 0)
      0ull, 1ull,                 // bit 64 (first of word 1)
      0ull, 2ull,                 // bit 65
      0ull, 0ull,                 // empty -> -1
      0ull, 1ull << 63,           // bit 127 (very last)
  };
  const std::int32_t expect[] = {0, 63, 64, 65, -1, 127};
  for (Level level : supported_levels()) {
    std::int32_t out[6] = {99, 99, 99, 99, 99, 99};
    ops_for(level).first_set_select(rows, 6, 2, out);
    for (std::size_t r = 0; r < 6; ++r) {
      EXPECT_EQ(out[r], expect[r]) << to_string(level) << " row " << r;
    }
  }
}

TEST(Simd, FirstSetSelectHintPinnedSemantics) {
  // One-word rows; the hint rule is LinkState::next_available_port(hint)
  // with a first_available_port wrap, the same rule the round-robin port
  // policy applies — these four cases pin it exactly.
  const std::uint64_t rows[] = {
      0b10010ull,  // hint 2 -> bits 1 skipped, next set at/after 2 is 4
      0b10010ull,  // hint 4 -> exactly at a set bit: picks 4
      0b00010ull,  // hint 2 -> nothing at/after 2: wraps to 1
      0ull,        // empty row -> -1 regardless of hint
  };
  const std::uint32_t hints[] = {2, 4, 2, 3};
  const std::int32_t expect[] = {4, 4, 1, -1};
  for (Level level : supported_levels()) {
    std::int32_t out[4] = {99, 99, 99, 99};
    ops_for(level).first_set_select_hint(rows, 4, 1, hints, out);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(out[r], expect[r]) << to_string(level) << " row " << r;
    }
  }
}

TEST(Simd, PopcountRowsMatchesReferenceAtEveryLevel) {
  Xoshiro256ss rng(3);
  for (std::size_t row_words : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
    const std::size_t n = 17;  // odd: exercises every tail path
    std::vector<std::uint64_t> rows(n * row_words);
    for (auto& w : rows) w = rng() & rng();
    std::vector<std::uint32_t> expect(n);
    for (std::size_t r = 0; r < n; ++r) {
      std::uint32_t count = 0;
      for (std::size_t k = 0; k < row_words; ++k) {
        count += static_cast<std::uint32_t>(
            __builtin_popcountll(rows[r * row_words + k]));
      }
      expect[r] = count;
    }
    for (Level level : supported_levels()) {
      std::vector<std::uint32_t> out(n, 999);
      ops_for(level).popcount_rows(rows.data(), n, row_words, out.data());
      EXPECT_EQ(out, expect) << to_string(level) << " rw=" << row_words;
    }
  }
}

TEST(Simd, FuzzAllKernelsAllLevelsMisalignedStrides) {
  Xoshiro256ss rng(2026);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = rng.below(49);              // 0..48 rows
    const std::size_t row_words = 1 + rng.below(4);   // 1..4 words/row
    // Offset by one u64 so vector kernels see 8-mod-32 base addresses —
    // they must not assume 32/64-byte alignment.
    const std::size_t off = 1;
    std::vector<std::uint64_t> a(off + n * row_words);
    std::vector<std::uint64_t> b(off + n * row_words);
    for (std::size_t k = off; k < a.size(); ++k) {
      // Mix densities: some rows dense, some sparse, some zero.
      switch (rng.below(3)) {
        case 0: a[k] = rng() | rng(); break;
        case 1: a[k] = rng() & rng() & rng(); break;
        default: a[k] = 0; break;
      }
      b[k] = rng();
    }
    std::vector<std::uint64_t> anded(off + n * row_words);
    for (std::size_t k = 0; k < n * row_words; ++k) {
      anded[off + k] = a[off + k] & b[off + k];
    }
    std::vector<std::uint32_t> hints(n);
    for (auto& h : hints) {
      h = static_cast<std::uint32_t>(rng.below(row_words * 64));
    }

    std::vector<std::int32_t> pick_ref(n);
    std::vector<std::int32_t> pick_hint_ref(n);
    std::vector<std::uint32_t> pop_ref(n);
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint64_t* row = anded.data() + off + r * row_words;
      pick_ref[r] = ref_first_set(row, row_words);
      pick_hint_ref[r] = ref_first_set_hint(row, row_words, hints[r]);
      std::uint32_t count = 0;
      for (std::size_t k = 0; k < row_words; ++k) {
        count += static_cast<std::uint32_t>(__builtin_popcountll(row[k]));
      }
      pop_ref[r] = count;
    }

    for (Level level : supported_levels()) {
      const Ops& kernels = ops_for(level);
      std::vector<std::uint64_t> out(off + n * row_words, ~0ull);
      kernels.and_rows(a.data() + off, b.data() + off, out.data() + off,
                       n * row_words);
      ASSERT_TRUE(std::equal(out.begin() + static_cast<std::ptrdiff_t>(off),
                             out.end(),
                             anded.begin() + static_cast<std::ptrdiff_t>(off)))
          << to_string(level) << " iter " << iter;

      std::vector<std::int32_t> pick(n, 99);
      kernels.first_set_select(anded.data() + off, n, row_words, pick.data());
      ASSERT_EQ(pick, pick_ref) << to_string(level) << " iter " << iter;

      std::vector<std::int32_t> pick_hint(n, 99);
      kernels.first_set_select_hint(anded.data() + off, n, row_words,
                                    hints.data(), pick_hint.data());
      ASSERT_EQ(pick_hint, pick_hint_ref)
          << to_string(level) << " iter " << iter;

      std::vector<std::uint32_t> pop(n, 999);
      kernels.popcount_rows(anded.data() + off, n, row_words, pop.data());
      ASSERT_EQ(pop, pop_ref) << to_string(level) << " iter " << iter;
    }
  }
}

}  // namespace
}  // namespace ftsched::simd
