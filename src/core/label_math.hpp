// Shared Theorem-1 label arithmetic for the scheduler hot paths.
//
// Every scheduler family walks the same mixed-radix label space: a switch at
// level h is labelled σ_h = Pval_h + w^h·⌊leaf/m^h⌋, where Pval_h is the
// value of the already-chosen port-digit prefix P_{h-1}…P_0 (base w) and the
// tail is the leaf's remaining base-m digits. These helpers let the hot loops
// carry (Pval, leaf_rest) incrementally —
//   Pval ← port + w·Pval,  rest ← rest / m
// — instead of calling FatTree::ascend / side_switch, which decompose and
// recompose the full digit vector per hop. The identities are exercised
// head-to-head against the FatTree walkers by the reference-diff tests.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "topology/fat_tree.hpp"
#include "util/bitvec.hpp"
#include "util/contracts.hpp"

namespace ftsched {

/// wpow[h] = parent_arity^h for h in [0, tree.levels()] — the weight of the
/// leaf-rest tail in a level-h label.
inline std::array<std::uint64_t, kMaxTreeLevels + 1> parent_arity_powers(
    const FatTree& tree) {
  std::array<std::uint64_t, kMaxTreeLevels + 1> wpow{};
  wpow[0] = 1;
  for (std::uint32_t h = 0; h < tree.levels(); ++h) {
    wpow[h + 1] = wpow[h] * tree.parent_arity();
  }
  return wpow;
}

/// Lowest level at which two leaf switches share an ancestor: the number of
/// base-m truncations until the labels coincide. Division-only equivalent of
/// FatTree::common_ancestor_level (which decomposes both labels).
inline std::uint32_t meet_level(std::uint64_t leaf_a, std::uint64_t leaf_b,
                                std::uint64_t m) {
  std::uint32_t level = 0;
  while (leaf_a != leaf_b) {
    ++level;
    leaf_a /= m;
    leaf_b /= m;
  }
  return level;
}

/// Division by the loop-invariant child arity m, strength-reduced once per
/// batch. The label shift divides the source/destination remainders by m
/// twice per request per level, and admission divides each PE id by m for
/// its leaf switch; the compiler cannot strength-reduce a runtime divisor,
/// so on power-of-two grids (every symmetric w = 8/16/64 configuration) each
/// `div r64` here becomes a shift. m >= 2, as FatTree requires: with m = 1
/// no label ever truncates, so two distinct labels would never meet.
class ChildDivider {
 public:
  explicit ChildDivider(std::uint64_t m) : m_(m) {
    FT_REQUIRE(m >= 2);
    if ((m & (m - 1)) == 0) {
      shift_ = static_cast<std::uint32_t>(bits::find_first_word(m));
      for (std::uint32_t width = 0; width < meet_by_width_.size(); ++width) {
        meet_by_width_[width] =
            static_cast<std::uint8_t>((width + shift_ - 1) / shift_);
      }
    }
  }

  std::uint64_t divisor() const { return m_; }

  std::uint64_t operator()(std::uint64_t x) const {
    return shift_ != 0 ? x >> shift_ : x / m_;
  }

  /// meet_level with the same strength reduction: for power-of-two m
  /// the truncation count is how many shift_-wide digit groups the XOR of
  /// the labels spans, ⌈bit_width / shift_⌉ — read from a table filled at
  /// construction, so no loop and no divide.
  std::uint32_t meet(std::uint64_t leaf_a, std::uint64_t leaf_b) const {
    if (shift_ != 0) {
      return meet_by_width_[std::bit_width(leaf_a ^ leaf_b)];
    }
    return meet_level(leaf_a, leaf_b, m_);
  }

 private:
  std::uint64_t m_;
  std::uint32_t shift_ = 0;  ///< log2(m) for power-of-two m, else 0
  /// ⌈width / shift_⌉ for every XOR bit width 0…64 (power-of-two m only).
  std::array<std::uint8_t, 65> meet_by_width_{};
};

}  // namespace ftsched
