#include "core/path_count.hpp"

namespace ftsched {

namespace {

std::uint64_t count_from(const FatTree& tree, const LinkState& state,
                         std::uint32_t level, std::uint32_t ancestor,
                         std::uint64_t sigma, std::uint64_t delta) {
  if (level == ancestor) return 1;
  std::uint64_t total = 0;
  for (std::uint32_t port = state.first_available_port(level, sigma, delta);
       port != LinkState::kNoPort;
       port = state.next_available_port(level, sigma, delta, port + 1)) {
    total += count_from(tree, state, level + 1, ancestor,
                        tree.ascend(level, sigma, port),
                        tree.ascend(level, delta, port));
  }
  return total;
}

}  // namespace

std::uint64_t count_free_paths(const FatTree& tree, const LinkState& state,
                               NodeId src, NodeId dst) {
  FT_REQUIRE(src < tree.node_count());
  FT_REQUIRE(dst < tree.node_count());
  const std::uint64_t src_leaf = tree.leaf_switch(src).index;
  const std::uint64_t dst_leaf = tree.leaf_switch(dst).index;
  const std::uint32_t ancestor =
      tree.common_ancestor_level(src_leaf, dst_leaf);
  return count_from(tree, state, 0, ancestor, src_leaf, dst_leaf);
}

}  // namespace ftsched
