// Reproduces the paper's two worked examples, step by step:
//
//   * Figure 4 — two requests into leaf switch 8 of an FT(3,4). With local
//     information only, both greedily take up-port 0 and collide on the
//     destination side; with global information the level-wise scheduler
//     assigns distinct ports and grants both.
//   * Figure 8 — the FT(4,4) trace for node 3 -> node 95 with
//     Ulink(1, σ1)[0] pre-occupied, selecting P = (0, 1, 0).
//
// Run with --dot to also print the 16-node FT(2,4) of Figure 1(b) in
// Graphviz format.
#include <iostream>
#include <string_view>

#include "core/levelwise_scheduler.hpp"
#include "core/local_scheduler.hpp"
#include "topology/dot.hpp"
#include "topology/path.hpp"

using namespace ftsched;

namespace {

void print_outcome(std::string_view label, const ScheduleResult& result) {
  std::cout << "  " << label << ":\n";
  for (const RequestOutcome& out : result.outcomes) {
    if (out.granted) {
      std::cout << "    GRANTED  " << to_string(out.path) << "\n";
    } else {
      std::cout << "    REJECTED node " << out.path.src << " -> node "
                << out.path.dst << "  (" << to_string(out.reason)
                << " at level " << out.fail_level << ")\n";
    }
  }
}

void figure4() {
  std::cout << "=== Figure 4: local vs global routing information ===\n";
  const FatTree tree = FatTree::symmetric(3, 4);
  const std::vector<Request> batch{
      {tree.node_at(0, 0), tree.node_at(8, 0)},   // SW(0,0) -> SW(0,8)
      {tree.node_at(1, 0), tree.node_at(8, 1)}};  // SW(0,1) -> SW(0,8)
  std::cout << "  two requests target leaf switch 8 simultaneously\n";

  LinkState local_state(tree);
  LocalAdaptiveScheduler local;
  print_outcome("local greedy (Fig. 4a)", local.schedule(tree, batch,
                                                         local_state));

  LinkState global_state(tree);
  LevelwiseScheduler global;
  print_outcome("level-wise (Fig. 4b)", global.schedule(tree, batch,
                                                        global_state));
  std::cout << "\n";
}

void figure8() {
  std::cout << "=== Figure 8: level-wise trace, node 3 -> node 95 ===\n";
  const FatTree tree = FatTree::symmetric(4, 4);
  LinkState state(tree);

  const std::uint64_t src_leaf = tree.leaf_switch(3).index;
  const std::uint64_t dst_leaf = tree.leaf_switch(95).index;
  std::cout << "  source switch SW(0," << src_leaf << ") = (0,000)\n";
  std::cout << "  destination switch SW(0," << dst_leaf << ") = (0,113)\n";
  const std::uint32_t ancestor =
      tree.common_ancestor_level(src_leaf, dst_leaf);
  std::cout << "  common ancestor at level " << ancestor << "\n";

  // The paper's step-2 premise: Ulink(1, σ1)[0] is occupied.
  const std::uint64_t sigma1 = tree.ascend(0, src_leaf, 0);
  state.set_ulink(1, sigma1, 0, false);
  std::cout << "  premise: Ulink(1," << sigma1 << ")[0] = 0 (occupied)\n";

  // Walk the selection manually, printing each AND row decision.
  std::uint64_t sigma = src_leaf;
  std::uint64_t delta = dst_leaf;
  DigitVec ports;
  for (std::uint32_t h = 0; h < ancestor; ++h) {
    const std::uint32_t port = state.first_available_port(h, sigma, delta);
    std::cout << "  level " << h << ": sigma=" << sigma << " delta=" << delta
              << " -> P" << h << " = " << port << "\n";
    state.occupy(h, sigma, delta, port);
    ports.push_back(port);
    sigma = tree.ascend(h, sigma, port);
    delta = tree.ascend(h, delta, port);
  }
  const Path path{3, 95, ancestor, ports};
  std::cout << "  complete circuit: " << to_string(path) << "\n";
  std::cout << "  traversal:";
  for (const SwitchId& sw : expand_path(tree, path).switches) {
    std::cout << " " << to_string(sw);
  }
  std::cout << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  figure4();
  figure8();
  if (argc > 1 && std::string_view(argv[1]) == "--dot") {
    std::cout << "=== Figure 1(b): 16-node two-level fat tree (DOT) ===\n";
    export_dot(FatTree::symmetric(2, 4), std::cout);
  }
  return 0;
}
