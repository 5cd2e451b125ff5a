// Differential oracle: a deliberately naive, line-by-line transcription of
// the paper's Fig. 7 pseudo-code — BitVec rows, explicit digit arithmetic,
// no LinkState fast paths, no transactions — run against the production
// LevelwiseScheduler on randomized trees, pre-occupied states and
// workloads. Any divergence in grants, ports, or final availability is a
// bug in one of them; since the reference is too simple to be wrong in the
// same way, this catches optimization bugs in the word-level AND/find-first
// paths, the σ/δ propagation, and the release bookkeeping.
#include <gtest/gtest.h>

#include <map>

#include "core/levelwise_scheduler.hpp"
#include "util/bitvec.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

/// Naive availability store: one BitVec per (level, switch) per direction.
struct NaiveState {
  explicit NaiveState(const FatTree& tree) {
    for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
      ulink.emplace_back();
      dlink.emplace_back();
      for (std::uint64_t sw = 0; sw < tree.switches_at(h); ++sw) {
        ulink[h].push_back(BitVec(tree.parent_arity(), true));
        dlink[h].push_back(BitVec(tree.parent_arity(), true));
      }
    }
  }
  std::vector<std::vector<BitVec>> ulink;
  std::vector<std::vector<BitVec>> dlink;
};

struct NaiveOutcome {
  bool granted = false;
  DigitVec ports;
};

/// Fig. 7, literally: level-major, first available port, no rollback of
/// rejected requests' lower allocations during the batch (we release them
/// afterwards to mirror the production default release_rejected = true).
std::vector<NaiveOutcome> naive_levelwise(const FatTree& tree,
                                          const std::vector<Request>& batch,
                                          NaiveState& state) {
  struct Track {
    bool alive = false;
    bool granted = false;
    std::uint64_t sigma = 0;
    std::uint64_t delta = 0;
    std::uint32_t ancestor = 0;
    DigitVec ports;
    std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t,
                           std::uint32_t>>
        held;
  };
  std::vector<Track> tracks(batch.size());
  std::vector<bool> src_used(tree.node_count(), false);
  std::vector<bool> dst_used(tree.node_count(), false);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& r = batch[i];
    if (src_used[r.src] || dst_used[r.dst]) continue;  // leaf busy
    src_used[r.src] = true;
    dst_used[r.dst] = true;
    Track& t = tracks[i];
    t.sigma = tree.leaf_switch(r.src).index;
    t.delta = tree.leaf_switch(r.dst).index;
    t.ancestor = tree.common_ancestor_level(t.sigma, t.delta);
    if (t.ancestor == 0) {
      t.granted = true;
    } else {
      t.alive = true;
    }
  }

  for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
    for (Track& t : tracks) {
      if (!t.alive || t.ancestor <= h) continue;
      // avail_links = Ulink(h, σ_h) AND Dlink(h, δ_h)   (Fig. 7 line 3)
      BitVec avail = state.ulink[h][t.sigma];
      avail &= state.dlink[h][t.delta];
      const auto port = avail.find_first();
      if (!port) {
        t.alive = false;  // unschedulable at this level
        continue;
      }
      const auto p = static_cast<std::uint32_t>(*port);
      state.ulink[h][t.sigma].reset(*port);   // lines 7-8
      state.dlink[h][t.delta].reset(*port);
      t.held.emplace_back(h, t.sigma, t.delta, p);
      t.ports.push_back(p);
      t.sigma = tree.ascend(h, t.sigma, p);   // the σ/δ update of line 8
      t.delta = tree.ascend(h, t.delta, p);
      if (t.ports.size() == t.ancestor) {
        t.alive = false;
        t.granted = true;
      }
    }
  }

  // Post-batch release of rejected requests' partial allocations.
  std::vector<NaiveOutcome> outcomes(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Track& t = tracks[i];
    outcomes[i].granted = t.granted;
    if (t.granted) {
      outcomes[i].ports = t.ports;
    } else {
      for (const auto& [h, sigma, delta, p] : t.held) {
        state.ulink[h][sigma].set(p);
        state.dlink[h][delta].set(p);
      }
    }
  }
  return outcomes;
}

struct Shape {
  std::uint32_t levels;
  std::uint32_t m;
  std::uint32_t w;
};

class ReferenceDiffTest : public testing::TestWithParam<Shape> {};

TEST_P(ReferenceDiffTest, ProductionMatchesNaiveReferenceExactly) {
  const Shape shape = GetParam();
  const FatTree tree =
      FatTree::create(FatTreeParams{shape.levels, shape.m, shape.w}).value();
  Xoshiro256ss rng(0xd1ff);

  for (int round = 0; round < 20; ++round) {
    // Random pre-occupied channels (both engines get the same set).
    LinkState fast(tree);
    NaiveState slow(tree);
    for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
      for (std::uint64_t sw = 0; sw < tree.switches_at(h); ++sw) {
        for (std::uint32_t p = 0; p < tree.parent_arity(); ++p) {
          if (rng.below(8) == 0) {
            fast.set_ulink(h, sw, p, false);
            slow.ulink[h][sw].reset(p);
          }
          if (rng.below(8) == 0) {
            fast.set_dlink(h, sw, p, false);
            slow.dlink[h][sw].reset(p);
          }
        }
      }
    }

    const auto batch = random_permutation(tree.node_count(), rng);
    LevelwiseScheduler production;  // first-fit, level-major, release
    const ScheduleResult fast_result = production.schedule(tree, batch, fast);
    const auto slow_result = naive_levelwise(tree, batch, slow);

    ASSERT_EQ(fast_result.outcomes.size(), slow_result.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(fast_result.outcomes[i].granted, slow_result[i].granted)
          << "round " << round << " request " << i;
      if (slow_result[i].granted) {
        ASSERT_EQ(fast_result.outcomes[i].path.ports, slow_result[i].ports)
            << "round " << round << " request " << i;
      }
    }

    // Final availability must agree bit for bit.
    for (std::uint32_t h = 0; h + 1 < tree.levels(); ++h) {
      for (std::uint64_t sw = 0; sw < tree.switches_at(h); ++sw) {
        for (std::uint32_t p = 0; p < tree.parent_arity(); ++p) {
          ASSERT_EQ(fast.ulink(h, sw, p), slow.ulink[h][sw].test(p))
              << "u " << h << "/" << sw << "/" << p;
          ASSERT_EQ(fast.dlink(h, sw, p), slow.dlink[h][sw].test(p))
              << "d " << h << "/" << sw << "/" << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReferenceDiffTest,
    testing::Values(Shape{2, 4, 4}, Shape{2, 8, 8}, Shape{3, 4, 4},
                    Shape{3, 6, 6}, Shape{4, 3, 3}, Shape{3, 4, 2},
                    Shape{3, 2, 4},
                    // Multi-word rows: w = 65 spills one port into a second
                    // word; w = 96 is the wide-batch benchmark's width.
                    Shape{2, 65, 65}, Shape{2, 96, 96}),
    [](const testing::TestParamInfo<Shape>& param_info) {
      return "FT_l" + std::to_string(param_info.param.levels) + "_m" +
             std::to_string(param_info.param.m) + "_w" +
             std::to_string(param_info.param.w);
    });

}  // namespace
}  // namespace ftsched
