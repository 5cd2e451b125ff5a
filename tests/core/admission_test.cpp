// Admission contracts shared by the schedulers: the leaf-channel tracker
// (which owns the PE-id bounds check, so an out-of-range id aborts before
// anything is written) and ChildDivider, the strength-reduced m-division
// admission and the label shift use in place of FatTree::leaf_switch and
// meet_level.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/label_math.hpp"
#include "core/registry.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace ftsched {
namespace {

TEST(LeafTracker, ClaimsEachChannelOnce) {
  LeafTracker leaves(4);
  EXPECT_TRUE(leaves.can_claim(0, 1));
  EXPECT_TRUE(leaves.try_claim(0, 1));
  EXPECT_FALSE(leaves.can_claim(0, 2));  // injection channel of 0 taken
  EXPECT_FALSE(leaves.try_claim(3, 1));  // ejection channel of 1 taken
  EXPECT_TRUE(leaves.try_claim(1, 0));   // the reverse pair is independent
  leaves.release(0, 1);
  EXPECT_TRUE(leaves.try_claim(3, 1));
  leaves.reset();
  EXPECT_TRUE(leaves.try_claim(1, 0));
}

TEST(LeafTrackerDeathTest, OutOfRangeIdsAbort) {
  LeafTracker leaves(4);
  EXPECT_DEATH((void)leaves.try_claim(0, 4), "precondition");
  EXPECT_DEATH((void)leaves.try_claim(4, 0), "precondition");
  EXPECT_DEATH((void)leaves.can_claim(0, 4), "precondition");
  EXPECT_DEATH(leaves.release(4, 0), "precondition");
}

class SchedulerAdmissionDeathTest
    : public testing::TestWithParam<const char*> {};

std::string scheduler_case_name(
    const testing::TestParamInfo<const char*>& param) {
  std::string name = param.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// A PE id one past the last node must trip the tracker's bounds check —
// the first thing every scheduler's admission does — and never reach a
// write into the tracker's or the scheduler's per-node state.
TEST_P(SchedulerAdmissionDeathTest, OutOfRangePeIdAborts) {
  const FatTree tree = FatTree::symmetric(2, 4);
  LinkState state(tree);
  auto scheduler = make_scheduler(GetParam());
  ASSERT_TRUE(scheduler.ok()) << scheduler.message();
  const std::vector<Request> bad_dst{{0, tree.node_count()}};
  EXPECT_DEATH((void)scheduler.value()->schedule(tree, bad_dst, state),
               "precondition");
  const std::vector<Request> bad_src{{tree.node_count(), 0}};
  EXPECT_DEATH((void)scheduler.value()->schedule(tree, bad_src, state),
               "precondition");
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, SchedulerAdmissionDeathTest,
    testing::Values("levelwise", "levelwise-reqmajor", "local", "turnback",
                    "matching2"),
    scheduler_case_name);

TEST(ChildDivider, DividesLikeTheRuntimeDivisor) {
  Xoshiro256ss rng(0xd1d1);
  for (const std::uint64_t m : {2u, 3u, 4u, 8u, 16u, 64u}) {
    const ChildDivider divm(m);
    EXPECT_EQ(divm.divisor(), m);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t x = rng();
      ASSERT_EQ(divm(x), x / m) << "m=" << m << " x=" << x;
    }
  }
}

TEST(ChildDivider, MeetMatchesMeetLevel) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Xoshiro256ss rng(0x3ee7);
  for (const std::uint64_t m : {2u, 3u, 4u, 8u, 16u, 64u}) {
    const ChildDivider divm(m);
    const auto check = [&](std::uint64_t a, std::uint64_t b) {
      ASSERT_EQ(divm.meet(a, b), meet_level(a, b, m))
          << "m=" << m << " a=" << a << " b=" << b;
    };
    // Fixed edges: equal labels, neighbours, and XOR widths 1 … 64 (width 64
    // reads the table's last entry).
    check(0, 0);
    check(kMax, kMax);
    check(0, kMax);
    for (std::uint32_t bit = 0; bit < 64; ++bit) {
      check(0, std::uint64_t{1} << bit);
      check((std::uint64_t{1} << bit) - 1, std::uint64_t{1} << bit);
    }
    // Seeded sweep: full-width labels, and labels from a small tree-sized
    // range where most pairs meet at a low level.
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t a = rng();
      check(a, rng());
      check(a, a ^ (rng() & 0xff));
      check(rng.below(4096), rng.below(4096));
    }
  }
}

TEST(ChildDividerDeathTest, UnitArityAborts) {
  // m = 1 never truncates a label, so meet() on two distinct labels would
  // never return; the divider refuses it up front, as FatTree does. m = 0
  // would divide by zero.
  for (const std::uint64_t m : {0u, 1u}) {
    EXPECT_DEATH(
        {
          const ChildDivider divm(m);
          static_cast<void>(divm(m));
        },
        "precondition")
        << "m=" << m;
  }
}

}  // namespace
}  // namespace ftsched
