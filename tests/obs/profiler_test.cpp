// ProfileSession attribution contract: mark-based self-time accounting must
// reconcile exactly (total == Σ slot.self + unattributed), survive nesting
// and reentrancy, drop marks outside an accounting window, merge shards
// losslessly, and emit JSONL that parses. All tests run on the forced timer
// backend so they hold on PMU-less CI boxes; the accounting arithmetic is
// backend-independent (same PerfSample deltas either way).
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ftsched::obs {
namespace {

/// total == Σ slots.self + unattributed, field by field, EXACTLY — the
/// "where did every nanosecond go" invariant the report leans on.
void expect_reconciled(const ProfileSession& session) {
  PerfSample attributed;
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    for (const ProfileSlot& slot :
         session.slots(static_cast<ProfilePhase>(p))) {
      attributed += slot.self;
    }
  }
  EXPECT_EQ(session.total(), attributed + session.unattributed());
}

std::uint64_t burn() {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 50000; ++i) acc += i ^ (i << 3);
  static volatile std::uint64_t sink = 0;
  sink = sink + acc;
  return sink;
}

TEST(ProfileSession, NestedRegionsYieldSelfTimeThatReconciles) {
  ProfileSession session(PerfCounters::Request::kTimer);
  session.open();
  EXPECT_EQ(session.backend(), PerfBackend::kTimer);

  session.begin_batch();
  {
    ProfileRegion pick(&session, ProfilePhase::kPortPick, 2);
    burn();
    {
      ProfileRegion inner(&session, ProfilePhase::kAnd, 2);
      burn();
    }
    burn();
  }
  {
    ProfileRegion commit(&session, ProfilePhase::kCommit, 0);
    burn();
    {
      ProfileRegion rollback(&session, ProfilePhase::kRollback, 0);
      burn();
    }
  }
  session.end_batch(64);

  EXPECT_EQ(session.batches(), 1u);
  EXPECT_EQ(session.requests(), 64u);
  EXPECT_GT(session.total().wall_ns, 0u);
  EXPECT_EQ(session.phase_total(ProfilePhase::kPortPick).entries, 1u);
  EXPECT_EQ(session.phase_total(ProfilePhase::kAnd).entries, 1u);
  EXPECT_EQ(session.phase_total(ProfilePhase::kCommit).entries, 1u);
  EXPECT_EQ(session.phase_total(ProfilePhase::kRollback).entries, 1u);
  // Level placement: the pick landed at level 2, the commit at level 0.
  ASSERT_EQ(session.slots(ProfilePhase::kPortPick).size(), 3u);
  EXPECT_EQ(session.slots(ProfilePhase::kPortPick)[2].entries, 1u);
  // Every region burned real time, so every slot holds nonzero self-time.
  EXPECT_GT(session.slots(ProfilePhase::kPortPick)[2].self.wall_ns, 0u);
  EXPECT_GT(session.phase_total(ProfilePhase::kAnd).self.wall_ns, 0u);
  expect_reconciled(session);
}

TEST(ProfileSession, ReentrantSamePhaseNestingNeedsNoSpecialCase) {
  ProfileSession session(PerfCounters::Request::kTimer);
  session.open();
  session.begin_batch();
  {
    ProfileRegion outer(&session, ProfilePhase::kLabel, 1);
    burn();
    {
      ProfileRegion inner(&session, ProfilePhase::kLabel, 1);
      burn();
      {
        ProfileRegion innermost(&session, ProfilePhase::kLabel, 1);
        burn();
      }
    }
  }
  session.end_batch(1);
  EXPECT_EQ(session.phase_total(ProfilePhase::kLabel).entries, 3u);
  expect_reconciled(session);
}

TEST(ProfileSession, MarksOutsideAWindowAreDropped) {
  ProfileSession session(PerfCounters::Request::kTimer);
  session.open();
  {
    // Workload generation / verification happens outside begin/end_batch —
    // none of it may pollute the scheduler's totals.
    ProfileRegion stray(&session, ProfilePhase::kAdmission, 0);
    burn();
  }
  EXPECT_EQ(session.marks(), 0u);
  EXPECT_EQ(session.total(), PerfSample{});
  EXPECT_EQ(session.phase_total(ProfilePhase::kAdmission).entries, 0u);

  session.begin_batch();
  session.end_batch(8);
  // The empty window still accounts its tail delta to unattributed.
  EXPECT_EQ(session.requests(), 8u);
  expect_reconciled(session);
}

TEST(ProfileSession, NullRegionIsInert) {
  // The detached scheduler passes nullptr; the region must not touch
  // anything (this is the zero-cost discipline the identity test relies on).
  ProfileRegion detached(nullptr, ProfilePhase::kPortPick, 1);
}

TEST(ProfileSession, MergeFoldsShardsSlotBySlot) {
  ProfileSession a(PerfCounters::Request::kTimer);
  a.open();
  a.begin_batch();
  {
    ProfileRegion r(&a, ProfilePhase::kPortPick, 1);
    burn();
  }
  a.end_batch(10);
  a.close();

  ProfileSession b(PerfCounters::Request::kTimer);
  b.open();
  b.begin_batch();
  {
    ProfileRegion r(&b, ProfilePhase::kPortPick, 1);
    burn();
  }
  {
    ProfileRegion r(&b, ProfilePhase::kAnd, 3);
    burn();
  }
  b.end_batch(22);
  b.close();

  ProfileSession merged;
  merged.merge_from(a);
  merged.merge_from(b);
  EXPECT_EQ(merged.backend(), PerfBackend::kTimer);
  EXPECT_EQ(merged.batches(), 2u);
  EXPECT_EQ(merged.requests(), 32u);
  EXPECT_EQ(merged.marks(), a.marks() + b.marks());
  EXPECT_EQ(merged.total(), a.total() + b.total());
  EXPECT_EQ(merged.phase_total(ProfilePhase::kPortPick).entries, 2u);
  EXPECT_EQ(merged.phase_total(ProfilePhase::kAnd).entries, 1u);
  ASSERT_EQ(merged.slots(ProfilePhase::kAnd).size(), 4u);
  EXPECT_EQ(merged.slots(ProfilePhase::kAnd)[3].entries, 1u);
  expect_reconciled(merged);
}

TEST(ProfileSession, ResetClearsEverything) {
  ProfileSession session(PerfCounters::Request::kTimer);
  session.open();
  session.begin_batch();
  {
    ProfileRegion r(&session, ProfilePhase::kCommit, 0);
    burn();
  }
  session.end_batch(5);
  session.reset();
  EXPECT_EQ(session.total(), PerfSample{});
  EXPECT_EQ(session.marks(), 0u);
  EXPECT_EQ(session.batches(), 0u);
  EXPECT_EQ(session.requests(), 0u);
  EXPECT_TRUE(session.slots(ProfilePhase::kCommit).empty());
}

TEST(ProfileSession, ExportMetricsRegistersBackendAndDerivedGauges) {
  ProfileSession session(PerfCounters::Request::kTimer);
  session.open();
  session.begin_batch();
  {
    ProfileRegion r(&session, ProfilePhase::kPortPick, 1);
    burn();
  }
  session.end_batch(100);

  MetricsRegistry registry;
  session.export_metrics(registry);
  EXPECT_EQ(registry.gauge("profile.backend").value(), 0.0);  // timer
  EXPECT_GT(registry.gauge("profile.wall_ns_per_request").value(), 0.0);
  EXPECT_EQ(registry.gauge("profile.ipc").value(), 0.0);  // no cycles counted
  EXPECT_EQ(registry.counter("profile.requests").value(), 100u);
  EXPECT_EQ(registry.counter("profile.batches").value(), 1u);
  EXPECT_GT(registry.counter("profile.phase.port_pick.entries").value(), 0u);
}

TEST(ProfileSession, JsonlLinesAndEmbeddedPointParseStrictly) {
  ProfileSession session(PerfCounters::Request::kTimer);
  session.open();
  session.begin_batch();
  {
    ProfileRegion r(&session, ProfilePhase::kPortPick, 1);
    burn();
  }
  session.end_batch(16);

  std::ostringstream header;
  ProfileSession::write_jsonl_header(header, "perf_scheduler",
                                     session.backend());
  std::string line = header.str();
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_TRUE(parse_json(line).ok());
  EXPECT_NE(line.find("\"type\":\"profile\""), std::string::npos);
  EXPECT_NE(line.find("\"version\":1"), std::string::npos);
  EXPECT_NE(line.find("\"env\":"), std::string::npos);

  std::ostringstream point;
  session.write_jsonl_point(point, "levelwise/l3w8");
  std::string point_line = point.str();
  ASSERT_EQ(point_line.back(), '\n');
  point_line.pop_back();
  EXPECT_TRUE(parse_json(point_line).ok());
  EXPECT_NE(point_line.find("\"type\":\"point\""), std::string::npos);
  EXPECT_NE(point_line.find("\"label\":\"levelwise/l3w8\""),
            std::string::npos);

  std::ostringstream bare;
  session.write_point_json(bare, "levelwise/l3w8");
  EXPECT_TRUE(parse_json(bare.str()).ok());
  EXPECT_NE(bare.str().find("\"derived\":"), std::string::npos);
  EXPECT_NE(bare.str().find("\"phases\":["), std::string::npos);
}

TEST(ProfileSession, PhaseNamesAreStableSchema) {
  EXPECT_EQ(to_string(ProfilePhase::kAdmission), "admission");
  EXPECT_EQ(to_string(ProfilePhase::kAnd), "and");
  EXPECT_EQ(to_string(ProfilePhase::kPortPick), "port_pick");
  EXPECT_EQ(to_string(ProfilePhase::kLabel), "label");
  EXPECT_EQ(to_string(ProfilePhase::kCommit), "commit");
  EXPECT_EQ(to_string(ProfilePhase::kRollback), "rollback");
}

}  // namespace
}  // namespace ftsched::obs
