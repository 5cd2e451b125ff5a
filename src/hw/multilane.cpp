#include "hw/multilane.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "core/scheduler.hpp"
#include "hw/link_memory.hpp"
#include "linkstate/link_state.hpp"

namespace ftsched {

MultilanePipeline::MultilanePipeline(const FatTree& tree,
                                     MultilaneOptions options)
    : tree_(tree), options_(options) {
  FT_REQUIRE(tree.levels() >= 2);
  FT_REQUIRE(tree.parent_arity() <= 64);
  FT_REQUIRE(options_.lanes >= 1);
}

namespace {

struct LaneState {
  bool valid = false;
  bool alive = false;
  std::size_t request_index = 0;
  std::uint64_t sigma = 0;
  std::uint64_t delta = 0;
  std::uint32_t ancestor = 0;
  DigitVec ports;
};

}  // namespace

MultilaneReport MultilanePipeline::schedule(
    std::span<const Request> requests) {
  MultilaneReport report;
  report.result.outcomes.resize(requests.size());
  LeafTracker leaves(tree_.node_count());

  // Admission front-end, shared with the single-lane pipeline's semantics.
  std::vector<LaneState> stream;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = report.result.outcomes[i];
    out.path.src = r.src;
    out.path.dst = r.dst;
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      continue;
    }
    LaneState lane;
    lane.valid = true;
    lane.alive = true;
    lane.request_index = i;
    lane.sigma = tree_.leaf_switch(r.src).index;
    lane.delta = tree_.leaf_switch(r.dst).index;
    lane.ancestor = tree_.common_ancestor_level(lane.sigma, lane.delta);
    stream.push_back(lane);
  }

  const std::uint32_t stages = tree_.levels() - 1;
  const std::uint32_t K = options_.lanes;
  const std::uint32_t banks = options_.banks == 0 ? K : options_.banks;
  const std::size_t beat_count = (stream.size() + K - 1) / K;
  report.beats = beat_count;
  report.single_lane_cycles =
      stream.empty() ? 0 : stream.size() + stages - 1;

  // Functional pass: lane order within a beat preserves the global request
  // order, so this is exactly the level-major no-rollback algorithm. The
  // service time of each (beat, stage) is accumulated from bank conflicts.
  LinkState memory(tree_);
  std::vector<std::vector<std::uint64_t>> service(
      beat_count, std::vector<std::uint64_t>(stages, 1));

  for (std::uint32_t h = 0; h < stages; ++h) {
    for (std::size_t b = 0; b < beat_count; ++b) {
      // Per-memory, per-bank sets of DISTINCT rows touched this beat: lanes
      // hitting the same row share one access (read broadcast + in-beat
      // write bypass, the cascaded-allocator structure); only distinct rows
      // mapping to the same bank serialize.
      std::map<std::uint64_t, std::set<std::uint64_t>> u_bank;
      std::map<std::uint64_t, std::set<std::uint64_t>> d_bank;
      for (std::uint32_t lane = 0; lane < K; ++lane) {
        const std::size_t idx = b * K + lane;
        if (idx >= stream.size()) break;
        LaneState& s = stream[idx];
        if (!s.valid || !s.alive || s.ancestor <= h) continue;

        u_bank[s.sigma % banks].insert(s.sigma);
        d_bank[s.delta % banks].insert(s.delta);

        const std::uint32_t port =
            memory.first_available_port(h, s.sigma, s.delta);
        if (port == LinkState::kNoPort) {
          s.alive = false;
          RequestOutcome& out = report.result.outcomes[s.request_index];
          out.reason = RejectReason::kNoCommonPort;
          out.fail_level = h;
          continue;
        }
        memory.occupy(h, s.sigma, s.delta, port);
        s.ports.push_back(port);
        s.sigma = tree_.ascend(h, s.sigma, port);
        s.delta = tree_.ascend(h, s.delta, port);
      }
      std::uint64_t worst = 1;
      for (const auto& [bank, rows] : u_bank) {
        worst = std::max<std::uint64_t>(worst, rows.size());
      }
      for (const auto& [bank, rows] : d_bank) {
        worst = std::max<std::uint64_t>(worst, rows.size());
      }
      service[b][h] = worst;
      report.bank_stall_cycles += worst - 1;
    }
  }

  // Drain: grants and leaf releases for the in-flight rejects.
  for (const LaneState& s : stream) {
    if (!s.valid) continue;
    RequestOutcome& out = report.result.outcomes[s.request_index];
    if (s.alive) {
      out.granted = true;
      out.path.ancestor_level = s.ancestor;
      out.path.ports = s.ports;
    } else {
      leaves.release(requests[s.request_index].src,
                     requests[s.request_index].dst);
    }
  }

  // Lockstep timing: each beat advances at its slowest stage.
  for (std::size_t b = 0; b < beat_count; ++b) {
    std::uint64_t worst = 1;
    for (std::uint32_t h = 0; h < stages; ++h) {
      worst = std::max(worst, service[b][h]);
    }
    report.cycles += worst;
  }
  if (beat_count > 0) report.cycles += stages - 1;
  return report;
}

}  // namespace ftsched
