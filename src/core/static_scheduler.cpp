#include "core/static_scheduler.hpp"

#include <array>

#include "core/label_math.hpp"
#include "linkstate/transaction.hpp"

namespace ftsched {

DigitVec StaticDestinationScheduler::static_ports(const FatTree& tree,
                                                  NodeId dst,
                                                  std::uint32_t ancestor) {
  FT_REQUIRE(dst < tree.node_count());
  FT_REQUIRE(ancestor <= tree.levels());
  // P_h = (dst / m^h) mod m, peeled digit by digit — no MixedRadix needed.
  const std::uint64_t m = tree.child_arity();
  std::uint64_t rest = dst;
  DigitVec ports;
  for (std::uint32_t h = 0; h < ancestor; ++h) {
    ports.push_back(static_cast<std::uint32_t>(rest % m));
    rest /= m;
  }
  return ports;
}

ScheduleResult StaticDestinationScheduler::schedule(
    const FatTree& tree, std::span<const Request> requests, LinkState& state) {
  FT_REQUIRE(tree.parent_arity() >= tree.child_arity());
  if (probe_) probe_->on_batch_begin(requests.size());
  obs::ScopedSpan batch_span(tracer_, name(), "sched.batch");
  ScheduleResult result;
  result.outcomes.resize(requests.size());
  LeafTracker leaves(tree.node_count());

  const std::uint64_t m = tree.child_arity();
  const std::uint64_t w = tree.parent_arity();
  const auto wpow = parent_arity_powers(tree);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    RequestOutcome& out = result.outcomes[i];
    out.path.src = r.src;
    out.path.dst = r.dst;
    if (!leaves.try_claim(r.src, r.dst)) {
      out.reason = RejectReason::kLeafBusy;
      continue;
    }
    const std::uint64_t src_leaf = tree.leaf_switch(r.src).index;
    const std::uint64_t dst_leaf = tree.leaf_switch(r.dst).index;
    const std::uint32_t H = meet_level(src_leaf, dst_leaf, m);
    if (H == 0) {
      out.granted = true;
      continue;
    }
    const DigitVec ports = static_ports(tree, r.dst, H);

    // The whole path is forced; only the up side can be contended (see
    // header: a down collision implies an identical destination PE).
    // δ_h = Pval_h + w^h·⌊dst/m^h⌋ is recorded during the ascent so the
    // descent never recomposes labels (same trick as the local scheduler).
    Transaction tx(state);
    bool rejected = false;
    std::uint64_t sigma = src_leaf;
    std::uint64_t pval = 0;
    std::uint64_t src_rest = src_leaf;
    std::uint64_t dst_rest = dst_leaf;
    std::array<std::uint64_t, kMaxTreeLevels> delta_at{};
    for (std::uint32_t h = 0; h < H; ++h) {
      delta_at[h] = pval + wpow[h] * dst_rest;
      if (!state.ulink(h, sigma, ports[h])) {
        out.reason = RejectReason::kNoCommonPort;
        out.fail_level = h;
        rejected = true;
        break;
      }
      tx.occupy_up(h, sigma, ports[h]);
      if (probe_) probe_->on_port_pick(h, ports[h]);
      pval = ports[h] + w * pval;
      src_rest /= m;
      dst_rest /= m;
      sigma = pval + wpow[h + 1] * src_rest;
    }
    if (!rejected) {
      for (std::uint32_t h = H; h-- > 0;) {
        const std::uint64_t delta = delta_at[h];
        // Among this scheduler's own circuits the channel is free by the
        // destination-uniqueness theorem; it can still be held externally
        // (pre-occupied state, faults), which is an honest rejection.
        if (!state.dlink(h, delta, ports[h])) {
          out.reason = RejectReason::kDownConflict;
          out.fail_level = h;
          rejected = true;
          break;
        }
        tx.occupy_down(h, delta, ports[h]);
      }
    }

    if (rejected) {
      leaves.release(r.src, r.dst);
      if (probe_) probe_->on_rollback(tx.size());
      // tx rolls back on destruction
    } else {
      out.granted = true;
      out.path.ancestor_level = H;
      out.path.ports = ports;
      tx.commit();
    }
  }
  if (probe_) record_outcomes(result);
  return result;
}

}  // namespace ftsched
