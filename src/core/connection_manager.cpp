#include "core/connection_manager.hpp"

#include "linkstate/transaction.hpp"
#include "topology/path.hpp"

namespace ftsched {

ConnectionManager::ConnectionManager(const FatTree& tree, PortPolicy policy,
                                     std::uint64_t seed)
    : tree_(tree),
      policy_(policy),
      rng_(seed),
      state_(tree),
      leaves_(tree.node_count()) {}

std::optional<ConnectionId> ConnectionManager::open(const Request& request) {
  FT_REQUIRE(request.src < tree_.node_count());
  FT_REQUIRE(request.dst < tree_.node_count());
  if (!leaves_.try_claim(request.src, request.dst)) return std::nullopt;

  const std::uint64_t src_leaf = tree_.leaf_switch(request.src).index;
  const std::uint64_t dst_leaf = tree_.leaf_switch(request.dst).index;
  const std::uint32_t H = tree_.common_ancestor_level(src_leaf, dst_leaf);

  Path path{request.src, request.dst, H, {}};
  Transaction tx(state_);
  std::uint64_t sigma = src_leaf;
  std::uint64_t delta = dst_leaf;
  for (std::uint32_t h = 0; h < H; ++h) {
    std::uint32_t port = LinkState::kNoPort;
    switch (policy_) {
      case PortPolicy::kFirstFit:
      case PortPolicy::kRoundRobin:  // no persistent pointer in dynamic mode
        port = state_.first_available_port(h, sigma, delta);
        break;
      case PortPolicy::kRandom: {
        const std::uint32_t count =
            state_.available_port_count(h, sigma, delta);
        if (count > 0) {
          port = state_.nth_available_port(
              h, sigma, delta, static_cast<std::uint32_t>(rng_.below(count)));
        }
        break;
      }
      case PortPolicy::kBalanced:
      case PortPolicy::kBalancedRR:  // no persistent pointer in dynamic mode
        port = state_.balanced_port(h, sigma, delta);
        break;
      case PortPolicy::kBalancedRandom: {
        const std::uint32_t count = state_.balanced_port_count(h, sigma, delta);
        if (count > 0) {
          port = state_.nth_balanced_port(
              h, sigma, delta, static_cast<std::uint32_t>(rng_.below(count)));
        }
        break;
      }
    }
    if (port == LinkState::kNoPort) {
      leaves_.release(request.src, request.dst);
      return std::nullopt;  // tx rolls back the partial allocation
    }
    tx.occupy(h, sigma, delta, port);
    path.ports.push_back(port);
    sigma = tree_.ascend(h, sigma, port);
    delta = tree_.ascend(h, delta, port);
  }
  FT_ASSERT(sigma == delta);
  tx.commit();
  const ConnectionId id = next_id_++;
  connections_.emplace(id, path);
  return id;
}

BatchOpenResult ConnectionManager::open_batch(
    const std::vector<Request>& requests, Scheduler& scheduler,
    std::span<const std::uint64_t> request_ids) {
  BatchOpenResult out;
  out.schedule.outcomes.resize(requests.size());
  out.ids.assign(requests.size(), std::nullopt);
  const bool tracked =
      flight_ != nullptr && request_ids.size() == requests.size();

  // Pre-filter endpoints already held by open circuits: the scheduler's own
  // per-batch LeafTracker starts empty, so standing claims must be enforced
  // here. Intra-batch endpoint conflicts stay the scheduler's business.
  std::vector<Request> batch;
  std::vector<std::size_t> batch_index;
  std::vector<std::uint64_t> batch_flight_ids;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    FT_REQUIRE(r.src < tree_.node_count());
    FT_REQUIRE(r.dst < tree_.node_count());
    if (!leaves_.can_claim(r.src, r.dst)) {
      out.schedule.outcomes[i].granted = false;
      out.schedule.outcomes[i].reason = RejectReason::kLeafBusy;
      if (tracked) {
        // Pre-filtered requests never reach the scheduler (and thus the
        // probe), so their rejection is recorded here: admission-time
        // failure, level 0.
        FT_FLIGHT_EVENT(
            flight_,
            obs::FlightEvent::rejected(
                request_ids[i], flight_now_,
                static_cast<std::uint8_t>(RejectReason::kLeafBusy), 0));
      }
      continue;
    }
    batch.push_back(r);
    batch_index.push_back(i);
    if (tracked) batch_flight_ids.push_back(request_ids[i]);
  }

  // Arm the probe for exactly this batch: record_outcomes walks outcomes in
  // input order, so the id at the batch cursor is the id of the request
  // being reported — GRANTED/REJECTED events come out of the existing probe
  // seam without touching any scheduler.
  obs::SchedulerProbe* probe = scheduler.probe();
  const bool armed = tracked && probe != nullptr;
  if (armed) {
    probe->begin_flight_batch(batch_flight_ids.data(),
                              batch_flight_ids.size(), flight_now_);
  }
  ScheduleResult batch_result = scheduler.schedule(tree_, batch, state_);
  if (armed) probe->end_flight_batch();
  FT_REQUIRE(batch_result.outcomes.size() == batch.size());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const std::size_t i = batch_index[b];
    out.schedule.outcomes[i] = std::move(batch_result.outcomes[b]);
    if (!out.schedule.outcomes[i].granted) continue;
    const bool claimed = leaves_.try_claim(batch[b].src, batch[b].dst);
    FT_ASSERT(claimed);  // pre-filter + scheduler tracker guarantee this
    (void)claimed;
    const ConnectionId id = next_id_++;
    connections_.emplace(id, out.schedule.outcomes[i].path);
    out.ids[i] = id;
    if (tracked) flight_ids_.emplace(id, request_ids[i]);
  }
  return out;
}

Status ConnectionManager::close(ConnectionId id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return Status::error("unknown connection id " + std::to_string(id));
  }
  state_.release_path(tree_, it->second);
  leaves_.release(it->second.src, it->second.dst);
  connections_.erase(it);
  auto fit = flight_ids_.find(id);
  if (fit != flight_ids_.end()) {
    FT_FLIGHT_EVENT(flight_,
                    obs::FlightEvent::closed(fit->second, flight_now_));
    flight_ids_.erase(fit);
  }
  return Status();
}

void ConnectionManager::clear() {
  state_.reset();
  leaves_.reset();
  connections_.clear();
  flight_ids_.clear();  // mass teardown, not a lifecycle event
}

std::vector<Revocation> ConnectionManager::fail_cable(const CableId& cable) {
  // Mask the cable first: victim releases of its channels then park in the
  // fault shadow instead of re-advertising a dead link.
  state_.fail_cable(cable.level, cable.lower_index, cable.port);

  // connections_ is id-ordered, so victims come out in grant order and the
  // re-enqueue order is deterministic by construction.
  std::vector<Revocation> victims;
  for (const auto& [id, path] : connections_) {
    if (path_crosses_cable(tree_, path, cable)) {
      victims.push_back(Revocation{id, Request{path.src, path.dst}});
    }
  }
  for (const Revocation& v : victims) {
    auto it = connections_.find(v.id);
    state_.release_path(tree_, it->second);
    leaves_.release(v.request.src, v.request.dst);
    connections_.erase(it);
    auto fit = flight_ids_.find(v.id);
    if (fit != flight_ids_.end()) {
      FT_FLIGHT_EVENT(flight_,
                      obs::FlightEvent::revoked(
                          fit->second, flight_now_,
                          static_cast<std::uint8_t>(cable.level),
                          static_cast<std::uint16_t>(cable.port),
                          static_cast<std::uint32_t>(cable.lower_index)));
      flight_ids_.erase(fit);
    }
  }
  return victims;
}

void ConnectionManager::repair_cable(const CableId& cable) {
  state_.repair_cable(cable.level, cable.lower_index, cable.port);
}

const Path* ConnectionManager::find(ConnectionId id) const {
  auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

double ConnectionManager::level_utilization(std::uint32_t level) const {
  const std::uint64_t total =
      state_.rows_at(level) * state_.ports_per_switch();
  if (total == 0) return 0.0;
  return static_cast<double>(state_.occupied_ulinks_at(level)) /
         static_cast<double>(total);
}

}  // namespace ftsched
