#include "obs/profiler.hpp"

#include <ostream>

#include "obs/env.hpp"
#include "obs/json.hpp"

namespace ftsched::obs {

namespace {

void write_sample_json(std::ostream& os, const PerfSample& s) {
  os << "{\"wall_ns\":" << s.wall_ns << ",\"cycles\":" << s.cycles
     << ",\"instructions\":" << s.instructions
     << ",\"l1d_misses\":" << s.l1d_misses
     << ",\"llc_misses\":" << s.llc_misses
     << ",\"branch_misses\":" << s.branch_misses << "}";
}

double per_request(std::uint64_t value, std::uint64_t requests) {
  if (requests == 0) return 0.0;
  return static_cast<double>(value) / static_cast<double>(requests);
}

}  // namespace

std::string_view to_string(ProfilePhase phase) {
  switch (phase) {
    case ProfilePhase::kAdmission:
      return "admission";
    case ProfilePhase::kAnd:
      return "and";
    case ProfilePhase::kPortPick:
      return "port_pick";
    case ProfilePhase::kLabel:
      return "label";
    case ProfilePhase::kCommit:
      return "commit";
    case ProfilePhase::kRollback:
      return "rollback";
  }
  FT_UNREACHABLE();
}

void ProfileSession::begin_batch() {
  FT_REQUIRE(counters_.is_open());
  FT_REQUIRE(!in_batch_);
  FT_REQUIRE(stack_.empty());
  in_batch_ = true;
  last_mark_ = counters_.read();
}

void ProfileSession::end_batch(std::uint64_t request_count) {
  FT_REQUIRE(in_batch_);
  // Every ProfileRegion is scoped inside the schedule() call this window
  // brackets; an open region here is an instrumentation bug, not a data
  // condition.
  FT_REQUIRE(stack_.empty());
  mark();  // tail delta -> unattributed
  in_batch_ = false;
  requests_ += request_count;
  ++batches_;
}

void ProfileSession::enter(ProfilePhase phase, std::uint32_t level) {
  if (!in_batch_) return;
  mark();
  slot_at(phase, level).entries += 1;
  stack_.push_back(
      ActiveRegion{static_cast<std::uint8_t>(phase), level});
}

void ProfileSession::exit() {
  if (!in_batch_) return;
  FT_REQUIRE(!stack_.empty());
  mark();
  stack_.pop_back();
}

void ProfileSession::mark() {
  const PerfSample now = counters_.read();
  const PerfSample delta = now - last_mark_;
  if (stack_.empty()) {
    unattributed_ += delta;
  } else {
    const ActiveRegion& top = stack_.back();
    slot_at(static_cast<ProfilePhase>(top.phase), top.level).self += delta;
  }
  total_ += delta;
  last_mark_ = now;
  ++marks_;
}

ProfileSlot& ProfileSession::slot_at(ProfilePhase phase,
                                     std::uint32_t level) {
  auto& levels = slots_[static_cast<std::size_t>(phase)];
  if (level >= levels.size()) levels.resize(level + 1);
  return levels[level];
}

ProfileSlot ProfileSession::phase_total(ProfilePhase phase) const {
  ProfileSlot sum;
  for (const ProfileSlot& slot : slots(phase)) {
    sum.entries += slot.entries;
    sum.self += slot.self;
  }
  return sum;
}

double ProfileSession::ipc() const {
  if (total_.cycles == 0) return 0.0;
  return static_cast<double>(total_.instructions) /
         static_cast<double>(total_.cycles);
}

void ProfileSession::reset() {
  FT_REQUIRE(!in_batch_);
  total_ = PerfSample{};
  unattributed_ = PerfSample{};
  marks_ = 0;
  batches_ = 0;
  requests_ = 0;
  stack_.clear();
  for (auto& levels : slots_) levels.clear();
}

void ProfileSession::merge_from(const ProfileSession& other) {
  FT_REQUIRE(!in_batch_);
  FT_REQUIRE(!other.in_batch_);
  total_ += other.total_;
  unattributed_ += other.unattributed_;
  marks_ += other.marks_;
  batches_ += other.batches_;
  requests_ += other.requests_;
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    const auto& src = other.slots_[p];
    for (std::uint32_t level = 0; level < src.size(); ++level) {
      ProfileSlot& dst =
          slot_at(static_cast<ProfilePhase>(p), level);
      dst.entries += src[level].entries;
      dst.self += src[level].self;
    }
  }
  // A merge target that never opened counters of its own reports what its
  // shards measured; any shard on the perf backend makes the aggregate a
  // perf-backend measurement (mixed shards cannot happen — open() resolves
  // identically for identical requests within one process).
  if (!counters_.is_open() && other.backend() == PerfBackend::kPerfEvent) {
    merged_backend_ = PerfBackend::kPerfEvent;
  }
}

void ProfileSession::export_metrics(MetricsRegistry& registry) const {
  registry.gauge("profile.backend")
      .set(backend() == PerfBackend::kPerfEvent ? 1.0 : 0.0);
  registry.gauge("profile.ipc").set(ipc());
  registry.gauge("profile.wall_ns_per_request")
      .set(per_request(total_.wall_ns, requests_));
  registry.gauge("profile.instructions_per_request")
      .set(per_request(total_.instructions, requests_));
  registry.gauge("profile.cycles_per_request")
      .set(per_request(total_.cycles, requests_));
  registry.gauge("profile.l1d_misses_per_request")
      .set(per_request(total_.l1d_misses, requests_));
  registry.gauge("profile.llc_misses_per_request")
      .set(per_request(total_.llc_misses, requests_));
  registry.gauge("profile.branch_misses_per_request")
      .set(per_request(total_.branch_misses, requests_));
  registry.counter("profile.requests").add(requests_);
  registry.counter("profile.batches").add(batches_);
  registry.counter("profile.marks").add(marks_);
  registry.counter("profile.total.wall_ns").add(total_.wall_ns);
  registry.counter("profile.total.cycles").add(total_.cycles);
  registry.counter("profile.total.instructions").add(total_.instructions);
  registry.counter("profile.unattributed.wall_ns")
      .add(unattributed_.wall_ns);
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    const auto phase = static_cast<ProfilePhase>(p);
    const ProfileSlot sum = phase_total(phase);
    if (sum.entries == 0 && sum.self == PerfSample{}) continue;
    const std::string prefix =
        std::string("profile.phase.") + std::string(to_string(phase));
    registry.counter(prefix + ".entries").add(sum.entries);
    registry.counter(prefix + ".wall_ns").add(sum.self.wall_ns);
    registry.counter(prefix + ".instructions").add(sum.self.instructions);
  }
}

void ProfileSession::write_jsonl_header(std::ostream& os,
                                        std::string_view bench,
                                        PerfBackend backend) {
  os << "{\"type\":\"profile\",\"version\":1,\"bench\":\""
     << json_escape(bench) << "\",\"backend\":\"" << to_string(backend)
     << "\",\"env\":";
  write_env_json(os, collect_env());
  os << "}\n";
}

void ProfileSession::write_point_json(std::ostream& os,
                                      std::string_view label) const {
  os << "{\"label\":\"" << json_escape(label) << "\",\"backend\":\""
     << to_string(backend()) << "\",\"batches\":" << batches_
     << ",\"requests\":" << requests_ << ",\"marks\":" << marks_
     << ",\"total\":";
  write_sample_json(os, total_);
  os << ",\"unattributed\":";
  write_sample_json(os, unattributed_);
  os << ",\"phases\":[";
  bool first = true;
  for (std::size_t p = 0; p < kProfilePhaseCount; ++p) {
    const auto phase = static_cast<ProfilePhase>(p);
    const auto& levels = slots(phase);
    for (std::uint32_t level = 0; level < levels.size(); ++level) {
      const ProfileSlot& slot = levels[level];
      if (slot.entries == 0 && slot.self == PerfSample{}) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"phase\":\"" << to_string(phase) << "\",\"level\":" << level
         << ",\"entries\":" << slot.entries << ",\"self\":";
      write_sample_json(os, slot.self);
      os << "}";
    }
  }
  os << "],\"derived\":{\"wall_ns_per_request\":"
     << per_request(total_.wall_ns, requests_)
     << ",\"instructions_per_request\":"
     << per_request(total_.instructions, requests_)
     << ",\"cycles_per_request\":" << per_request(total_.cycles, requests_)
     << ",\"ipc\":" << ipc() << ",\"l1d_misses_per_request\":"
     << per_request(total_.l1d_misses, requests_)
     << ",\"llc_misses_per_request\":"
     << per_request(total_.llc_misses, requests_)
     << ",\"branch_misses_per_request\":"
     << per_request(total_.branch_misses, requests_) << "}}";
}

void ProfileSession::write_jsonl_point(std::ostream& os,
                                       std::string_view label) const {
  os << "{\"type\":\"point\",\"point\":";
  write_point_json(os, label);
  os << "}\n";
}

}  // namespace ftsched::obs
