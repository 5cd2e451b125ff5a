#include "obs/flight_decoder.hpp"

#include <algorithm>
#include <initializer_list>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace ftsched::obs {

namespace {

/// Outcome of reading one integer field, ordered so that the worst of
/// several reads is their std::max.
enum class Field : std::uint8_t { kOk, kOutOfRange, kMissing };

/// One `"key":value` member of a dump line. `value` is the digits of an
/// integer, or the characters between the quotes of a string.
struct Member {
  std::string_view key;
  std::string_view value;
  bool quoted = false;
};

/// Splits one dump line into its members. The writer emits one flat JSON
/// object per line — no spaces, no nesting, no escapes, unsigned integers
/// and plain strings only — and this accepts exactly that shape: `{`,
/// members separated by `,`, `}`, then nothing but trailing whitespace. A
/// number must be followed by `,` or `}` (so `"a":12x` is not 12), and a key
/// may appear once. Returns false on anything else.
bool split_members(std::string_view line, std::vector<Member>& members) {
  members.clear();
  std::size_t i = 0;
  const auto at = [&](char c) { return i < line.size() && line[i] == c; };
  const auto quoted_text = [&](std::string_view& out) {
    if (!at('"')) return false;
    const std::size_t end = line.find('"', i + 1);
    if (end == std::string_view::npos) return false;
    out = line.substr(i + 1, end - i - 1);
    i = end + 1;
    return true;
  };
  if (!at('{')) return false;
  ++i;
  while (true) {
    Member member;
    if (!quoted_text(member.key) || !at(':')) return false;
    ++i;
    if (at('"')) {
      if (!quoted_text(member.value)) return false;
      member.quoted = true;
    } else {
      const std::size_t begin = i;
      while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
      if (i == begin) return false;
      member.value = line.substr(begin, i - begin);
    }
    for (const Member& seen : members) {
      if (seen.key == member.key) return false;
    }
    members.push_back(member);
    if (at('}')) break;
    if (!at(',')) return false;
    ++i;
  }
  ++i;
  return line.find_first_not_of(" \t\r", i) == std::string_view::npos;
}

const Member* find_member(const std::vector<Member>& members,
                          std::string_view key) {
  for (const Member& member : members) {
    if (member.key == key) return &member;
  }
  return nullptr;
}

/// Parses the unsigned integer member `key` into `out`, refusing any value
/// `out` cannot hold (a value past 2^64 - 1 is refused before it can wrap).
template <typename T>
Field find_uint(const std::vector<Member>& members, std::string_view key,
                T& out) {
  const Member* member = find_member(members, key);
  if (member == nullptr || member->quoted) return Field::kMissing;
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  std::uint64_t value = 0;
  for (const char ch : member->value) {
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > kMax / 10 || digit > kMax - value * 10) {
      return Field::kOutOfRange;
    }
    value = value * 10 + digit;
  }
  out = static_cast<T>(value);
  return Field::kOk;
}

/// Same, for a string member.
bool find_string(const std::vector<Member>& members, std::string_view key,
                 std::string& out) {
  const Member* member = find_member(members, key);
  if (member == nullptr || !member->quoted) return false;
  out = std::string(member->value);
  return true;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r\n") == std::string::npos;
}

}  // namespace

Result<FlightDump> read_flight_jsonl(std::istream& is) {
  FlightDump dump;
  std::string line;
  std::vector<Member> members;
  bool have_header = false;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (blank(line)) continue;
    if (!split_members(line, members)) {
      return Result<FlightDump>::error(
          std::string("flight dump: malformed line ")
              .append(std::to_string(line_no))
              .append(" (one flat JSON object per line, each key once, "
                      "nothing after the closing brace)"));
    }
    if (!have_header) {
      std::string type;
      if (!find_string(members, "type", type) || type != "flight_recorder") {
        return Result<FlightDump>::error(
            "flight dump: first line is not a flight_recorder header");
      }
      if (find_uint(members, "version", dump.version) != Field::kOk ||
          dump.version != 1) {
        return Result<FlightDump>::error(
            "flight dump: unsupported format version");
      }
      const Field header =
          std::max({find_uint(members, "rings", dump.rings),
                    find_uint(members, "capacity", dump.capacity),
                    find_uint(members, "recorded", dump.recorded),
                    find_uint(members, "dropped", dump.dropped)});
      if (header == Field::kMissing) {
        return Result<FlightDump>::error(
            "flight dump: header is missing rings/capacity/recorded/dropped");
      }
      if (header == Field::kOutOfRange) {
        return Result<FlightDump>::error(
            "flight dump: header field out of range");
      }
      have_header = true;
      continue;
    }
    FlightRecord record;
    std::string kind;
    const Field fields = std::max({find_uint(members, "ring", record.ring),
                                   find_uint(members, "req", record.event.req),
                                   find_uint(members, "t", record.event.t),
                                   find_uint(members, "a", record.event.a),
                                   find_uint(members, "b", record.event.b),
                                   find_uint(members, "c", record.event.c)});
    if (fields == Field::kMissing || !find_string(members, "kind", kind)) {
      return Result<FlightDump>::error("flight dump: malformed event at line " +
                                       std::to_string(line_no));
    }
    if (fields == Field::kOutOfRange) {
      return Result<FlightDump>::error(
          "flight dump: field out of range at line " +
          std::to_string(line_no));
    }
    if (!flight_kind_from_string(kind, record.event.kind)) {
      return Result<FlightDump>::error("flight dump: unknown event kind '" +
                                       kind + "' at line " +
                                       std::to_string(line_no));
    }
    dump.records.push_back(record);
  }
  if (!have_header) {
    return Result<FlightDump>::error("flight dump: empty input");
  }
  return dump;
}

std::vector<CircuitTimeline> stitch_timelines(
    const std::vector<FlightRecord>& records) {
  // Stable sort by request id: within one request, dump order is preserved.
  // A request's events all come from the one ring that ran its repetition,
  // so that order is chronological regardless of how many rings exist.
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     return records[lhs].event.req < records[rhs].event.req;
                   });

  std::vector<CircuitTimeline> timelines;
  for (const std::size_t i : order) {
    const FlightEvent& event = records[i].event;
    if (timelines.empty() || timelines.back().req != event.req) {
      timelines.push_back(CircuitTimeline{event.req, {}});
    }
    timelines.back().events.push_back(event);
  }
  return timelines;
}

std::vector<CircuitTimeline> stitch_timelines(const FlightRecorder& recorder) {
  std::vector<FlightRecord> records;
  for (std::size_t k = 0; k < recorder.ring_count(); ++k) {
    for (const FlightEvent& event : recorder.ring(k).snapshot()) {
      records.push_back(FlightRecord{static_cast<std::uint32_t>(k), event});
    }
  }
  return stitch_timelines(records);
}

SloSummary summarize_slo(const std::vector<CircuitTimeline>& timelines) {
  SloSummary slo;
  for (const CircuitTimeline& timeline : timelines) {
    ++slo.circuits;
    bool saw_requested = false;
    bool saw_granted = false;
    std::uint64_t requested_at = 0;
    std::uint64_t first_granted_at = 0;
    bool revocation_pending = false;
    std::uint64_t revoked_at = 0;
    std::uint64_t retries = 0;
    for (const FlightEvent& event : timeline.events) {
      switch (event.kind) {
        case FlightEventKind::kRequested:
          if (!saw_requested) {
            saw_requested = true;
            requested_at = event.t;
          }
          break;
        case FlightEventKind::kGranted:
          if (!saw_granted) {
            saw_granted = true;
            first_granted_at = event.t;
          }
          break;
        case FlightEventKind::kRejected:
          break;
        case FlightEventKind::kRevoked:
          ++slo.revocations;
          revocation_pending = true;
          revoked_at = event.t;
          break;
        case FlightEventKind::kRetryEnqueued:
          ++slo.retries;
          ++retries;
          break;
        case FlightEventKind::kRetryShed:
          ++slo.shed;
          break;
        case FlightEventKind::kRecovered:
          ++slo.recoveries;
          if (revocation_pending) {
            slo.recovery_time.push_back(
                static_cast<double>(event.t - revoked_at));
            revocation_pending = false;
          }
          break;
        case FlightEventKind::kClosed:
          ++slo.closed;
          break;
      }
    }
    if (saw_granted) {
      ++slo.granted;
      if (saw_requested) {
        slo.admission_latency.push_back(
            static_cast<double>(first_granted_at - requested_at));
      }
    } else {
      ++slo.never_granted;
    }
    slo.retry_count.push_back(static_cast<double>(retries));
  }
  return slo;
}

void export_slo_metrics(const SloSummary& slo, MetricsRegistry& registry,
                        double horizon) {
  FT_REQUIRE(horizon >= 0.0);
  registry.counter("slo.circuits").add(slo.circuits);
  registry.counter("slo.granted").add(slo.granted);
  registry.counter("slo.never_granted").add(slo.never_granted);
  registry.counter("slo.revocations").add(slo.revocations);
  registry.counter("slo.recoveries").add(slo.recoveries);
  registry.counter("slo.closed").add(slo.closed);
  registry.counter("slo.shed").add(slo.shed);
  registry.counter("slo.retries").add(slo.retries);
  Histogram& admission =
      registry.histogram("slo.admission_latency", 0.0, horizon + 1.0, 32);
  for (const double v : slo.admission_latency) admission.observe(v);
  Histogram& recovery =
      registry.histogram("slo.recovery_time", 0.0, horizon + 1.0, 32);
  for (const double v : slo.recovery_time) recovery.observe(v);
  Histogram& retries =
      registry.histogram("slo.retries_per_circuit", 0.0, 32.0, 32);
  for (const double v : slo.retry_count) retries.observe(v);
}

}  // namespace ftsched::obs
