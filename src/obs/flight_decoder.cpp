#include "obs/flight_decoder.hpp"

#include <algorithm>
#include <initializer_list>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace ftsched::obs {

namespace {

/// Outcome of reading one integer field, ordered so that the worst of
/// several reads is their std::max.
enum class Field : std::uint8_t { kOk, kOutOfRange, kMissing };

/// Reads the unsigned integer member `key` into `out`, refusing any value
/// `out` cannot hold.
template <typename T>
Field find_uint(const JsonValue& line, std::string_view key, T& out) {
  const JsonValue* member = line.find(key);
  if (member == nullptr || !member->is_uint) return Field::kMissing;
  if (member->uint > std::numeric_limits<T>::max()) return Field::kOutOfRange;
  out = static_cast<T>(member->uint);
  return Field::kOk;
}

/// The string member `key`, or null.
const std::string* find_string(const JsonValue& line, std::string_view key) {
  const JsonValue* member = line.find(key);
  return member != nullptr && member->type == JsonValue::Type::kString
             ? &member->str
             : nullptr;
}

}  // namespace

Result<FlightDump> read_flight_jsonl(std::istream& is) {
  FlightDump dump;
  std::string line;
  bool have_header = false;
  std::size_t line_no = 0;
  const auto line_error = [&](std::string_view what) {
    return Result<FlightDump>::error(std::string("flight dump: line ")
                                         .append(std::to_string(line_no))
                                         .append(": ")
                                         .append(what));
  };
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t last = line.find_last_not_of(" \t\r");
    if (last == std::string::npos) continue;  // blank
    // The writer emits one compact object per line whose members are
    // unsigned integers and plain strings; a line is refused unless it is
    // exactly that.
    if (line.find_first_of(" \t") < last) {
      return line_error("whitespace inside a dump line");
    }
    const Result<JsonValue> parsed = parse_json(line, line_no);
    if (!parsed.ok()) {
      return Result<FlightDump>::error(
          std::string("flight dump: line ").append(parsed.message()));
    }
    const JsonValue& members = parsed.value();
    if (members.type != JsonValue::Type::kObject) {
      return line_error("not a JSON object");
    }
    for (const auto& [key, member] : members.object) {
      if (member.type != JsonValue::Type::kString && !member.is_uint) {
        return line_error(std::string("\"")
                              .append(json_escape(key))
                              .append("\" is neither a string nor an "
                                      "integer in [0, 2^64)"));
      }
    }
    if (!have_header) {
      const std::string* type = find_string(members, "type");
      if (type == nullptr || *type != "flight_recorder") {
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
    const std::string* kind = find_string(members, "kind");
    const Field fields = std::max({find_uint(members, "ring", record.ring),
                                   find_uint(members, "req", record.event.req),
                                   find_uint(members, "t", record.event.t),
                                   find_uint(members, "a", record.event.a),
                                   find_uint(members, "b", record.event.b),
                                   find_uint(members, "c", record.event.c)});
    if (fields == Field::kMissing || kind == nullptr) {
      return line_error("event lacks one of ring/req/t/kind/a/b/c");
    }
    if (fields == Field::kOutOfRange) return line_error("field out of range");
    if (!flight_kind_from_string(*kind, record.event.kind)) {
      return line_error(
          std::string("unknown event kind '").append(*kind).append("'"));
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
    std::optional<std::uint64_t> admission;
    if (saw_granted) {
      ++slo.granted;
      if (saw_requested) {
        admission = first_granted_at - requested_at;
        slo.admission_latency.push_back(static_cast<double>(*admission));
      }
    } else {
      ++slo.never_granted;
    }
    slo.retry_count.push_back(static_cast<double>(retries));
    slo.circuit_admission.push_back(admission);
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
