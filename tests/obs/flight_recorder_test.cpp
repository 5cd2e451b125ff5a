// Flight recorder + decoder tests: ring wrap-around semantics (newest events
// kept, drops counted), the null-guarded FT_FLIGHT_EVENT macro, dump format
// v1 round-trips, timeline stitching invariance across ring layouts, and the
// SLO layer's latency math.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_decoder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ftsched::obs {
namespace {

TEST(FlightRing, RecordsInOrderBelowCapacity) {
  FlightRing ring(8);
  ring.record(FlightEvent::requested(1, 10));
  ring.record(FlightEvent::granted(1, 11, 2));
  ring.record(FlightEvent::closed(1, 20));
  EXPECT_EQ(ring.total(), 3u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], FlightEvent::requested(1, 10));
  EXPECT_EQ(events[1], FlightEvent::granted(1, 11, 2));
  EXPECT_EQ(events[2], FlightEvent::closed(1, 20));
}

TEST(FlightRing, WrapAroundKeepsNewestAndCountsDrops) {
  FlightRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    ring.record(FlightEvent::requested(i, i));
  }
  EXPECT_EQ(ring.total(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 2u);  // the two oldest were overwritten
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].req, i + 2) << "oldest retained must be event 2";
  }
}

TEST(FlightRing, ClearResetsTotalsAndDrops) {
  FlightRing ring(2);
  ring.record(FlightEvent::requested(0, 0));
  ring.record(FlightEvent::requested(1, 1));
  ring.record(FlightEvent::requested(2, 2));
  EXPECT_EQ(ring.dropped(), 1u);
  ring.clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(FlightEventMacro, DetachedRingEvaluatesNothing) {
  FlightRing* ring = nullptr;
  int constructions = 0;
  const auto make = [&constructions]() {
    ++constructions;
    return FlightEvent::requested(1, 2);
  };
  FT_FLIGHT_EVENT(ring, make());
  EXPECT_EQ(constructions, 0) << "event expression must not run when detached";

  FlightRing real(4);
  ring = &real;
  FT_FLIGHT_EVENT(ring, make());
  EXPECT_EQ(constructions, 1);
  EXPECT_EQ(real.total(), 1u);
}

TEST(FlightEventKinds, NamesRoundTripThroughParser) {
  for (std::uint8_t i = 0; i < 8; ++i) {
    const auto kind = static_cast<FlightEventKind>(i);
    FlightEventKind parsed = FlightEventKind::kRequested;
    ASSERT_TRUE(flight_kind_from_string(to_string(kind), parsed))
        << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  FlightEventKind ignored = FlightEventKind::kRequested;
  EXPECT_FALSE(flight_kind_from_string("NOT_A_KIND", ignored));
}

TEST(FlightRecorder, ExportsDropCountersThroughRegistry) {
  FlightRecorder recorder(2, /*capacity=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.ring(0).record(FlightEvent::requested(i, i));
  }
  recorder.ring(1).record(FlightEvent::requested(9, 9));
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 3u);

  MetricsRegistry registry;
  recorder.export_metrics(registry);
  EXPECT_EQ(registry.counter("obs.flight.rings").value(), 2u);
  EXPECT_EQ(registry.counter("obs.flight.recorded").value(), 6u);
  EXPECT_EQ(registry.counter("obs.flight.dropped").value(), 3u);
  std::ostringstream os;
  registry.write_jsonl(os);
  EXPECT_NE(os.str().find("obs.flight.dropped"), std::string::npos);
}

TEST(FlightDump, EveryLineIsStrictJson) {
  FlightRecorder recorder(2);
  recorder.ring(0).record(FlightEvent::requested(3, 0));
  recorder.ring(0).record(FlightEvent::rejected(3, 0, 2, 1));
  recorder.ring(1).record(FlightEvent::granted(4, 7, 2));
  recorder.ring(1).record(FlightEvent::revoked(4, 9, 1, 3, 12));
  std::ostringstream os;
  recorder.write_jsonl(os);
  const std::string text = os.str();
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    if (!line.empty()) {
      EXPECT_TRUE(parse_json(line).ok()) << "line: " << line;
      ++lines;
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, 5u);  // header + four events
  EXPECT_EQ(text.rfind("{\"type\":\"flight_recorder\",\"version\":1", 0), 0u);
}

TEST(FlightDump, ReadBackRoundTripsHeaderAndEvents) {
  FlightRecorder recorder(2, /*capacity=*/4);
  recorder.ring(0).record(FlightEvent::requested(10, 0));
  recorder.ring(0).record(FlightEvent::granted(10, 2, 1));
  recorder.ring(1).record(FlightEvent::retry_enqueued(11, 5, 3, true));
  recorder.ring(1).record(FlightEvent::retry_shed(12, 6, kShedBudget));

  std::ostringstream os;
  recorder.write_jsonl(os);
  std::istringstream is(os.str());
  const auto dump = read_flight_jsonl(is);
  ASSERT_TRUE(dump.ok()) << dump.message();
  EXPECT_EQ(dump.value().version, 1u);
  EXPECT_EQ(dump.value().rings, 2u);
  EXPECT_EQ(dump.value().capacity, 4u);
  EXPECT_EQ(dump.value().recorded, 4u);
  EXPECT_EQ(dump.value().dropped, 0u);
  const std::vector<FlightRecord>& records = dump.value().records;
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0], (FlightRecord{0, FlightEvent::requested(10, 0)}));
  EXPECT_EQ(records[1], (FlightRecord{0, FlightEvent::granted(10, 2, 1)}));
  EXPECT_EQ(records[2],
            (FlightRecord{1, FlightEvent::retry_enqueued(11, 5, 3, true)}));
  EXPECT_EQ(records[3],
            (FlightRecord{1, FlightEvent::retry_shed(12, 6, kShedBudget)}));
}

TEST(FlightDump, DecoderRejectsMalformedInput) {
  const auto parse = [](std::string text) {
    std::istringstream is(std::move(text));
    return read_flight_jsonl(is);
  };
  EXPECT_FALSE(parse("").ok());
  EXPECT_FALSE(parse("{\"type\":\"metrics\"}\n").ok());
  EXPECT_FALSE(
      parse("{\"type\":\"flight_recorder\",\"version\":2,\"rings\":1,"
            "\"capacity\":1,\"recorded\":0,\"dropped\":0}\n")
          .ok());
  const std::string header =
      "{\"type\":\"flight_recorder\",\"version\":1,\"rings\":1,"
      "\"capacity\":4,\"recorded\":1,\"dropped\":0}\n";
  EXPECT_FALSE(parse(header + "{\"ring\":0,\"req\":1}\n").ok());
  EXPECT_FALSE(parse(header +
                     "{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"BOGUS\","
                     "\"a\":0,\"b\":0,\"c\":0}\n")
                   .ok());
  EXPECT_TRUE(parse(header +
                    "{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\","
                    "\"a\":0,\"b\":0,\"c\":0}\n")
                  .ok());
}

TEST(FlightDump, DecoderRejectsOutOfRangeIntegers) {
  // Every integer must fit its field: no wrap past 2^64 - 1, no silent
  // narrowing into the 8/16/32-bit payload slots or the 32-bit ring index.
  const auto parse = [](std::string text) {
    std::istringstream is(std::move(text));
    return read_flight_jsonl(is);
  };
  const std::string header =
      "{\"type\":\"flight_recorder\",\"version\":1,\"rings\":1,"
      "\"capacity\":4,\"recorded\":1,\"dropped\":0}\n";
  const auto event = [&](std::string ring, std::string req, std::string a,
                         std::string b, std::string c) {
    return parse(header + "{\"ring\":" + ring + ",\"req\":" + req +
                 ",\"t\":0,\"kind\":\"CLOSED\",\"a\":" + a + ",\"b\":" + b +
                 ",\"c\":" + c + "}\n");
  };
  // The largest value of each field still parses.
  const auto max = event("4294967295", "18446744073709551615", "255",
                         "65535", "4294967295");
  ASSERT_TRUE(max.ok()) << max.message();
  EXPECT_EQ(max.value().records[0].ring, 4294967295u);
  EXPECT_EQ(max.value().records[0].event.req, 18446744073709551615ull);
  EXPECT_EQ(max.value().records[0].event.a, 255u);
  EXPECT_EQ(max.value().records[0].event.b, 65535u);
  EXPECT_EQ(max.value().records[0].event.c, 4294967295u);

  EXPECT_FALSE(event("0", "99999999999999999999", "0", "0", "0").ok());
  EXPECT_FALSE(event("0", "18446744073709551616", "0", "0", "0").ok());
  EXPECT_FALSE(event("0", "1", "256", "0", "0").ok());
  EXPECT_FALSE(event("0", "1", "0", "65536", "0").ok());
  EXPECT_FALSE(event("0", "1", "0", "0", "4294967296").ok());
  EXPECT_FALSE(event("4294967296", "1", "0", "0", "0").ok());
  const auto wrapped = event("0", "1", "0", "0", "4294967296");
  EXPECT_NE(wrapped.message().find("out of range"), std::string::npos)
      << wrapped.message();

  EXPECT_FALSE(parse("{\"type\":\"flight_recorder\",\"version\":1,"
                     "\"rings\":4294967296,\"capacity\":4,\"recorded\":1,"
                     "\"dropped\":0}\n")
                   .ok());
  EXPECT_FALSE(parse("{\"type\":\"flight_recorder\",\"version\":1,"
                     "\"rings\":1,\"capacity\":99999999999999999999,"
                     "\"recorded\":1,\"dropped\":0}\n")
                   .ok());
}

TEST(FlightDump, DecodesRequestIdsPast2To53Exactly) {
  // 2^53 + 1 is the first integer a double cannot hold; the decoder reads
  // the token's exact value instead.
  std::istringstream is(
      "{\"type\":\"flight_recorder\",\"version\":1,\"rings\":1,"
      "\"capacity\":4,\"recorded\":1,\"dropped\":0}\n"
      "{\"ring\":0,\"req\":9007199254740993,\"t\":9007199254740995,"
      "\"kind\":\"CLOSED\",\"a\":0,\"b\":0,\"c\":0}\n");
  const auto dump = read_flight_jsonl(is);
  ASSERT_TRUE(dump.ok()) << dump.message();
  ASSERT_EQ(dump.value().records.size(), 1u);
  EXPECT_EQ(dump.value().records[0].event.req, 9007199254740993ull);
  EXPECT_EQ(dump.value().records[0].event.t, 9007199254740995ull);
}

TEST(FlightDump, DecoderRejectsTrailingGarbageAndDuplicateKeys) {
  // Each line is one flat object: a number ends at `,` or `}`, a key
  // appears once, and nothing but whitespace follows the closing brace.
  const auto parse = [](std::string text) {
    std::istringstream is(std::move(text));
    return read_flight_jsonl(is);
  };
  const std::string header =
      "{\"type\":\"flight_recorder\",\"version\":1,\"rings\":1,"
      "\"capacity\":4,\"recorded\":1,\"dropped\":0}";
  const std::string event =
      "{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\",\"a\":12,"
      "\"b\":0,\"c\":0}";
  const auto ok = parse(header + "\n" + event + "\r\n");
  ASSERT_TRUE(ok.ok()) << ok.message();
  EXPECT_EQ(ok.value().records[0].event.a, 12u);

  const auto rejects = [&](const std::string& text) {
    const auto dump = parse(text);
    EXPECT_FALSE(dump.ok()) << text;
    return dump.ok() ? std::string() : dump.message();
  };
  // Digits running into other characters.
  const std::string digits_12x =
      "{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\",\"a\":12x,"
      "\"b\":0,\"c\":0}";
  EXPECT_NE(rejects(header + "\n" + digits_12x + "\n").find("line 2"),
            std::string::npos);
  rejects(header + "\n{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\","
                   "\"a\":0,\"b\":0,\"c\":7 }\n");
  rejects(header + "\n{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\","
                   "\"a\":-1,\"b\":0,\"c\":0}\n");
  rejects("{\"type\":\"flight_recorder\",\"version\":1x,\"rings\":1,"
          "\"capacity\":4,\"recorded\":1,\"dropped\":0}\n");
  // Text after the closing brace, on an event line and on the header.
  rejects(header + "\n" + event + "garbage\n");
  rejects(header + "\n" + event + "}\n");
  rejects(header + "\n" + event + event + "\n");
  rejects(header + "{}\n" + event + "\n");
  // A key given twice, in an event and in the header.
  rejects(header + "\n{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\","
                   "\"a\":0,\"b\":0,\"c\":0,\"a\":255}\n");
  rejects(header + "\n{\"ring\":0,\"req\":1,\"t\":0,\"kind\":\"CLOSED\","
                   "\"kind\":\"REVOKED\",\"a\":0,\"b\":0,\"c\":0}\n");
  rejects("{\"type\":\"flight_recorder\",\"version\":1,\"rings\":1,"
          "\"rings\":2,\"capacity\":4,\"recorded\":1,\"dropped\":0}\n");
  // Broken structure: no braces, an unterminated string, a missing value.
  rejects(header + "\n\"ring\":0\n");
  rejects(header + "\n{\"ring\":0,\"kind\":\"CLOSED}\n");
  rejects(header + "\n{\"ring\":,\"req\":1}\n");
}

TEST(FlightStitch, SortsByRequestAndKeepsPerRequestOrder) {
  // Two circuits whose events interleave across two rings; stitching must
  // group by ascending request id while preserving each request's order.
  const std::vector<FlightRecord> records = {
      {0, FlightEvent::requested(7, 0)},
      {1, FlightEvent::requested(3, 0)},
      {0, FlightEvent::granted(7, 1, 2)},
      {1, FlightEvent::granted(3, 4, 1)},
      {1, FlightEvent::closed(3, 9)},
  };
  const std::vector<CircuitTimeline> timelines = stitch_timelines(records);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].req, 3u);
  ASSERT_EQ(timelines[0].events.size(), 3u);
  EXPECT_EQ(timelines[0].events[2].kind, FlightEventKind::kClosed);
  EXPECT_EQ(timelines[1].req, 7u);
  ASSERT_EQ(timelines[1].events.size(), 2u);
}

TEST(FlightStitch, RingLayoutDoesNotChangeTimelines) {
  // The thread-count-invariance property at unit scale: the same per-request
  // event streams spread over one ring vs two rings stitch identically.
  const std::vector<FlightEvent> a = {FlightEvent::requested(1, 0),
                                      FlightEvent::granted(1, 1, 1)};
  const std::vector<FlightEvent> b = {FlightEvent::requested(2, 0),
                                      FlightEvent::rejected(2, 0, 1, 0)};
  FlightRecorder one(1);
  for (const FlightEvent& e : a) one.ring(0).record(e);
  for (const FlightEvent& e : b) one.ring(0).record(e);
  FlightRecorder two(2);
  for (const FlightEvent& e : b) two.ring(1).record(e);  // swapped rings
  for (const FlightEvent& e : a) two.ring(0).record(e);
  EXPECT_EQ(stitch_timelines(one), stitch_timelines(two));
}

TEST(FlightSlo, DerivesAdmissionRecoveryAndRetryCounts) {
  // Circuit 1: granted at once, revoked at 10, recovered at 14, closed.
  // Circuit 2: rejected, retried, granted at 5. Circuit 3: never granted.
  const std::vector<FlightRecord> records = {
      {0, FlightEvent::requested(1, 0)},
      {0, FlightEvent::granted(1, 0, 1)},
      {0, FlightEvent::revoked(1, 10, 0, 0, 0)},
      {0, FlightEvent::retry_enqueued(1, 11, 1, true)},
      {0, FlightEvent::recovered(1, 14, 4)},
      {0, FlightEvent::closed(1, 20)},
      {0, FlightEvent::requested(2, 0)},
      {0, FlightEvent::rejected(2, 0, 1, 0)},
      {0, FlightEvent::retry_enqueued(2, 1, 1, false)},
      {0, FlightEvent::retry_enqueued(2, 3, 2, false)},
      {0, FlightEvent::granted(2, 5, 2)},
      {0, FlightEvent::requested(3, 0)},
      {0, FlightEvent::rejected(3, 0, 1, 0)},
      {0, FlightEvent::retry_shed(3, 2, kShedHorizon)},
  };
  const SloSummary slo = summarize_slo(stitch_timelines(records));
  EXPECT_EQ(slo.circuits, 3u);
  EXPECT_EQ(slo.granted, 2u);
  EXPECT_EQ(slo.never_granted, 1u);
  EXPECT_EQ(slo.revocations, 1u);
  EXPECT_EQ(slo.recoveries, 1u);
  EXPECT_EQ(slo.closed, 1u);
  EXPECT_EQ(slo.shed, 1u);
  EXPECT_EQ(slo.retries, 3u);
  ASSERT_EQ(slo.admission_latency.size(), 2u);
  EXPECT_DOUBLE_EQ(slo.admission_latency[0], 0.0);  // circuit 1: instant
  EXPECT_DOUBLE_EQ(slo.admission_latency[1], 5.0);  // circuit 2: 0 → 5
  ASSERT_EQ(slo.recovery_time.size(), 1u);
  EXPECT_DOUBLE_EQ(slo.recovery_time[0], 4.0);  // 10 → 14
  ASSERT_EQ(slo.retry_count.size(), 3u);
  EXPECT_DOUBLE_EQ(slo.retry_count[1], 2.0);  // circuit 2 retried twice
  // One admission entry per timeline; none for the never-granted circuit.
  ASSERT_EQ(slo.circuit_admission.size(), 3u);
  EXPECT_EQ(slo.circuit_admission[0], std::optional<std::uint64_t>(0));
  EXPECT_EQ(slo.circuit_admission[1], std::optional<std::uint64_t>(5));
  EXPECT_EQ(slo.circuit_admission[2], std::nullopt);
}

TEST(FlightSlo, ExportEmitsHistogramsWithPercentiles) {
  SloSummary slo;
  slo.circuits = 2;
  slo.granted = 2;
  slo.admission_latency = {1.0, 3.0};
  slo.recovery_time = {4.0};
  slo.retry_count = {0.0, 2.0};
  MetricsRegistry registry;
  export_slo_metrics(slo, registry, /*horizon=*/100.0);
  std::ostringstream os;
  registry.write_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("slo.admission_latency"), std::string::npos);
  EXPECT_NE(text.find("slo.recovery_time"), std::string::npos);
  EXPECT_NE(text.find("slo.retries_per_circuit"), std::string::npos);
  EXPECT_NE(text.find("\"p50\":"), std::string::npos);
  EXPECT_NE(text.find("\"p99\":"), std::string::npos);
}

}  // namespace
}  // namespace ftsched::obs
