// perfbench — the repository benchmark: end-to-end and per-layer metrics of
// the request path FabricManager → scheduler → LinkState.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Workloads (perfbench/METRICS.md says why each exists):
//   anchor-batch  FT(2,64)  levelwise, full 4096-request permutations
//   wide-batch    FT(2,96)  levelwise, 9216-request permutations (2-word rows)
//   churn-faults  FT(3,16)  levelwise-balanced, a ChaosSoak op script replayed
//                           through FabricManager on the DES clock
//
// Every input is built from --seed before timing starts; only calls into the
// public API of core, linkstate, fault and des are timed. --trace 0 prints
// the end-to-end metrics, scaled to reference speed by a fixed kernel run
// between the timed calls (see Timings); --trace 1 interleaves untraced
// and traced passes, wraps each public call in a span owned by this file,
// prints the per-layer metrics, and writes the spans to --trace-out at exit.
//
// The last stdout line is one JSON object {"correct","attempted","failed",
// "metrics"}. The exit code is non-zero when the verifier, the invariant
// bundle, the ChaosSoak::run() equality or an exact-count repeat fails.
#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/verifier.hpp"
#include "des/simulator.hpp"
#include "fault/chaos_soak.hpp"
#include "fault/fabric_manager.hpp"
#include "hw/timing_model.hpp"
#include "linkstate/link_state.hpp"
#include "obs/env.hpp"
#include "obs/profiler.hpp"
#include "obs/sched_probe.hpp"
#include "obs/stopwatch.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

// --- Workload definitions ----------------------------------------------------

struct BatchSpec {
  std::uint32_t levels;
  std::uint32_t w;
  const char* scheduler;
  std::size_t distinct;  ///< distinct permutations cycled through per pass
};

constexpr BatchSpec kAnchorBatch{2, 64, "levelwise", 64};
// w = 96 > 64 gives two-word rows. FT(2,128) takes the same path, but its
// 16384-request results overflow a 2 MiB per-core L2, so on a shared cloud
// VM its timings follow the co-tenants' load on the shared L3.
constexpr BatchSpec kWideBatch{2, 96, "levelwise", 32};

constexpr std::uint32_t kChurnLevels = 3;
constexpr std::uint32_t kChurnArity = 16;
constexpr std::uint64_t kChurnOps = 8192;

/// Untraced timings are reported as if every reference-kernel run had
/// taken this long per request (METRICS.md, "Host speed"). A fixed round
/// figure near the kernel's host time after an anchor batch: it sets the
/// unit, and the comparison between runs does not depend on it.
constexpr double kReferenceNsPerRequest = 5;

/// Each run sets its fixture up this many times and reports the median.
constexpr int kSetupRepeats = 9;

/// Spans kept in memory for --trace-out; later spans are only aggregated.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

// --- Clock, statistics, output -----------------------------------------------

obs::Stopwatch g_clock;

std::uint64_t now_ns() { return g_clock.elapsed_ns(); }

/// Type-7 (linear interpolation) quantile; 0 on an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// --- Reference speed ---------------------------------------------------------

/// Runs of the reference kernel before each set-up (median taken).
constexpr int kReferenceRunsPerSetup = 5;
/// Untraced churn ticks between two runs of the reference kernel. The
/// batch workloads run it after every batch.
constexpr std::size_t kReferenceEveryTicks = 16;
/// A sample is scaled by the median of its own reference run and this many
/// on either side: co-tenant bursts last about a millisecond, so a scale
/// taken over a longer stretch misses them and leaves them in the p99.
constexpr std::size_t kReferenceReach = 1;

/// Nodes of the symmetric FT(levels, w): w^levels.
std::size_t node_count(std::uint32_t levels, std::uint32_t w) {
  std::size_t nodes = 1;
  for (std::uint32_t l = 0; l < levels; ++l) nodes *= w;
  return nodes;
}

/// A fixed first-fit scheduling loop, written here and not taken from src/,
/// in the shape of the workload's fabric: `nodes` random requests on
/// nodes / w up and as many down rows of w channels, each request taking the
/// lowest channel free in both its source's up row and its destination's
/// down row. Its input is fixed and independent of --seed, so only the
/// host's speed moves its time. It is the yardstick of every untraced
/// timing (see Timings): being the same kind of work as the program's, on
/// as much data, it slows with it when co-tenants load the host.
class ReferenceKernel {
 public:
  ReferenceKernel(std::size_t nodes, std::size_t w)
      : nodes_(nodes),
        w_(w),
        words_((w + 63) / 64),
        requests_(kInputs * nodes),
        up_(nodes / w * words_),
        down_(nodes / w * words_),
        src_used_(nodes),
        dst_used_(nodes) {
    Xoshiro256ss rng(0x5eedULL);
    for (Pair& r : requests_) {
      r.src = static_cast<std::uint32_t>(rng.below(nodes));
      r.dst = static_cast<std::uint32_t>(rng.below(nodes));
    }
  }

  /// Host time to reference time for work timed while this kernel took
  /// `kernel_ns`: their median against the kernel's reference time gives
  /// the host's speed then. No runs means host time is kept.
  double scale(std::vector<double> kernel_ns) const {
    return kernel_ns.empty() ? 1.0
                             : kReferenceNsPerRequest *
                                   static_cast<double>(nodes_) /
                                   median(std::move(kernel_ns));
  }

  /// Host nanoseconds of one pass.
  double run() {
    const std::uint64_t t0 = now_ns();
    // Every row starts with channels [0, w) free.
    for (std::size_t row = 0; row < up_.size() / words_; ++row) {
      for (std::size_t k = 0; k < words_; ++k) {
        const std::size_t bits = std::min<std::size_t>(64, w_ - 64 * k);
        const std::uint64_t all = bits == 64 ? ~std::uint64_t{0}
                                             : (std::uint64_t{1} << bits) - 1;
        up_[row * words_ + k] = down_[row * words_ + k] = all;
      }
    }
    std::fill(src_used_.begin(), src_used_.end(), std::uint8_t{0});
    std::fill(dst_used_.begin(), dst_used_.end(), std::uint8_t{0});
    const Pair* input = &requests_[(pass_++ % kInputs) * nodes_];
    for (std::size_t i = 0; i < nodes_; ++i) {
      const std::size_t src = input[i].src;
      const std::size_t dst = input[i].dst;
      if ((src_used_[src] | dst_used_[dst]) != 0) continue;
      std::uint64_t* up = &up_[src / w_ * words_];
      std::uint64_t* down = &down_[dst / w_ * words_];
      for (std::size_t k = 0; k < words_; ++k) {
        const std::uint64_t free = up[k] & down[k];
        if (free == 0) continue;
        const std::uint64_t first = free & (~free + 1);
        up[k] ^= first;
        down[k] ^= first;
        src_used_[src] = dst_used_[dst] = 1;
        ++granted_;
        break;
      }
    }
    return static_cast<double>(now_ns() - t0);
  }

  /// Grants over all passes; reading it keeps the loop from being elided.
  std::uint64_t granted() const { return granted_; }

 private:
  struct Pair {
    std::uint32_t src;
    std::uint32_t dst;
  };
  static constexpr std::size_t kInputs = 4;
  std::size_t nodes_;
  std::size_t w_;
  std::size_t words_;
  std::vector<Pair> requests_;
  std::vector<std::uint64_t> up_;
  std::vector<std::uint64_t> down_;
  std::vector<std::uint8_t> src_used_;
  std::vector<std::uint8_t> dst_used_;
  std::size_t pass_ = 0;
  std::uint64_t granted_ = 0;
};


/// The untraced timings of a run at reference speed: one latency sample
/// per unit of work (batch or tick) in run order, and the units of work
/// done in `busy_ns`. On the shared cloud VMs this benchmark runs on,
/// co-tenants slow every workload by up to 1.8x, in phases of seconds to
/// many minutes (METRICS.md, "Host speed"); a run wholly inside one phase
/// cannot see it, so no statistic of raw host time repeats from run to
/// run. So each sample is scaled by the host's speed around it, as the
/// reference kernel measured it. A change to the program moves the
/// samples and not the kernel, so it shows in full.
struct Timings {
  std::vector<double> samples;
  double units = 0;
  double busy_ns = 0;
  double host_busy_ns = 0;

  /// Adds a stretch of work: `host_ns` samples, `units` of work done in
  /// `stretch_busy_ns` of host time, and `kernel_ns`, where run j of
  /// `reference` came after sample (j + 1) * `every` - 1. Without kernel
  /// runs (traced runs) the stretch keeps host time.
  void add(const std::vector<double>& host_ns, double stretch_units,
           double stretch_busy_ns, const ReferenceKernel& reference,
           const std::vector<double>& kernel_ns, std::size_t every) {
    double scaled_ns = 0;
    double sum_ns = 0;
    for (std::size_t i = 0; i < host_ns.size(); ++i) {
      double scale = 1.0;
      if (!kernel_ns.empty()) {
        const std::size_t run = std::min(i / every, kernel_ns.size() - 1);
        const std::size_t lo = run - std::min(run, kReferenceReach);
        const std::size_t hi =
            std::min(run + kReferenceReach + 1, kernel_ns.size());
        scale = reference.scale(std::vector<double>(
            kernel_ns.begin() + static_cast<std::ptrdiff_t>(lo),
            kernel_ns.begin() + static_cast<std::ptrdiff_t>(hi)));
      }
      samples.push_back(host_ns[i] * scale);
      scaled_ns += host_ns[i] * scale;
      sum_ns += host_ns[i];
    }
    units += stretch_units;
    busy_ns += stretch_busy_ns * ratio(scaled_ns, sum_ns);
    host_busy_ns += stretch_busy_ns;
  }

  /// Reference / host time over the whole run.
  double scale() const { return ratio(busy_ns, host_busy_ns); }
};

/// The end-to-end timing statistics of one run.
struct Summary {
  double p50_ns = 0;
  double p99_ns = 0;
  double units_per_s = 0;
};

/// Samples in one tail window (see summarize()): ten lie beyond its p99.
constexpr std::size_t kTailWindow = 1024;

/// The p50 and the throughput are over every untraced sample of the run.
/// The p99 is taken within each window of kTailWindow consecutive samples,
/// and the median over all windows is reported: the typical tail. On a
/// shared cloud VM, a burst of co-tenant load that covers 1% of a run sets
/// the run-wide p99 by itself, so that figure followed the bursts, not the
/// code. A trailing partial window counts only when it is the only one.
Summary summarize(const Timings& t) {
  std::vector<double> window_p99;
  for (std::size_t i = 0; i + kTailWindow <= t.samples.size();
       i += kTailWindow) {
    const auto first = t.samples.begin() + static_cast<std::ptrdiff_t>(i);
    window_p99.push_back(
        quantile(std::vector<double>(first, first + kTailWindow), 0.99));
  }
  if (window_p99.empty()) window_p99.push_back(quantile(t.samples, 0.99));
  return Summary{quantile(t.samples, 0.5), median(std::move(window_p99)),
                 ratio(t.units, t.busy_ns / 1e9)};
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metric catalog; perfbench/METRICS.md describes each metric and
/// BENCHMARK.json declares the same names. A run prints every metric of its
/// mode, in this order.
constexpr MetricDef kEndToEnd[] = {
    {"batch_us_p50", "us"},      {"batch_us_p99", "us"},
    {"requests_per_s", "1/s"},   {"ops_per_s", "1/s"},
    {"tick_us_p50", "us"},       {"tick_us_p99", "us"},
    {"failed_ratio", "ratio"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"linkstate.reset_us", "us"},
    {"core.schedule_us", "us"},
    {"core.admission_ns_per_req", "ns"},
    {"core.label_ns_per_req", "ns"},
    {"core.and_ns_per_req", "ns"},
    {"core.port_pick_ns_per_req", "ns"},
    {"core.commit_ns_per_req", "ns"},
    {"core.rollback_ns_per_req", "ns"},
    {"core.unattributed_share", "ratio"},
    {"core.grants", "count"},
    {"core.rejects_l0", "count"},
    {"core.rejects_l1", "count"},
    {"core.rejects_l2", "count"},
    {"core.rollback_entries", "count"},
    {"fault.fail_us_p50", "us"},
    {"fault.fail_us_p99", "us"},
    {"fault.victims_per_fail", "ratio"},
    {"fault.close_us_p50", "us"},
    {"fault.open_ids_us_p50", "us"},
    {"fault.repair_us_p50", "us"},
    {"fault.submit_us_p50", "us"},
    {"fault.internal_event_us_p50", "us"},
    {"fault.internal_event_us_p99", "us"},
    {"fault.internal_events", "count"},
    {"fault.retries", "count"},
    {"fault.retry_yield", "ratio"},
    {"fault.victims", "count"},
    {"fault.recovered", "count"},
    {"fault.shed", "count"},
    {"des.events", "count"},
    {"des.dispatch_ns_p50", "ns"},
    {"verify.batch_us", "us"},
    {"hw.model_batch_us", "us"},
    {"hw.gap_x", "x"},
    {"obs.trace_overhead_x", "x"},
    {"obs.spans_dropped", "count"},
    {"ledger.total_ns", "ns"},
    {"ledger.linkstate_ns", "ns"},
    {"ledger.core_ns", "ns"},
    {"ledger.fault_ns", "ns"},
    {"ledger.des_ns", "ns"},
    {"ledger.bench_ns", "ns"},
    {"ledger.unattributed_ns", "ns"},
    {"workload.requested", "count"},
    {"workload.rejected", "count"},
};

/// Measured values by catalog name.
class MetricSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void set(const std::string& name, std::uint64_t value) {
    set(name, static_cast<double>(value));
  }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

/// Everything one run reports. `failures` holds one line per failed check.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t requested = 0;  ///< failed_ratio denominator
  std::uint64_t rejected = 0;   ///< failed_ratio numerator
  std::uint64_t samples = 0;    ///< untraced latency samples behind p50/p99
  double reference_scale = 1;   ///< reference / host time, untraced
  std::uint64_t reference_granted = 0;  ///< the reference kernel's output
  std::vector<std::string> failures;
  MetricSet metrics;

  void fail(std::string message) { failures.push_back(std::move(message)); }
};

// --- Spans -------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t parent;  ///< batch ordinal or simulated tick
};

class SpanLog {
 public:
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t parent) {
    if (spans_.size() < kSpanCapacity) {
      spans_.push_back(Span{name, start, end, parent});
    } else {
      ++dropped_;
    }
  }
  std::uint64_t dropped() const { return dropped_; }

  void write(const std::string& path, std::string_view workload,
             std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "perfbench: cannot write trace to " << path << "\n";
      return;
    }
    out << "{\"type\":\"perfbench_trace\",\"version\":1,\"workload\":\""
        << workload << "\",\"seed\":" << seed << ",\"spans\":" << spans_.size()
        << ",\"dropped\":" << dropped_ << ",\"env\":";
    obs::write_env_json(out, obs::collect_env());
    out << "}\n";
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Self times of the traced region, in nanoseconds. Every field but
/// `total` is a disjoint share of it; `unattributed` is the residue no span
/// covers, so the shares sum to `total` exactly.
struct Ledger {
  std::uint64_t total = 0;
  std::uint64_t linkstate = 0;
  std::uint64_t core = 0;
  std::uint64_t fault = 0;
  std::uint64_t des = 0;
  std::uint64_t bench = 0;  ///< this file's own code inside its op spans

  std::uint64_t attributed() const {
    return linkstate + core + fault + des + bench;
  }
};

void add_ledger(MetricSet& m, const Ledger& ledger, RunResult& run) {
  if (ledger.attributed() > ledger.total) {
    run.fail("ledger: layer self times exceed the traced total");
  }
  const std::uint64_t unattributed =
      ledger.total - std::min(ledger.total, ledger.attributed());
  m.set("ledger.total_ns", ledger.total);
  m.set("ledger.linkstate_ns", ledger.linkstate);
  m.set("ledger.core_ns", ledger.core);
  m.set("ledger.fault_ns", ledger.fault);
  m.set("ledger.des_ns", ledger.des);
  m.set("ledger.bench_ns", ledger.bench);
  m.set("ledger.unattributed_ns", unattributed);
}

/// core.* phase costs from the profiler, per scheduled request.
void add_profile(MetricSet& m, const obs::ProfileSession& prof) {
  const std::uint64_t requests = prof.requests();
  const std::pair<const char*, obs::ProfilePhase> phases[] = {
      {"core.admission_ns_per_req", obs::ProfilePhase::kAdmission},
      {"core.label_ns_per_req", obs::ProfilePhase::kLabel},
      {"core.and_ns_per_req", obs::ProfilePhase::kAnd},
      {"core.port_pick_ns_per_req", obs::ProfilePhase::kPortPick},
      {"core.commit_ns_per_req", obs::ProfilePhase::kCommit},
      {"core.rollback_ns_per_req", obs::ProfilePhase::kRollback},
  };
  for (const auto& [name, phase] : phases) {
    m.set(name, ratio(prof.phase_total(phase).self.wall_ns, requests));
  }
  m.set("core.unattributed_share",
        ratio(prof.unattributed().wall_ns, prof.total().wall_ns));
}

/// The pipelined hardware's time for a batch of `requests`: (n + l - 2)
/// block cycles, as TimingModel::batch_total_ns counts them. `requests` may
/// be a mean.
double model_batch_us(double requests, std::uint32_t levels, std::uint32_t w) {
  return TimingModel{}.cycle_ns(w) *
         (requests + static_cast<double>(levels) - 2.0) / 1e3;
}

/// Peak resident set so far. Runs sample it once the first timed pass is
/// done, before the timing samples pile up, so it does not grow with
/// --seconds.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs `setup` kSetupRepeats times; returns the last fixture and the
/// median set-up time in seconds, at reference speed: each set-up is
/// scaled by reference-kernel runs made just before it. Each set-up starts
/// after the previous fixture is freed, so all but the first find the heap
/// in the same state.
template <typename Fixture, typename Setup>
std::pair<Fixture, double> timed_setup(Setup setup, ReferenceKernel& reference) {
  std::vector<double> seconds;
  Fixture fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture = Fixture{};
    std::vector<double> kernel_ns;
    for (int k = 0; k < kReferenceRunsPerSetup; ++k) {
      kernel_ns.push_back(reference.run());
    }
    const std::uint64_t t0 = now_ns();
    fixture = setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9 *
                      reference.scale(std::move(kernel_ns)));
  }
  return {std::move(fixture), median(std::move(seconds))};
}

// --- Batch workloads ---------------------------------------------------------

struct BatchFixture {
  std::unique_ptr<FatTree> tree;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<LinkState> state;
  std::vector<std::vector<Request>> batches;
};

BatchFixture setup_batch(const BatchSpec& spec, std::uint64_t seed) {
  BatchFixture f;
  f.tree = std::make_unique<FatTree>(FatTree::symmetric(spec.levels, spec.w));
  auto scheduler = make_scheduler(spec.scheduler, seed);
  FT_REQUIRE_MSG(scheduler.ok(), "unknown scheduler");
  f.scheduler = std::move(scheduler).value();
  f.state = std::make_unique<LinkState>(*f.tree);
  Xoshiro256ss rng(seed);
  f.batches.reserve(spec.distinct);
  for (std::size_t k = 0; k < spec.distinct; ++k) {
    f.batches.push_back(random_permutation(f.tree->node_count(), rng));
  }
  return f;
}

/// The probe counts that must repeat exactly on every pass.
struct ProbeCounts {
  std::uint64_t grants = 0;
  std::uint64_t rejects[3] = {0, 0, 0};
  std::uint64_t rollback_entries = 0;

  static ProbeCounts of(const obs::SchedulerProbe& probe) {
    ProbeCounts c;
    c.grants = probe.grants();
    const auto& by_level = probe.reject_by_level();
    for (std::size_t l = 0; l < 3 && l < by_level.size(); ++l) {
      c.rejects[l] = by_level[l];
    }
    c.rollback_entries = probe.rollback_entries();
    return c;
  }
  friend bool operator==(const ProbeCounts&, const ProbeCounts&) = default;
};

RunResult run_batch_workload(const BatchSpec& spec, std::uint64_t seed,
                             double seconds, bool traced, SpanLog& spans) {
  RunResult run;
  ReferenceKernel kernel(node_count(spec.levels, spec.w), spec.w);
  auto [f, setup_s] = timed_setup<BatchFixture>(
      [&] { return setup_batch(spec, seed); }, kernel);
  const FatTree& tree = *f.tree;
  const std::size_t n = tree.node_count();

  // Warm-up pass: schedule each distinct batch once and verify it with the
  // independent ScheduleVerifier. Every timed result must equal these.
  std::vector<ScheduleResult> verified;
  std::vector<double> verify_us;
  std::uint64_t rejected = 0;
  for (const std::vector<Request>& batch : f.batches) {
    f.state->reset();
    ScheduleResult result = f.scheduler->schedule(tree, batch, *f.state);
    const std::uint64_t t0 = now_ns();
    const Status status = verify_schedule(tree, batch, result, f.state.get());
    verify_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!status.ok()) run.fail("verifier: " + status.message());
    rejected += result.outcomes.size() - result.granted_count();
    verified.push_back(std::move(result));
  }
  const std::uint64_t requested = f.batches.size() * n;
  run.requested = requested;
  run.rejected = rejected;

  std::vector<double> host_ns;    // untraced reset + schedule
  // Untraced runs time the reference kernel after every batch; traced runs
  // keep host time, which the per-layer figures they compare it with are
  // in too.
  std::vector<double> kernel_ns;
  std::vector<double> traced_batch_ns;  // the same, traced
  std::vector<double> reset_ns;
  std::vector<double> schedule_ns;
  Ledger ledger;
  obs::ProfileSession prof;
  obs::SchedulerProbe probe;
  ProbeCounts first_counts;
  bool have_counts = false;
  if (traced) prof.open();

  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t start = now_ns();
  std::uint64_t ordinal = 0;
  double rss_mb = 0;
  for (std::uint64_t pass = 0;
       now_ns() - start < budget_ns || (traced && pass < 2); ++pass) {
    // Traced runs alternate untraced and traced passes, so the overhead
    // ratio compares neighbours in time.
    const bool trace_pass = traced && pass % 2 == 1;
    if (trace_pass) {
      probe.reset();
      f.scheduler->set_probe(&probe);
      f.scheduler->set_profiler(&prof);
    }
    for (std::size_t b = 0; b < f.batches.size(); ++b, ++ordinal) {
      const std::uint64_t t0 = now_ns();
      f.state->reset();
      const std::uint64_t t1 = now_ns();
      if (trace_pass) prof.begin_batch();
      ScheduleResult result =
          f.scheduler->schedule(tree, f.batches[b], *f.state);
      if (trace_pass) prof.end_batch(result.outcomes.size());
      const std::uint64_t t2 = now_ns();
      if (trace_pass) {
        spans.add("linkstate.reset", t0, t1, ordinal);
        spans.add("core.schedule", t1, t2, ordinal);
        reset_ns.push_back(static_cast<double>(t1 - t0));
        schedule_ns.push_back(static_cast<double>(t2 - t1));
        traced_batch_ns.push_back(static_cast<double>(t2 - t0));
        ledger.total += t2 - t0;
        ledger.linkstate += t1 - t0;
        ledger.core += t2 - t1;
      } else {
        host_ns.push_back(static_cast<double>(t2 - t0));
        if (!traced) kernel_ns.push_back(kernel.run());
      }
      ++run.attempted;
      if (!(result == verified[b])) {
        ++run.failed;
        run.fail("batch " + std::to_string(b) +
                 ": timed result differs from the verified one");
      }
    }
    if (pass == 0) rss_mb = peak_rss_mb();
    if (trace_pass) {
      f.scheduler->set_probe(nullptr);
      f.scheduler->set_profiler(nullptr);
      const ProbeCounts counts = ProbeCounts::of(probe);
      if (!have_counts) {
        first_counts = counts;
        have_counts = true;
      } else if (!(counts == first_counts)) {
        run.fail("probe counts differ between traced passes");
      }
    }
  }

  Timings timings;
  double host_busy_ns = 0;
  for (double ns : host_ns) host_busy_ns += ns;
  timings.add(host_ns, static_cast<double>(host_ns.size()), host_busy_ns,
              kernel, kernel_ns, 1);

  // Exact-count repeat across dispatch levels: the same batches at the
  // scalar level must give bit-identical results.
  simd::force(simd::Level::kScalar);
  for (std::size_t b = 0; b < f.batches.size(); ++b) {
    f.state->reset();
    if (!(f.scheduler->schedule(tree, f.batches[b], *f.state) == verified[b])) {
      run.fail("batch " + std::to_string(b) + " differs at simd level " +
               std::string(simd::to_string(simd::active())));
    }
  }
  simd::use_auto();

  MetricSet& m = run.metrics;
  if (!traced) {
    const Summary summary = summarize(timings);
    run.samples = timings.samples.size();
    run.reference_scale = timings.scale();
    run.reference_granted = kernel.granted();
    const double batches_per_s = summary.units_per_s;
    const double batch_p50_us = summary.p50_ns / 1e3;
    const double batch_p99_us = summary.p99_ns / 1e3;
    m.set("batch_us_p50", batch_p50_us);
    m.set("batch_us_p99", batch_p99_us);
    m.set("requests_per_s", batches_per_s * static_cast<double>(n));
    // One batch is the unit of work here: one script op, one sim tick.
    m.set("ops_per_s", batches_per_s);
    m.set("tick_us_p50", batch_p50_us);
    m.set("tick_us_p99", batch_p99_us);
    m.set("failed_ratio", ratio(run.rejected, run.requested));
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", rss_mb);
  } else {
    const double model_us =
        model_batch_us(static_cast<double>(n), spec.levels, spec.w);
    const double batch_p50_us = summarize(timings).p50_ns / 1e3;
    m.set("linkstate.reset_us", median(reset_ns) / 1e3);
    m.set("core.schedule_us", median(schedule_ns) / 1e3);
    add_profile(m, prof);
    m.set("core.grants", first_counts.grants);
    m.set("core.rejects_l0", first_counts.rejects[0]);
    m.set("core.rejects_l1", first_counts.rejects[1]);
    m.set("core.rejects_l2", first_counts.rejects[2]);
    m.set("core.rollback_entries", first_counts.rollback_entries);
    m.set("verify.batch_us", median(verify_us));
    m.set("hw.model_batch_us", model_us);
    m.set("hw.gap_x", ratio(batch_p50_us, model_us));
    m.set("obs.trace_overhead_x",
          ratio(median(traced_batch_ns), median(timings.samples)));
    m.set("obs.spans_dropped", spans.dropped());
    add_ledger(m, ledger, run);
    m.set("workload.requested", requested);
    m.set("workload.rejected", rejected);
  }
  return run;
}

// --- Churn workload ----------------------------------------------------------

/// Slack ChaosSoak::execute leaves past the last op for retries to drain.
constexpr SimTime kHorizonSlack = 64;

struct ChurnFixture {
  std::unique_ptr<FatTree> tree;
  SoakConfig config;
  std::vector<SoakOp> ops;
  /// kOpen payloads, indexed like `ops` (empty for the other kinds).
  std::vector<std::vector<Request>> batches;
};

/// The kOpen payload exactly as ChaosSoak's own batch builder derives it
/// from the op's embedded seed; the ChaosSoak::run() equality check below
/// proves the two agree.
std::vector<Request> make_open_batch(const FatTree& tree, const SoakOp& op) {
  std::vector<NodeId> nodes(tree.node_count());
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = NodeId{i};
  Xoshiro256ss rng(op.draw);
  rng.shuffle(nodes.begin(), nodes.end());
  const std::size_t pairs = std::min<std::size_t>(op.count, nodes.size() / 2);
  std::vector<Request> batch;
  batch.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    batch.push_back(Request{nodes[2 * i], nodes[2 * i + 1]});
  }
  return batch;
}

ChurnFixture setup_churn(std::uint64_t seed) {
  ChurnFixture f;
  f.tree = std::make_unique<FatTree>(
      FatTree::symmetric(kChurnLevels, kChurnArity));
  f.config.scheduler = "levelwise-balanced";
  f.config.seed = seed;
  f.config.ops = kChurnOps;
  f.config.shrink = false;
  f.ops = ChaosSoak(*f.tree, f.config).generate();
  f.batches.resize(f.ops.size());
  for (std::size_t i = 0; i < f.ops.size(); ++i) {
    if (f.ops[i].kind == SoakOpKind::kOpen) {
      f.batches[i] = make_open_batch(*f.tree, f.ops[i]);
    }
  }
  return f;
}

/// Per-call samples a traced replay collects.
struct ChurnTrace {
  SpanLog* spans = nullptr;
  obs::ProfileSession* prof = nullptr;
  Ledger ledger;
  std::vector<double> fail_ns, close_ns, open_ids_ns, repair_ns, submit_ns;
  std::vector<double> internal_ns;  ///< whole step of a manager-owned event
  std::vector<double> dispatch_ns;  ///< op step minus op callback
  std::vector<double> batch_core_ns;  ///< profiler window of one batch
};

struct ReplayOutcome {
  FabricStats stats;
  std::size_t open_at_end = 0;
  std::uint64_t executed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t events = 0;
  std::uint64_t internal_events = 0;
  std::uint64_t ticks = 0;  ///< simulated ticks that held events
  std::uint64_t wall_ns = 0;  ///< excludes the reference-kernel runs
  std::vector<double> tick_ns;
  std::vector<double> kernel_ns;  ///< reference-kernel runs between ticks
  std::string violation;  ///< empty when every check held
};

bool same_stats(const FabricStats& a, const FabricStats& b) {
  return a.submitted == b.submitted &&
         a.first_attempt_granted == b.first_attempt_granted &&
         a.ever_granted == b.ever_granted && a.grants == b.grants &&
         a.fail_events == b.fail_events &&
         a.repair_events == b.repair_events && a.victims == b.victims &&
         a.recovered == b.recovered && a.retries == b.retries &&
         a.shed == b.shed && a.closed == b.closed &&
         a.permanent_rejects == b.permanent_rejects &&
         a.abandoned == b.abandoned &&
         a.recovery_latency == b.recovery_latency &&
         a.retry_latency == b.retry_latency;
}

/// Replays the op script through a fresh FabricManager, scheduling every op
/// up front exactly as ChaosSoak::execute does (minus its epoch checks,
/// which only read state). Untraced, it steps run_until(t) over consecutive
/// ticks and times each tick, running `reference` (if given) every
/// kReferenceEveryTicks ticks; traced, it steps run(1) so op events and the
/// manager's own arrival/retry events are timed apart.
ReplayOutcome replay_churn(const ChurnFixture& f, ChurnTrace* trace,
                           std::vector<double>* verify_us,
                           ReferenceKernel* reference) {
  ReplayOutcome out;
  Simulator sim;
  FabricOptions options;
  options.scheduler = f.config.scheduler;
  options.seed = f.config.seed;
  options.retry = f.config.retry;
  options.max_pending = f.config.max_pending;
  options.horizon = (f.ops.empty() ? 0 : f.ops.back().time) + kHorizonSlack;
  options.profiler = trace != nullptr ? trace->prof : nullptr;
  FabricManager fabric(*f.tree, sim, options);
  std::vector<std::vector<Request>> batches = f.batches;

  // Traced bookkeeping of the op callback that ran in the current step.
  bool op_ran = false;
  std::uint64_t op_start = 0;
  std::uint64_t op_end = 0;
  std::uint64_t calls_ns = 0;  // public-call spans inside the op callback
  // Wraps one public FabricManager call in a span; the core time inside it
  // (profiler windows) is charged to core, the rest to fault.
  auto call = [&](const char* name, std::vector<double>* samples, auto&& fn) {
    if (trace == nullptr) return fn();
    const std::uint64_t core0 = trace->prof->total().wall_ns;
    const std::uint64_t t0 = now_ns();
    auto result = fn();
    const std::uint64_t t1 = now_ns();
    const std::uint64_t core = trace->prof->total().wall_ns - core0;
    trace->spans->add(name, t0, t1, sim.now());
    samples->push_back(static_cast<double>(t1 - t0));
    calls_ns += t1 - t0;
    trace->ledger.core += core;
    trace->ledger.fault += (t1 - t0) - std::min(core, t1 - t0);
    return result;
  };
  auto run_op = [&](std::size_t i) {
    if (!out.violation.empty()) return;
    const SoakOp& op = f.ops[i];
    switch (op.kind) {
      case SoakOpKind::kFail:
        if (fabric.cable_is_failed(op.cable)) {
          ++out.skipped;
          return;
        }
        call("fault.fail", trace ? &trace->fail_ns : nullptr, [&] {
          fabric.fail_cable(op.cable);
          return 0;
        });
        break;
      case SoakOpKind::kRepair:
        if (!fabric.cable_is_failed(op.cable)) {
          ++out.skipped;
          return;
        }
        call("fault.repair", trace ? &trace->repair_ns : nullptr, [&] {
          fabric.repair_cable(op.cable);
          return 0;
        });
        break;
      case SoakOpKind::kOpen:
        call("fault.submit", trace ? &trace->submit_ns : nullptr, [&] {
          fabric.submit(std::move(batches[i]), sim.now());
          return 0;
        });
        break;
      case SoakOpKind::kClose: {
        std::vector<ConnectionId> ids =
            call("fault.open_ids", trace ? &trace->open_ids_ns : nullptr,
                 [&] { return fabric.open_ids(); });
        if (ids.empty()) {
          ++out.skipped;
          return;
        }
        Xoshiro256ss pick_rng(op.draw);
        const std::size_t closes = std::min<std::size_t>(op.count, ids.size());
        for (std::size_t c = 0; c < closes; ++c) {
          const std::size_t pick = pick_rng.below(ids.size());
          const Status status =
              call("fault.close", trace ? &trace->close_ns : nullptr,
                   [&] { return fabric.close(ids[pick]); });
          if (!status.ok()) {
            out.violation = "close of a listed open circuit failed: " +
                            status.message();
            return;
          }
          ids[pick] = ids.back();
          ids.pop_back();
        }
        break;
      }
    }
    ++out.executed;
  };
  for (std::size_t i = 0; i < f.ops.size(); ++i) {
    sim.schedule_at(f.ops[i].time, [&, i] {
      if (trace == nullptr) return run_op(i);
      op_ran = true;
      calls_ns = 0;
      op_start = now_ns();
      run_op(i);
      op_end = now_ns();
    });
  }

  const std::uint64_t start = now_ns();
  std::uint64_t reference_ns = 0;
  if (trace == nullptr) {
    out.tick_ns.reserve(f.ops.size());
    for (SimTime t = 0; t <= options.horizon; ++t) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t events = sim.run_until(t);
      const std::uint64_t t1 = now_ns();
      if (events != 0) {
        out.tick_ns.push_back(static_cast<double>(t1 - t0));
        ++out.ticks;
        if (reference != nullptr && out.ticks % kReferenceEveryTicks == 0) {
          out.kernel_ns.push_back(reference->run());
          reference_ns += now_ns() - t1;  // not the replay's time
        }
      }
    }
    sim.run();  // nothing is due past the horizon; drains it if it were
  } else {
    SimTime last_tick = 0;
    bool any = false;
    while (true) {
      op_ran = false;
      const std::uint64_t core0 = trace->prof->total().wall_ns;
      const std::uint64_t t0 = now_ns();
      if (sim.run(1) == 0) break;
      const std::uint64_t t1 = now_ns();
      if (!any || sim.now() != last_tick) {
        ++out.ticks;
        last_tick = sim.now();
        any = true;
      }
      if (op_ran) {
        // The op callback is this file's code around the public calls,
        // which `call` has already charged to fault and core.
        const std::uint64_t dispatch = (t1 - t0) - (op_end - op_start);
        trace->spans->add("des.step", t0, t1, sim.now());
        trace->spans->add("bench.op", op_start, op_end, sim.now());
        trace->dispatch_ns.push_back(static_cast<double>(dispatch));
        trace->ledger.des += dispatch;
        trace->ledger.bench += (op_end - op_start) - calls_ns;
      } else {
        const std::uint64_t core = trace->prof->total().wall_ns - core0;
        trace->spans->add("fault.internal_event", t0, t1, sim.now());
        trace->internal_ns.push_back(static_cast<double>(t1 - t0));
        if (core != 0) {
          trace->batch_core_ns.push_back(static_cast<double>(core));
        }
        trace->ledger.core += core;
        trace->ledger.fault += (t1 - t0) - std::min(core, t1 - t0);
        ++out.internal_events;
      }
    }
  }
  out.wall_ns = now_ns() - start - reference_ns;
  if (trace != nullptr) trace->ledger.total += out.wall_ns;
  out.events = sim.events_processed();
  if (trace == nullptr) out.internal_events = out.events - f.ops.size();

  const std::uint64_t v0 = now_ns();
  const Status invariants = fabric.check_invariants();
  if (verify_us != nullptr) {
    verify_us->push_back(static_cast<double>(now_ns() - v0) / 1e3);
  }
  if (out.violation.empty() && !invariants.ok()) {
    out.violation = "invariant bundle: " + invariants.message();
  }
  out.stats = fabric.stats();
  out.open_at_end = fabric.open_circuits();
  return out;
}

RunResult run_churn_workload(std::uint64_t seed, double seconds, bool traced,
                             SpanLog& spans) {
  RunResult run;
  ReferenceKernel kernel(node_count(kChurnLevels, kChurnArity), kChurnArity);
  auto [f, setup_s] = timed_setup<ChurnFixture>(
      [&] { return setup_churn(seed); }, kernel);

  std::vector<double> verify_us;
  obs::ProfileSession prof;
  ChurnTrace trace;
  trace.spans = &spans;
  trace.prof = &prof;
  if (traced) prof.open();

  Timings timings;  // ticks of the untraced replays
  std::vector<double> wall_ns;
  std::vector<double> traced_wall_ns;
  ReplayOutcome first;
  bool have_first = false;
  auto check = [&](const ReplayOutcome& out) {
    run.attempted += f.ops.size();
    if (!out.violation.empty()) {
      run.failed += f.ops.size();
      run.fail(out.violation);
    }
    if (!have_first) {
      first = out;
      first.tick_ns.clear();
      have_first = true;
    } else if (!same_stats(out.stats, first.stats) ||
               out.open_at_end != first.open_at_end ||
               out.events != first.events ||
               out.executed != first.executed ||
               out.skipped != first.skipped) {
      run.failed += f.ops.size();
      run.fail("replay counts differ from the first replay");
    }
  };

  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t start = now_ns();
  double rss_mb = 0;
  for (std::uint64_t rep = 0;
       now_ns() - start < budget_ns || (traced && rep < 2); ++rep) {
    const bool trace_rep = traced && rep % 2 == 1;
    // Untraced replays of a traced run keep host time (see Timings).
    ReplayOutcome out = replay_churn(f, trace_rep ? &trace : nullptr,
                                     &verify_us, traced ? nullptr : &kernel);
    check(out);
    if (trace_rep) {
      traced_wall_ns.push_back(static_cast<double>(out.wall_ns));
    } else {
      wall_ns.push_back(static_cast<double>(out.wall_ns));
      timings.add(out.tick_ns, static_cast<double>(f.ops.size()),
                  static_cast<double>(out.wall_ns), kernel, out.kernel_ns,
                  kReferenceEveryTicks);
    }
    if (rep == 0) rss_mb = peak_rss_mb();
  }

  // The replay must land exactly where ChaosSoak::run() on the same config
  // lands, and repeat at the scalar SIMD level.
  const SoakReport reference = ChaosSoak(*f.tree, f.config).run();
  if (!reference.ok) run.fail("ChaosSoak::run(): " + reference.violation);
  if (!same_stats(reference.stats, first.stats) ||
      reference.open_at_end != first.open_at_end ||
      reference.executed != first.executed ||
      reference.skipped != first.skipped) {
    run.fail("replay differs from ChaosSoak::run() on the same config");
  }
  simd::force(simd::Level::kScalar);
  const ReplayOutcome other = replay_churn(f, nullptr, nullptr, nullptr);
  if (!same_stats(other.stats, first.stats) ||
      other.open_at_end != first.open_at_end || other.events != first.events) {
    run.fail("replay differs at simd level " +
             std::string(simd::to_string(simd::active())));
  }
  simd::use_auto();

  const FabricStats& st = first.stats;
  run.requested = st.submitted;
  run.rejected = st.submitted - st.ever_granted;
  const Summary summary = summarize(timings);
  run.samples = timings.samples.size();
  run.reference_scale = timings.scale();
  run.reference_granted = kernel.granted();
  const double ops_per_s = summary.units_per_s;
  const double tick_p50_us = summary.p50_ns / 1e3;
  MetricSet& m = run.metrics;
  if (!traced) {
    const double tick_p99_us = summary.p99_ns / 1e3;
    // One tick is the unit of work here: everything due at one simulated
    // time, which the manager schedules as one batch per arrival or drain.
    m.set("batch_us_p50", tick_p50_us);
    m.set("batch_us_p99", tick_p99_us);
    // Requests scheduled: first attempts plus retries, over the replay.
    m.set("requests_per_s",
          ops_per_s * ratio(st.submitted + st.retries, f.ops.size()));
    m.set("ops_per_s", ops_per_s);
    m.set("tick_us_p50", tick_p50_us);
    m.set("tick_us_p99", tick_p99_us);
    m.set("failed_ratio", ratio(run.rejected, run.requested));
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", rss_mb);
  } else {
    const double requests_per_tick =
        ratio(st.submitted + st.retries, first.ticks);
    const double model_us =
        model_batch_us(requests_per_tick, kChurnLevels, kChurnArity);
    m.set("core.schedule_us", median(trace.batch_core_ns) / 1e3);
    add_profile(m, prof);
    m.set("core.grants", st.grants);
    // FabricManager keeps its scheduler private, so no probe can attach:
    // the per-level rejects and rollback entries read 0 here.
    m.set("fault.fail_us_p50", quantile(trace.fail_ns, 0.5) / 1e3);
    m.set("fault.fail_us_p99", quantile(trace.fail_ns, 0.99) / 1e3);
    m.set("fault.close_us_p50", median(trace.close_ns) / 1e3);
    m.set("fault.open_ids_us_p50", median(trace.open_ids_ns) / 1e3);
    m.set("fault.repair_us_p50", median(trace.repair_ns) / 1e3);
    m.set("fault.submit_us_p50", median(trace.submit_ns) / 1e3);
    m.set("fault.internal_event_us_p50",
          quantile(trace.internal_ns, 0.5) / 1e3);
    m.set("fault.internal_event_us_p99",
          quantile(trace.internal_ns, 0.99) / 1e3);
    m.set("fault.victims_per_fail", ratio(st.victims, st.fail_events));
    m.set("fault.internal_events", first.internal_events);
    m.set("fault.retries", st.retries);
    m.set("fault.victims", st.victims);
    m.set("fault.recovered", st.recovered);
    m.set("fault.shed", st.shed);
    m.set("des.events", first.events);
    m.set("fault.retry_yield",
          ratio(st.grants - st.first_attempt_granted, st.retries));
    m.set("des.dispatch_ns_p50", median(trace.dispatch_ns));
    m.set("verify.batch_us", median(verify_us));
    m.set("hw.model_batch_us", model_us);
    m.set("hw.gap_x", ratio(tick_p50_us, model_us));
    m.set("obs.trace_overhead_x",
          ratio(median(traced_wall_ns), median(wall_ns)));
    m.set("obs.spans_dropped", spans.dropped());
    add_ledger(m, trace.ledger, run);
    m.set("workload.requested", run.requested);
    m.set("workload.rejected", run.rejected);
  }
  return run;
}

// --- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = std::stoi(value) != 0;
      else if (key == "--trace-out") args.trace_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

/// Timings from an unoptimized or instrumented build describe nothing a
/// user runs; refuse to report them.
bool measurable_build(std::string& why) {
  const std::string& build = obs::collect_env().build_type;
  if (build != "Release" && build != "RelWithDebInfo") {
    why = "build type '" + build + "' (need Release or RelWithDebInfo)";
    return false;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "sanitizer build";
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  why = "sanitizer build";
  return false;
#endif
#endif
  return true;
}

/// Prints the JSON result line: every catalog metric of the run's mode. An
/// end-to-end metric must have been measured; a per-layer metric the
/// workload did not set reads 0, as that layer does no such work there.
void print_result(const RunResult& run, bool traced) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (run.failures.empty() ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  const auto& values = run.metrics.values();
  std::size_t printed = 0;
  const char* separator = "";
  for (const MetricDef& def : traced ? std::span<const MetricDef>(kPerLayer)
                                     : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = values.find(def.name);
    FT_REQUIRE_MSG(traced || it != values.end(), def.name);
    double value = 0.0;
    if (it != values.end()) {
      value = it->second;
      ++printed;
    }
    os << separator << "\"" << def.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << def.unit << "\"}";
    separator = ", ";
  }
  FT_REQUIRE_MSG(printed == values.size(), "metric outside the catalog");
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload anchor-batch|wide-batch|"
                 "churn-faults --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n";
    return 2;
  }
  std::string why;
  if (!measurable_build(why)) {
    std::cerr << "perfbench: refusing to report from a " << why << "\n";
    return 3;
  }
  std::ostringstream env;
  obs::write_env_json(env, obs::collect_env());
  std::cout << "perfbench env " << env.str() << "\n";

  SpanLog spans;
  RunResult run;
  if (args.workload == "anchor-batch") {
    run = run_batch_workload(kAnchorBatch, args.seed, args.seconds, args.trace,
                             spans);
  } else if (args.workload == "wide-batch") {
    run = run_batch_workload(kWideBatch, args.seed, args.seconds, args.trace,
                             spans);
  } else if (args.workload == "churn-faults") {
    run = run_churn_workload(args.seed, args.seconds, args.trace, spans);
  } else {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (args.trace && !args.trace_out.empty()) {
    spans.write(args.trace_out, args.workload, args.seed);
  }
  std::cout << "perfbench failed_ratio " << run.rejected << "/"
            << run.requested << " requests\n";
  if (!args.trace) {
    std::cout << "perfbench samples " << run.samples
              << " untraced latency samples, p99 per window of " << kTailWindow
              << "\n";
    std::cout << "perfbench reference scale " << run.reference_scale
              << " (reference / host time over the run; kernel granted "
              << run.reference_granted << ")\n";
  }
  for (const std::string& failure : run.failures) {
    std::cerr << "perfbench: FAILED " << failure << "\n";
  }
  print_result(run, args.trace);
  return run.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ftsched

int main(int argc, char** argv) { return ftsched::run_main(argc, argv); }
