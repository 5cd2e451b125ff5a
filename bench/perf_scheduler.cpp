// Throughput microbenchmarks (google-benchmark): how fast is the software
// implementation of each scheduler, and do the primitives scale the way the
// complexity claims say (O(l·N) total work for the level-wise scheduler,
// one AND + find-first per request-level)?
//
// Extra flags (consumed here, stripped before google-benchmark sees argv):
//   --profile                 after the timed run, replay the BM_Levelwise
//                             and BM_Local grids with the cost profiler
//                             attached, write PROFILE_perf_scheduler.jsonl,
//                             and splice a "profile" block into the JSON
//                             artifact (the input of ftreport --perf).
//   --profile-backend=timer   force the wall-clock fallback backend.
// The profiled replay is separate from the timed gbench loops, so
// attribution overhead never pollutes the throughput numbers.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "fig9_common.hpp"
#include "hw/pipeline.hpp"
#include "stats/runner.hpp"
#include "workload/patterns.hpp"

namespace ftsched {
namespace {

const FatTree& tree_for(std::uint32_t levels, std::uint32_t w) {
  // Benchmarks reuse topologies; cache them keyed by (levels, w).
  static std::map<std::pair<std::uint32_t, std::uint32_t>, FatTree>* cache =
      new std::map<std::pair<std::uint32_t, std::uint32_t>, FatTree>();
  auto it = cache->find({levels, w});
  if (it == cache->end()) {
    it = cache->emplace(std::pair{levels, w}, FatTree::symmetric(levels, w))
             .first;
  }
  return it->second;
}

void schedule_benchmark(benchmark::State& state, const char* scheduler_name) {
  const auto levels = static_cast<std::uint32_t>(state.range(0));
  const auto w = static_cast<std::uint32_t>(state.range(1));
  const FatTree& tree = tree_for(levels, w);
  const std::unique_ptr<Scheduler> scheduler =
      make_scheduler(scheduler_name, 1).value();
  Xoshiro256ss rng(42);
  const auto batch = random_permutation(tree.node_count(), rng);
  LinkState link_state(tree);
  for (auto _ : state) {
    link_state.reset();
    benchmark::DoNotOptimize(scheduler->schedule(tree, batch, link_state));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
  state.counters["nodes"] = static_cast<double>(tree.node_count());
}

void BM_Levelwise(benchmark::State& state) {
  schedule_benchmark(state, "levelwise");
}
void BM_Local(benchmark::State& state) { schedule_benchmark(state, "local"); }
void BM_Turnback(benchmark::State& state) {
  schedule_benchmark(state, "turnback");
}
void BM_Matching2(benchmark::State& state) {
  schedule_benchmark(state, "matching2");
}

BENCHMARK(BM_Levelwise)
    ->Args({2, 16})
    ->Args({2, 64})
    ->Args({3, 8})
    ->Args({3, 16})
    ->Args({4, 7});
BENCHMARK(BM_Local)->Args({2, 64})->Args({3, 16})->Args({4, 7});
BENCHMARK(BM_Turnback)->Args({3, 8})->Args({3, 16});
BENCHMARK(BM_Matching2)->Args({2, 16})->Args({2, 64});

// End-to-end experiment engine at varying fan-out widths: the paper grid's
// unit of work (one fig9b point: schedule + verify, 100 permutations) as a
// function of --threads. On a single-core host the >1 widths measure pure
// pool overhead; on a real machine they trace the scaling curve recorded in
// docs/PERFORMANCE.md. Results are bit-identical across widths (tested by
// Runner.* determinism tests), so every width does the same work.
void BM_ExperimentEngine(benchmark::State& state) {
  const FatTree& tree = tree_for(3, 8);
  ExperimentConfig config;
  config.scheduler = "levelwise";
  config.repetitions = 32;
  config.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_experiment(tree, config));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(config.repetitions * tree.node_count()));
  state.counters["threads"] = static_cast<double>(config.threads);
}
BENCHMARK(BM_ExperimentEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineSchedule(benchmark::State& state) {
  const auto w = static_cast<std::uint32_t>(state.range(0));
  const FatTree& tree = tree_for(3, w);
  LevelwisePipeline pipeline(tree);
  Xoshiro256ss rng(7);
  const auto batch = random_permutation(tree.node_count(), rng);
  for (auto _ : state) {
    pipeline.reset();
    benchmark::DoNotOptimize(pipeline.schedule(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PipelineSchedule)->Arg(4)->Arg(8)->Arg(16);

void BM_AscendPrimitive(benchmark::State& state) {
  const FatTree& tree = tree_for(4, 7);
  std::uint64_t index = 0;
  std::uint32_t port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.ascend(0, index, port));
    index = (index + 123) % tree.switches_at(0);
    port = (port + 1) % 7;
  }
}
BENCHMARK(BM_AscendPrimitive);

void BM_FirstAvailablePort(benchmark::State& state) {
  const FatTree& tree = tree_for(2, 64);
  LinkState link_state(tree);
  // Half-occupied rows: realistic mid-batch AND work.
  Xoshiro256ss rng(3);
  for (std::uint64_t sw = 0; sw < link_state.rows_at(0); ++sw) {
    for (std::uint32_t p = 0; p < 64; ++p) {
      if (rng.below(2)) link_state.set_ulink(0, sw, p, false);
      if (rng.below(2)) link_state.set_dlink(0, sw, p, false);
    }
  }
  std::uint64_t a = 0;
  std::uint64_t b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link_state.first_available_port(0, a, b));
    a = (a + 7) % link_state.rows_at(0);
    b = (b + 13) % link_state.rows_at(0);
  }
}
BENCHMARK(BM_FirstAvailablePort);

// --profile replay: the same workload derivation as schedule_benchmark
// (seed-42 permutation, reset link state per batch) with a ProfileSession
// attached, so the attribution describes exactly the code the timed loops
// measured. Few repetitions suffice: the profiler aggregates per-request
// averages, not wall-time distributions.
constexpr std::size_t kProfileReps = 16;

void profile_grid_point(std::deque<bench::ProfiledPoint>& out,
                        const char* scheduler_name, std::uint32_t levels,
                        std::uint32_t w,
                        obs::PerfCounters::Request request) {
  const FatTree& tree = tree_for(levels, w);
  auto scheduler = make_scheduler(scheduler_name, 1).value();
  Xoshiro256ss rng(42);
  const auto batch = random_permutation(tree.node_count(), rng);
  LinkState link_state(tree);
  bench::ProfiledPoint& pp = out.emplace_back();
  pp.label = std::string(scheduler_name) + "/l" + std::to_string(levels) +
             "w" + std::to_string(w);
  pp.session.set_request(request);
  pp.session.open();
  scheduler->set_profiler(&pp.session);
  for (std::size_t rep = 0; rep < kProfileReps; ++rep) {
    link_state.reset();
    pp.session.begin_batch();
    const ScheduleResult result =
        scheduler->schedule(tree, batch, link_state);
    pp.session.end_batch(result.outcomes.size());
  }
}

std::deque<bench::ProfiledPoint> run_profile_passes(
    obs::PerfCounters::Request request) {
  std::deque<bench::ProfiledPoint> out;
  const std::pair<std::uint32_t, std::uint32_t> levelwise_grid[] = {
      {2, 16}, {2, 64}, {3, 8}, {3, 16}, {4, 7}};
  for (const auto& [levels, w] : levelwise_grid) {
    profile_grid_point(out, "levelwise", levels, w, request);
  }
  const std::pair<std::uint32_t, std::uint32_t> local_grid[] = {
      {2, 64}, {3, 16}, {4, 7}};
  for (const auto& [levels, w] : local_grid) {
    profile_grid_point(out, "local", levels, w, request);
  }
  return out;
}

/// Standalone profile artifact: JSONL v1, same schema the CLI --profile-out
/// writes. ftreport --perf consumes either this file or the embedded block.
void write_profile_jsonl(const std::string& path,
                         const std::deque<bench::ProfiledPoint>& profiled) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    return;
  }
  const obs::PerfBackend backend =
      profiled.empty() ? obs::PerfBackend::kTimer
                       : profiled.front().session.backend();
  obs::ProfileSession::write_jsonl_header(os, "perf_scheduler", backend);
  for (const bench::ProfiledPoint& pp : profiled) {
    pp.session.write_jsonl_point(os, pp.label);
  }
  std::cout << "wrote " << path << " (" << profiled.size() << " points, "
            << obs::to_string(backend) << " backend)\n";
}

/// Rewrites the google-benchmark JSON artifact with `,"profile":{...}`
/// spliced in before the document's final `}` — one self-contained file for
/// ftreport, same embedded-block shape as the fig9 benches.
void splice_profile_block(const std::string& path,
                          const std::deque<bench::ProfiledPoint>& profiled) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot reopen " << path << " to embed the profile\n";
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  const std::string doc = buffer.str();
  const std::size_t brace = doc.find_last_of('}');
  if (brace == std::string::npos) {
    std::cerr << path << ": no JSON object to embed the profile into\n";
    return;
  }
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::cerr << "cannot rewrite " << path << "\n";
    return;
  }
  os << doc.substr(0, brace) << ',';
  bench::write_profile_block(os, profiled);
  os << doc.substr(brace);
  std::cout << "embedded profile block into " << path << "\n";
}

}  // namespace
}  // namespace ftsched

// Expanded BENCHMARK_MAIN: unless the caller already chose an output file,
// drop the machine-readable BENCH_perf_scheduler.json next to the console
// report, so CI and the perf-regression workflow always get JSON for free.
int main(int argc, char** argv) {
  // Our flags first: strip them so google-benchmark never sees them.
  bool profile = false;
  auto request = ftsched::obs::PerfCounters::Request::kAuto;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.push_back(argv[0]);
  std::string out_path = "BENCH_perf_scheduler.json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile") {
      profile = true;
    } else if (arg == "--profile-backend=timer") {
      request = ftsched::obs::PerfCounters::Request::kTimer;
    } else if (arg == "--profile-backend=auto") {
      request = ftsched::obs::PerfCounters::Request::kAuto;
    } else {
      if (arg.rfind("--benchmark_out=", 0) == 0) {
        has_out = true;
        out_path = arg.substr(16);
      } else if (arg.rfind("--benchmark_out", 0) == 0) {
        has_out = true;
      }
      args.push_back(argv[i]);
    }
  }
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (profile) {
    const auto profiled = ftsched::run_profile_passes(request);
    ftsched::write_profile_jsonl("PROFILE_perf_scheduler.jsonl", profiled);
    ftsched::splice_profile_block(out_path, profiled);
  }
  return 0;
}
