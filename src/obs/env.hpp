// EnvInfo — the machine/build fingerprint stamped into bench artifacts.
//
// Wall-clock and hardware-counter numbers only mean something relative to
// the box and the build that produced them. Every BENCH_*.json and profile
// JSONL carries this header so `ftreport`'s regression mode can refuse to
// silently compare numbers from different machines: when baseline and
// candidate envs differ it prints a warning naming the mismatching fields
// (the ratio gates still run — schedulability is machine-invariant; only
// the time-domain comparisons become suspect).
//
// Collection is best-effort and never fails: unreadable fields come back as
// "unknown" (e.g. the cpufreq governor inside most containers).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace ftsched::obs {

struct EnvInfo {
  std::string cpu_model;   ///< /proc/cpuinfo "model name" (first core)
  std::uint32_t cores = 0; ///< online hardware threads
  std::string compiler;    ///< __VERSION__ of the compiler that built obs/
  std::string build_type;  ///< CMAKE_BUILD_TYPE baked in at configure time
  std::string governor;    ///< cpu0 cpufreq governor, "unknown" if unreadable
};

/// Collects the fingerprint (cached after the first call — the answer
/// cannot change within one process).
const EnvInfo& collect_env();

/// Writes one JSON object: {"cpu":"...","cores":N,"compiler":"...",
/// "build":"...","governor":"..."} — the `env` header the bench JSON
/// schema and the profile JSONL v1 header embed.
void write_env_json(std::ostream& os, const EnvInfo& env);

}  // namespace ftsched::obs
