// simd — a header-only stub that exists only for perfbench's scalar re-run.
//
// The repo has no vector dispatch layer: every scheduler ANDs and scans one
// request's rows at a time inline in LinkState (docs/PERFORMANCE.md §4).
// perfbench/perfbench.cpp still re-runs each workload after
// force(Level::kScalar) and compares the results; these five names keep
// that program compiling, and every call is a no-op at the one level there
// is. No other file includes this header. It goes away once perfbench
// drops the re-run.
#pragma once

#include <cstdint>
#include <string_view>

namespace ftsched::simd {

enum class Level : std::uint8_t { kScalar = 0 };

inline std::string_view to_string(Level /*level*/) { return "scalar"; }

inline void force(Level /*level*/) {}

inline void use_auto() {}

inline Level active() { return Level::kScalar; }

}  // namespace ftsched::simd
