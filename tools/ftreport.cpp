// ftreport — offline analysis and regression gate for the observability
// outputs this repository emits (docs/OBSERVABILITY.md documents every
// producer).
//
// Report mode: ingest any subset of the artifacts and render one Markdown
// report (optionally a flat CSV as well):
//
//   ftreport report [--metrics FILE.jsonl] [--telemetry FILE.jsonl]
//                   [--trace FILE.json] [--bench BENCH_*.json]
//                   [--flight FILE.jsonl] [--profile FILE]
//                   [--out report.md] [--csv report.csv]
//
//   * --bench      fig9-schema schedulability table per sweep point; when
//                  the file embeds a "profile" block (bench --profile runs)
//                  the hot-path profile section renders too. Chaos-soak
//                  artifacts ({"bench":"chaos_soak"}, from `ftsched soak
//                  --json=FILE`) render a soak summary instead — and a
//                  recorded violation fails the report run with exit 2, so
//                  a CI soak job goes red off the artifact alone
//   * --metrics    MetricsRegistry JSONL: scheduling totals, rejection
//                  breakdown by level and by reason, fabric utilization
//   * --telemetry  LinkTelemetry series JSONL: per-level utilization,
//                  level x stage occupancy heatmap (stages = tenths of the
//                  sample window), saturation histograms, top contended links
//   * --trace      Chrome trace JSON: duration-span rollups by name
//   * --flight     FlightRecorder dump (format v1): per-circuit lifecycle
//                  ledger stitched by request id — admission-latency and
//                  revocation-to-recovery p50/p99, worst-offender circuit
//                  timelines, recovery burn-down over simulated time
//   * --profile    hot-path profile (docs/PERFORMANCE.md): either the JSONL
//                  artifact (ftsched --profile-out, PROFILE_*.jsonl) or any
//                  BENCH_*.json with an embedded "profile" block — derived
//                  per-request costs and the per-(phase, level) self-cost
//                  attribution per point
//
// Regression mode: diff two benchmark JSON files and exit nonzero when the
// candidate got worse — the CI bench gate:
//
//   ftreport --baseline old.json --candidate new.json [--threshold 5%]
//            [--perf]
//
// Three schemas are auto-detected. The repo's fig9 schema ({"bench","reps",
// "points":[...]}) gates on the schedulability `mean` (deterministic for a
// fixed seed, so tight thresholds are safe across machines); --perf
// additionally gates on `requests_per_sec` (machine-dependent — only
// meaningful when both files come from the same box). The degradation
// schema (points carry "fault_rate") gates each (point, rate) on the
// schedulability / open_ratio / ever_granted means and the recovery success
// ratio. google-benchmark JSON ({"benchmarks":[...]}) gates on
// `items_per_second` when present, else `real_time`; a benchmark run with
// --benchmark_repetitions gates on its `median` aggregate row only (its
// `mean`, `stddev` and `cv` rows and single runs are not gated). A
// benchmark present in the baseline but missing from the candidate is a
// failure; new candidate entries are reported but pass.
//
// Profile gate: when the baseline is a profile JSONL artifact (auto-detected
// off its header line), or under --perf when both documents embed "profile"
// blocks, every baseline point gates on derived.instructions_per_request
// (lower is better — the machine-portable cost metric; wall clock and cache
// misses are too noisy to gate on). The gate only fires from perf_event
// data: timer-backend artifacts warn and pass, so CI degrades gracefully on
// PMU-less runners. Mismatched env fingerprints (cpu/cores/compiler/build/
// governor) warn but still compare — instructions retired barely move
// across same-ISA boxes.
//
// Anchor mode: pin the degradation engine's fault-free baseline to the
// one-shot fig9 bench — the two must agree bit for bit (same seeds, same
// scheduler), and the degradation file must be internally consistent
// (ratios in [0,1], victims >= recovered, latency percentiles ordered):
//
//   ftreport anchor --degradation BENCH_degradation.json
//            --fig9 BENCH_fig9a_twolevel.json [--scheduler levelwise]
//
// Rate-0 points whose (levels, arity) appear in the fig9 file must match
// that scheduler's mean/min/max/stddev exactly; any tolerance would hide a
// seed-derivation drift. Multi-scheduler sweeps carry a per-point
// "scheduler" field, which overrides --scheduler for that point; points
// whose scheduler has no fig9 column are consistency-checked but not
// pinned.
//
// Quality mode: the degradation-quality gate. Within ONE multi-scheduler
// degradation sweep, compare a capacity-weighted candidate policy against
// an oblivious baseline at every (topology, fault rate) point both were
// swept at:
//
//   ftreport quality --bench BENCH_degradation.json
//            [--baseline-scheduler levelwise]
//            [--candidate-scheduler levelwise-balanced]
//            [--max-sched-drop 0.02]
//
// The candidate must carry a strictly lower plane hot-spot score
// (imbalance_hotspot.mean) at every faulted rate — balanced routing must
// actually spread load over the surviving subtree planes — while keeping
// schedulability within max-sched-drop (relative) of the baseline; pass 0
// to demand equal-or-better schedulability outright. Both sides are
// deterministic per seed, so the gate is exact, not statistical.
//
// Exit codes: 0 = ok / no regression, 1 = regression, missing benchmark,
// anchor mismatch, or quality-gate failure, 2 = usage or parse error.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

// --- Minimal JSON ----------------------------------------------------------
// Recursive-descent parser for the subset of RFC 8259 the repo's writers
// emit (they never produce exotic numbers, and escapes beyond \uXXXX basic
// plane are absent). Objects keep insertion order so report tables follow
// the producer's ordering.

struct JsonValue {
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num_or(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string& error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing content at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  bool fail(std::string& error, const std::string& what) {
    error = what + " at offset " + std::to_string(pos_);
    return false;
  }

  bool parse_value(JsonValue& out, std::string& error) {
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, error);
      case '[':
        return parse_array(out, error);
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.str, error);
      case 't':
        if (text_.compare(pos_, 4, "true") != 0) return fail(error, "bad literal");
        pos_ += 4;
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (text_.compare(pos_, 5, "false") != 0) return fail(error, "bad literal");
        pos_ += 5;
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (text_.compare(pos_, 4, "null") != 0) return fail(error, "bad literal");
        pos_ += 4;
        out.type = JsonValue::Type::kNull;
        return true;
      default:
        return parse_number(out, error);
    }
  }

  bool parse_object(JsonValue& out, std::string& error) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(error, "expected object key");
      }
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail(error, "expected ':'");
      }
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, std::string& error) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, error)) return false;
      out.array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out, std::string& error) {
    ++pos_;  // opening '"'
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail(error, "bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail(error, "bad \\u escape");
          }
          // UTF-8 encode the basic-plane code point (the repo's writers
          // only escape control characters, all below U+0800).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail(error, "bad escape");
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_number(JsonValue& out, std::string& error) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail(error, "expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return fail(error, "bad number");
    }
    out.type = JsonValue::Type::kNumber;
    return true;
  }
};

bool parse_file(const std::string& path, JsonValue& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ftreport: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::string error;
  if (!JsonParser(text).parse(out, error)) {
    std::cerr << "ftreport: " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

/// Parses a JSON-lines file: one JsonValue per non-empty line.
bool parse_jsonl_file(const std::string& path, std::vector<JsonValue>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ftreport: cannot open " << path << "\n";
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue value;
    std::string error;
    if (!JsonParser(line).parse(value, error)) {
      std::cerr << "ftreport: " << path << ":" << lineno << ": " << error
                << "\n";
      return false;
    }
    out.push_back(std::move(value));
  }
  return true;
}

// --- Formatting helpers ----------------------------------------------------

std::string fmt(double v, int precision = 4) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  std::string s = os.str();
  // Trim trailing zeros (but keep one digit after the point).
  const auto dot = s.find('.');
  if (dot != std::string::npos) {
    auto last = s.find_last_not_of('0');
    if (last == dot) ++last;
    s.erase(last + 1);
  }
  return s;
}

std::string fmt_pct(double fraction) { return fmt(fraction * 100.0, 1) + "%"; }

/// Five-step cell shading for the Markdown heatmap (text-only, renders in
/// any viewer).
std::string_view shade(double fraction) {
  if (fraction >= 0.8) return "#### ";
  if (fraction >= 0.6) return "###  ";
  if (fraction >= 0.4) return "##   ";
  if (fraction >= 0.2) return "#    ";
  return ".    ";
}

// --- Profile artifacts -----------------------------------------------------

/// Normalized view of a hot-path profile, whichever container it came in:
/// the JSONL artifact (--profile-out / PROFILE_*.jsonl, one header line plus
/// one {"type":"point"} line per point) or the "profile" block a bench run
/// with --profile embeds in its BENCH_*.json.
struct ProfileDoc {
  std::string bench;
  std::string backend;
  JsonValue env;                  ///< kObject when the producer recorded one
  std::vector<JsonValue> points;  ///< point objects: label/total/phases/derived
};

bool extract_profile_block(const JsonValue& doc, ProfileDoc& out) {
  const JsonValue* block = doc.find("profile");
  if (!block || block->type != JsonValue::Type::kObject) return false;
  const JsonValue* backend = block->find("backend");
  if (backend && backend->type == JsonValue::Type::kString) {
    out.backend = backend->str;
  }
  const JsonValue* bench = doc.find("bench");
  if (bench && bench->type == JsonValue::Type::kString) out.bench = bench->str;
  if (const JsonValue* env = block->find("env")) out.env = *env;
  const JsonValue* points = block->find("points");
  if (points && points->type == JsonValue::Type::kArray) {
    out.points = points->array;
  }
  return true;
}

/// True when the file's first non-empty line is a profile JSONL header —
/// the cheap sniff that routes --baseline/--profile paths to the right
/// parser without noisy double-parse errors.
bool looks_like_profile_jsonl(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue value;
    std::string error;
    if (!JsonParser(line).parse(value, error)) return false;
    const JsonValue* type = value.find("type");
    return type && type->type == JsonValue::Type::kString &&
           type->str == "profile";
  }
  return false;
}

bool load_profile_jsonl(const std::string& path, ProfileDoc& out) {
  std::vector<JsonValue> lines;
  if (!parse_jsonl_file(path, lines)) return false;
  bool saw_header = false;
  for (const JsonValue& line : lines) {
    const JsonValue* type = line.find("type");
    if (!type || type->type != JsonValue::Type::kString) continue;
    if (type->str == "profile") {
      saw_header = true;
      const JsonValue* backend = line.find("backend");
      if (backend && backend->type == JsonValue::Type::kString) {
        out.backend = backend->str;
      }
      const JsonValue* bench = line.find("bench");
      if (bench && bench->type == JsonValue::Type::kString) {
        out.bench = bench->str;
      }
      if (const JsonValue* env = line.find("env")) out.env = *env;
    } else if (type->str == "point") {
      if (const JsonValue* point = line.find("point")) {
        out.points.push_back(*point);
      }
    }
  }
  if (!saw_header) {
    std::cerr << "ftreport: " << path << ": no profile header line\n";
    return false;
  }
  return true;
}

/// Loads a profile from either container format.
bool load_profile_any(const std::string& path, ProfileDoc& out) {
  if (looks_like_profile_jsonl(path)) return load_profile_jsonl(path, out);
  JsonValue doc;
  if (!parse_file(path, doc)) return false;
  if (!extract_profile_block(doc, out)) {
    std::cerr << "ftreport: " << path << ": no \"profile\" block (was the"
                 " bench run with --profile?)\n";
    return false;
  }
  return true;
}

std::string env_summary(const JsonValue& env) {
  if (env.type != JsonValue::Type::kObject) return "not recorded";
  const auto str = [&](const char* key) {
    const JsonValue* v = env.find(key);
    return v && v->type == JsonValue::Type::kString ? v->str
                                                    : std::string("?");
  };
  const JsonValue* cores = env.find("cores");
  return str("cpu") + ", " + fmt(cores ? cores->num_or(0) : 0, 0) +
         " cores, compiler " + str("compiler") + ", " + str("build") +
         " build, governor " + str("governor");
}

/// Field-by-field diff of two env fingerprints. Empty when either side did
/// not record one (old artifacts) — absence is not a mismatch.
std::vector<std::string> env_mismatches(const JsonValue& base,
                                        const JsonValue& cand) {
  std::vector<std::string> diffs;
  if (base.type != JsonValue::Type::kObject ||
      cand.type != JsonValue::Type::kObject) {
    return diffs;
  }
  for (const char* key :
       {"cpu", "cores", "compiler", "build", "governor"}) {
    const JsonValue* b = base.find(key);
    const JsonValue* c = cand.find(key);
    if (!b || !c) continue;
    const std::string bs =
        b->type == JsonValue::Type::kString ? b->str : fmt(b->num_or(0), 0);
    const std::string cs =
        c->type == JsonValue::Type::kString ? c->str : fmt(c->num_or(0), 0);
    if (bs != cs) {
      diffs.push_back(std::string(key) + ": '" + bs + "' vs '" + cs + "'");
    }
  }
  return diffs;
}

void warn_env_mismatches(const JsonValue& base, const JsonValue& cand) {
  for (const std::string& diff : env_mismatches(base, cand)) {
    std::cout << "warning: baseline and candidate env differ — " << diff
              << " (comparing anyway; prefer same-box artifacts)\n";
  }
}

// --- CLI arguments ---------------------------------------------------------

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
};

/// Accepts --flag=value, --flag value, and bare --flag (stored as "1").
bool parse_args(const std::vector<std::string>& argv,
                const std::vector<std::string>& value_flags, Args& out) {
  const auto takes_value = [&](const std::string& name) {
    return std::find(value_flags.begin(), value_flags.end(), name) !=
           value_flags.end();
  };
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      out.positional.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      out.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      continue;
    }
    const std::string name = arg.substr(2);
    if (takes_value(name)) {
      if (i + 1 >= argv.size()) {
        std::cerr << "ftreport: --" << name << " needs a value\n";
        return false;
      }
      out.flags[name] = argv[++i];
    } else {
      out.flags[name] = "1";
    }
  }
  return true;
}

void usage(std::ostream& os) {
  os << "usage:\n"
     << "  ftreport report [--metrics FILE.jsonl] [--telemetry FILE.jsonl]\n"
     << "                  [--trace FILE.json] [--bench BENCH.json]\n"
     << "                  [--flight FILE.jsonl] [--profile FILE]\n"
     << "                  [--out report.md] [--csv report.csv]\n"
     << "  ftreport --baseline OLD.json --candidate NEW.json\n"
     << "           [--threshold PCT[%]] [--perf]\n"
     << "           (profile JSONL baselines gate instructions/request;\n"
     << "            --perf also gates embedded \"profile\" blocks)\n"
     << "  ftreport anchor --degradation BENCH_degradation.json\n"
     << "           --fig9 BENCH_fig9*.json [--scheduler levelwise]\n"
     << "  ftreport quality --bench BENCH_degradation.json\n"
     << "           [--baseline-scheduler levelwise]\n"
     << "           [--candidate-scheduler levelwise-balanced]\n"
     << "           [--max-sched-drop 0.02]\n"
     << "exit: 0 ok, 1 regression/missing benchmark/anchor or quality-gate\n"
     << "      failure, 2 usage or parse error\n";
}

// --- Regression gate -------------------------------------------------------

struct Comparison {
  std::string name;    ///< benchmark identity (point + scheduler, or gbench name)
  std::string metric;  ///< which field was compared
  double baseline = 0.0;
  double candidate = 0.0;
  bool higher_is_better = true;
  bool missing = false;  ///< in baseline but absent from candidate
};

bool is_regression(const Comparison& c, double threshold_pct) {
  if (c.missing) return true;
  const double slack = threshold_pct / 100.0;
  if (c.baseline == 0.0) {
    // Nothing to lose; only a sign flip in a lower-is-better metric could
    // regress, which no producer emits.
    return false;
  }
  if (c.higher_is_better) return c.candidate < c.baseline * (1.0 - slack);
  return c.candidate > c.baseline * (1.0 + slack);
}

double delta_pct(const Comparison& c) {
  if (c.baseline == 0.0) return 0.0;
  return (c.candidate - c.baseline) / c.baseline * 100.0;
}

/// fig9 schema: gate every (point, scheduler) pair on the schedulability
/// mean; with `perf` also on requests_per_sec.
bool compare_fig9(const JsonValue& base, const JsonValue& cand, bool perf,
                  std::vector<Comparison>& out) {
  const JsonValue* base_points = base.find("points");
  const JsonValue* cand_points = cand.find("points");
  if (!base_points || base_points->type != JsonValue::Type::kArray ||
      !cand_points || cand_points->type != JsonValue::Type::kArray) {
    std::cerr << "ftreport: fig9 schema: missing \"points\" array\n";
    return false;
  }
  const auto point_key = [](const JsonValue& point) {
    const JsonValue* levels = point.find("levels");
    const JsonValue* arity = point.find("arity");
    return "levels=" + fmt(levels ? levels->num_or(0) : 0, 0) +
           " arity=" + fmt(arity ? arity->num_or(0) : 0, 0);
  };
  for (const JsonValue& bp : base_points->array) {
    const std::string key = point_key(bp);
    const JsonValue* cp = nullptr;
    for (const JsonValue& candidate_point : cand_points->array) {
      if (point_key(candidate_point) == key) {
        cp = &candidate_point;
        break;
      }
    }
    const JsonValue* base_scheds = bp.find("schedulers");
    if (!base_scheds || base_scheds->type != JsonValue::Type::kObject) continue;
    const JsonValue* cand_scheds = cp ? cp->find("schedulers") : nullptr;
    for (const auto& [sched, base_stats] : base_scheds->object) {
      const JsonValue* cand_stats =
          cand_scheds ? cand_scheds->find(sched) : nullptr;
      const auto emit = [&](const char* field, bool higher_better) {
        const JsonValue* bv = base_stats.find(field);
        if (!bv || bv->type != JsonValue::Type::kNumber) return;
        Comparison c;
        c.name = key + " " + sched;
        c.metric = field;
        c.baseline = bv->number;
        c.higher_is_better = higher_better;
        const JsonValue* cv = cand_stats ? cand_stats->find(field) : nullptr;
        if (!cv || cv->type != JsonValue::Type::kNumber) {
          c.missing = true;
        } else {
          c.candidate = cv->number;
        }
        out.push_back(std::move(c));
      };
      emit("mean", true);
      if (perf) emit("requests_per_sec", true);
    }
  }
  return true;
}

bool points_have_fault_rate(const JsonValue& doc) {
  const JsonValue* points = doc.find("points");
  if (!points || points->type != JsonValue::Type::kArray ||
      points->array.empty()) {
    return false;
  }
  return points->array.front().find("fault_rate") != nullptr;
}

/// Degradation schema: every (levels, arity, fault_rate) point gates on the
/// three service-level means and the recovery success ratio. All four are
/// deterministic per seed, so the default threshold is safe cross-machine.
bool compare_degradation(const JsonValue& base, const JsonValue& cand,
                         std::vector<Comparison>& out) {
  const JsonValue* base_points = base.find("points");
  const JsonValue* cand_points = cand.find("points");
  if (!base_points || base_points->type != JsonValue::Type::kArray ||
      !cand_points || cand_points->type != JsonValue::Type::kArray) {
    std::cerr << "ftreport: degradation schema: missing \"points\" array\n";
    return false;
  }
  const auto point_key = [](const JsonValue& point) {
    const JsonValue* levels = point.find("levels");
    const JsonValue* arity = point.find("arity");
    const JsonValue* rate = point.find("fault_rate");
    std::string key = "levels=" + fmt(levels ? levels->num_or(0) : 0, 0) +
                      " arity=" + fmt(arity ? arity->num_or(0) : 0, 0) +
                      " rate=" + fmt(rate ? rate->num_or(0) : 0, 2);
    // Multi-scheduler sweeps key the scheduler too; single-scheduler files
    // (no "scheduler" field) keep the legacy key, so old baselines compare.
    const JsonValue* sched = point.find("scheduler");
    if (sched && sched->type == JsonValue::Type::kString) {
      key += " scheduler=" + sched->str;
    }
    return key;
  };
  for (const JsonValue& bp : base_points->array) {
    const std::string key = point_key(bp);
    const JsonValue* cp = nullptr;
    for (const JsonValue& candidate_point : cand_points->array) {
      if (point_key(candidate_point) == key) {
        cp = &candidate_point;
        break;
      }
    }
    const auto emit_mean = [&](const char* section, bool higher_is_better) {
      const JsonValue* bs = bp.find(section);
      const JsonValue* bv = bs ? bs->find("mean") : nullptr;
      if (!bv || bv->type != JsonValue::Type::kNumber) return;
      Comparison c;
      c.name = key;
      c.metric = std::string(section) + ".mean";
      c.baseline = bv->number;
      c.higher_is_better = higher_is_better;
      const JsonValue* cs = cp ? cp->find(section) : nullptr;
      const JsonValue* cv = cs ? cs->find("mean") : nullptr;
      if (!cv || cv->type != JsonValue::Type::kNumber) {
        c.missing = true;
      } else {
        c.candidate = cv->number;
      }
      out.push_back(std::move(c));
    };
    emit_mean("schedulability", true);
    emit_mean("open_ratio", true);
    emit_mean("ever_granted", true);
    // Load-quality means are lower-is-better: a candidate that keeps the
    // same service ratios but piles its circuits onto fewer planes regresses.
    emit_mean("imbalance_max_over_mean", false);
    emit_mean("imbalance_hotspot", false);
    const JsonValue* bv = bp.find("recovery_success_ratio");
    if (bv && bv->type == JsonValue::Type::kNumber) {
      Comparison c;
      c.name = key;
      c.metric = "recovery_success_ratio";
      c.baseline = bv->number;
      const JsonValue* cv = cp ? cp->find("recovery_success_ratio") : nullptr;
      if (!cv || cv->type != JsonValue::Type::kNumber) {
        c.missing = true;
      } else {
        c.candidate = cv->number;
      }
      out.push_back(std::move(c));
    }
  }
  return true;
}

/// The string member `key` of a google-benchmark row, or "" when absent.
std::string_view gbench_field(const JsonValue& row, std::string_view key) {
  const JsonValue* v = row.find(key);
  return v && v->type == JsonValue::Type::kString ? std::string_view(v->str)
                                                  : std::string_view();
}

/// The benchmark a row belongs to: `run_name` (shared by a benchmark's
/// single runs and its aggregate rows), else the row name.
std::string_view gbench_run(const JsonValue& row) {
  const std::string_view run = gbench_field(row, "run_name");
  return run.empty() ? gbench_field(row, "name") : run;
}

/// google-benchmark schema: gate on items_per_second when both sides have
/// it, otherwise real_time. With --benchmark_repetitions a benchmark also
/// gets aggregate rows (run_type "aggregate": mean, median, stddev, cv).
/// Only the median is compared then: stddev and cv measure spread, not
/// throughput, and the single runs are what the median summarises.
bool compare_gbench(const JsonValue& base, const JsonValue& cand,
                    std::vector<Comparison>& out) {
  const JsonValue* base_benches = base.find("benchmarks");
  const JsonValue* cand_benches = cand.find("benchmarks");
  if (!base_benches || base_benches->type != JsonValue::Type::kArray ||
      !cand_benches || cand_benches->type != JsonValue::Type::kArray) {
    std::cerr << "ftreport: google-benchmark schema: missing \"benchmarks\"\n";
    return false;
  }
  std::vector<std::string_view> aggregated;
  for (const JsonValue& bb : base_benches->array) {
    if (gbench_field(bb, "run_type") == "aggregate") {
      aggregated.push_back(gbench_run(bb));
    }
  }
  for (const JsonValue& bb : base_benches->array) {
    const JsonValue* bname = bb.find("name");
    if (!bname || bname->type != JsonValue::Type::kString) continue;
    if (std::find(aggregated.begin(), aggregated.end(), gbench_run(bb)) !=
            aggregated.end() &&
        (gbench_field(bb, "run_type") != "aggregate" ||
         gbench_field(bb, "aggregate_name") != "median")) {
      continue;
    }
    const JsonValue* cb = nullptr;
    for (const JsonValue& candidate_bench : cand_benches->array) {
      const JsonValue* cname = candidate_bench.find("name");
      if (cname && cname->type == JsonValue::Type::kString &&
          cname->str == bname->str) {
        cb = &candidate_bench;
        break;
      }
    }
    Comparison c;
    c.name = bname->str;
    const JsonValue* base_items = bb.find("items_per_second");
    const JsonValue* cand_items = cb ? cb->find("items_per_second") : nullptr;
    if (base_items && base_items->type == JsonValue::Type::kNumber &&
        (!cb || (cand_items && cand_items->type == JsonValue::Type::kNumber))) {
      c.metric = "items_per_second";
      c.higher_is_better = true;
      c.baseline = base_items->number;
      if (cand_items) c.candidate = cand_items->number;
      c.missing = cb == nullptr;
    } else {
      const JsonValue* base_time = bb.find("real_time");
      if (!base_time || base_time->type != JsonValue::Type::kNumber) continue;
      c.metric = "real_time";
      c.higher_is_better = false;
      c.baseline = base_time->number;
      const JsonValue* cand_time = cb ? cb->find("real_time") : nullptr;
      if (cand_time && cand_time->type == JsonValue::Type::kNumber) {
        c.candidate = cand_time->number;
      } else {
        c.missing = true;
      }
    }
    out.push_back(std::move(c));
  }
  return true;
}

/// Profile gate: instructions retired per scheduled request, per point
/// label. Returns false when the gate was skipped because either side lacks
/// perf_event data — the caller treats "skipped" as pass, never as the
/// empty-baseline usage error.
bool compare_profile(const ProfileDoc& base, const ProfileDoc& cand,
                     std::vector<Comparison>& out) {
  warn_env_mismatches(base.env, cand.env);
  if (base.backend != "perf_event" || cand.backend != "perf_event") {
    std::cout << "warning: instructions-per-request gate skipped — needs the"
                 " perf_event backend on both sides (baseline: "
              << (base.backend.empty() ? "none" : base.backend)
              << ", candidate: "
              << (cand.backend.empty() ? "none" : cand.backend) << ")\n";
    return false;
  }
  for (const JsonValue& bp : base.points) {
    const JsonValue* blabel = bp.find("label");
    if (!blabel || blabel->type != JsonValue::Type::kString) continue;
    const JsonValue* bderived = bp.find("derived");
    const JsonValue* bv =
        bderived ? bderived->find("instructions_per_request") : nullptr;
    if (!bv || bv->type != JsonValue::Type::kNumber) continue;
    Comparison c;
    c.name = blabel->str;
    c.metric = "instructions_per_request";
    c.higher_is_better = false;
    c.baseline = bv->number;
    const JsonValue* cp = nullptr;
    for (const JsonValue& candidate_point : cand.points) {
      const JsonValue* clabel = candidate_point.find("label");
      if (clabel && clabel->type == JsonValue::Type::kString &&
          clabel->str == blabel->str) {
        cp = &candidate_point;
        break;
      }
    }
    const JsonValue* cderived = cp ? cp->find("derived") : nullptr;
    const JsonValue* cv =
        cderived ? cderived->find("instructions_per_request") : nullptr;
    if (!cv || cv->type != JsonValue::Type::kNumber) {
      c.missing = true;
    } else {
      c.candidate = cv->number;
    }
    out.push_back(std::move(c));
  }
  return true;
}

int run_regression(const Args& args) {
  const auto base_it = args.flags.find("baseline");
  const auto cand_it = args.flags.find("candidate");
  if (base_it == args.flags.end() || cand_it == args.flags.end()) {
    usage(std::cerr);
    return 2;
  }
  double threshold = 5.0;
  if (const auto it = args.flags.find("threshold"); it != args.flags.end()) {
    std::string t = it->second;
    if (!t.empty() && t.back() == '%') t.pop_back();
    char* end = nullptr;
    threshold = std::strtod(t.c_str(), &end);
    if (t.empty() || end != t.c_str() + t.size() || threshold < 0.0) {
      std::cerr << "ftreport: bad --threshold '" << it->second << "'\n";
      return 2;
    }
  }
  const bool perf = args.flags.count("perf") > 0;
  std::vector<Comparison> comparisons;
  bool profile_skipped = false;
  if (looks_like_profile_jsonl(base_it->second)) {
    // Profile-vs-profile: the instructions gate is the whole comparison.
    ProfileDoc base_prof, cand_prof;
    if (!load_profile_jsonl(base_it->second, base_prof)) return 2;
    if (!load_profile_any(cand_it->second, cand_prof)) return 2;
    profile_skipped = !compare_profile(base_prof, cand_prof, comparisons);
  } else {
    JsonValue base, cand;
    if (!parse_file(base_it->second, base) ||
        !parse_file(cand_it->second, cand)) {
      return 2;
    }
    const JsonValue* base_env = base.find("env");
    const JsonValue* cand_env = cand.find("env");
    if (base_env && cand_env) warn_env_mismatches(*base_env, *cand_env);

    if (points_have_fault_rate(base)) {
      if (!compare_degradation(base, cand, comparisons)) return 2;
    } else if (base.find("points")) {
      if (!compare_fig9(base, cand, perf, comparisons)) return 2;
    } else if (base.find("benchmarks")) {
      if (!compare_gbench(base, cand, comparisons)) return 2;
    } else {
      std::cerr << "ftreport: " << base_it->second
                << ": neither fig9 (\"points\") nor google-benchmark"
                   " (\"benchmarks\") schema\n";
      return 2;
    }
    // --perf: also gate any embedded profile block the baseline carries.
    ProfileDoc base_prof;
    if (perf && extract_profile_block(base, base_prof)) {
      ProfileDoc cand_prof;
      if (!extract_profile_block(cand, cand_prof)) {
        // Candidate bench ran without --profile. Pretend it has perf_event
        // data and no points: a perf_event baseline then reports every
        // point MISSING (fail), while a timer baseline skips as usual.
        cand_prof.backend = "perf_event";
      }
      profile_skipped = !compare_profile(base_prof, cand_prof, comparisons);
    }
  }
  if (comparisons.empty()) {
    if (profile_skipped) {
      std::cout << "PASS (instructions-per-request gate skipped:"
                   " no perf_event data)\n";
      return 0;
    }
    std::cerr << "ftreport: baseline contains no comparable benchmarks\n";
    return 2;
  }

  std::cout << "# Bench regression gate\n\n"
            << "baseline:  " << base_it->second << "\n"
            << "candidate: " << cand_it->second << "\n"
            << "threshold: " << fmt(threshold, 2) << "%\n\n"
            << "| benchmark | metric | baseline | candidate | delta | status |\n"
            << "|---|---|---:|---:|---:|---|\n";
  std::size_t regressions = 0;
  for (const Comparison& c : comparisons) {
    const bool regressed = is_regression(c, threshold);
    if (regressed) ++regressions;
    const char* status = c.missing ? "MISSING" : regressed ? "REGRESSED" : "ok";
    std::cout << "| " << c.name << " | " << c.metric << " | "
              << fmt(c.baseline) << " | "
              << (c.missing ? std::string("-") : fmt(c.candidate)) << " | "
              << (c.missing ? std::string("-") : fmt(delta_pct(c), 2) + "%")
              << " | " << status << " |\n";
  }
  std::cout << "\n"
            << (comparisons.size() - regressions) << "/" << comparisons.size()
            << " benchmarks within threshold\n";
  if (regressions > 0) {
    std::cout << "FAIL: " << regressions << " regression"
              << (regressions == 1 ? "" : "s") << " detected\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

// --- Report mode -----------------------------------------------------------

/// Flat CSV sink: section,key,value — one row per fact the Markdown report
/// states, for spreadsheet ingestion.
struct CsvSink {
  std::ostringstream rows;
  void add(const std::string& section, const std::string& key, double value) {
    rows << section << "," << key << "," << fmt(value, 6) << "\n";
  }
};

/// Hot-path profile section: derived per-request costs per point, then each
/// point's per-(phase, level) self-cost attribution as a share of the
/// session total (self times sum exactly to the total minus the
/// unattributed tail — the profiler's reconciliation invariant).
void report_profile(const ProfileDoc& prof, std::ostream& md, CsvSink& csv) {
  md << "## Hot-path profile\n\n";
  md << "backend `" << (prof.backend.empty() ? "?" : prof.backend) << "`";
  if (!prof.bench.empty()) md << ", bench `" << prof.bench << "`";
  md << "; env: " << env_summary(prof.env) << "\n\n";
  if (prof.backend != "perf_event") {
    md << "_timer backend: hardware counters unavailable, instruction and"
          " cycle columns are zero._\n\n";
  }
  if (prof.points.empty()) {
    md << "_no profile points_\n\n";
    return;
  }
  const auto derived_of = [](const JsonValue& point, const char* key) {
    const JsonValue* derived = point.find("derived");
    const JsonValue* v = derived ? derived->find(key) : nullptr;
    return v ? v->num_or(0.0) : 0.0;
  };
  const auto sample_field = [](const JsonValue* sample, const char* key) {
    const JsonValue* v = sample ? sample->find(key) : nullptr;
    return v ? v->num_or(0.0) : 0.0;
  };
  md << "| point | requests | wall ns/req | instr/req | IPC |"
        " L1d miss/req | unattributed |\n"
     << "|---|---:|---:|---:|---:|---:|---:|\n";
  for (const JsonValue& point : prof.points) {
    const JsonValue* label = point.find("label");
    const std::string name =
        label && label->type == JsonValue::Type::kString ? label->str : "?";
    const JsonValue* requests = point.find("requests");
    const double total_wall = sample_field(point.find("total"), "wall_ns");
    const double unattributed_wall =
        sample_field(point.find("unattributed"), "wall_ns");
    md << "| " << name << " | " << fmt(requests ? requests->num_or(0) : 0, 0)
       << " | " << fmt(derived_of(point, "wall_ns_per_request"), 1) << " | "
       << fmt(derived_of(point, "instructions_per_request"), 1) << " | "
       << fmt(derived_of(point, "ipc"), 2) << " | "
       << fmt(derived_of(point, "l1d_misses_per_request"), 2) << " | "
       << (total_wall > 0 ? fmt_pct(unattributed_wall / total_wall)
                          : std::string("-"))
       << " |\n";
    csv.add("profile", name + ".wall_ns_per_request",
            derived_of(point, "wall_ns_per_request"));
    csv.add("profile", name + ".instructions_per_request",
            derived_of(point, "instructions_per_request"));
    csv.add("profile", name + ".ipc", derived_of(point, "ipc"));
  }
  md << "\n";
  for (const JsonValue& point : prof.points) {
    const JsonValue* label = point.find("label");
    const std::string name =
        label && label->type == JsonValue::Type::kString ? label->str : "?";
    const JsonValue* phases = point.find("phases");
    if (!phases || phases->type != JsonValue::Type::kArray ||
        phases->array.empty()) {
      continue;
    }
    const double total_wall = sample_field(point.find("total"), "wall_ns");
    md << "### " << name << " — cost by phase and level\n\n"
       << "| phase | level | entries | wall (us) | share |\n"
       << "|---|---:|---:|---:|---:|\n";
    for (const JsonValue& slot : phases->array) {
      const JsonValue* phase = slot.find("phase");
      const std::string phase_name =
          phase && phase->type == JsonValue::Type::kString ? phase->str : "?";
      const double level = slot.find("level")
                               ? slot.find("level")->num_or(0)
                               : 0;
      const double entries = slot.find("entries")
                                 ? slot.find("entries")->num_or(0)
                                 : 0;
      const double wall = sample_field(slot.find("self"), "wall_ns");
      md << "| " << phase_name << " | " << fmt(level, 0) << " | "
         << fmt(entries, 0) << " | " << fmt(wall / 1000.0, 1) << " | "
         << (total_wall > 0 ? fmt_pct(wall / total_wall) : std::string("-"))
         << " |\n";
      csv.add("profile", name + "." + phase_name + ".level" + fmt(level, 0) +
                             ".wall_ns",
              wall);
    }
    md << "\n";
  }
}

void report_bench(const JsonValue& bench, std::ostream& md, CsvSink& csv) {
  md << "## Schedulability (bench sweep)\n\n";
  const JsonValue* name = bench.find("bench");
  const JsonValue* reps = bench.find("reps");
  if (name && name->type == JsonValue::Type::kString) {
    md << "bench `" << name->str << "`";
    if (reps) md << ", " << fmt(reps->num_or(0), 0) << " repetitions";
    md << "\n\n";
  }
  const JsonValue* points = bench.find("points");
  if (!points || points->type != JsonValue::Type::kArray ||
      points->array.empty()) {
    md << "_no sweep points_\n\n";
    return;
  }
  // Column set = union of scheduler names across points, in first-seen order.
  std::vector<std::string> scheds;
  for (const JsonValue& point : points->array) {
    if (const JsonValue* s = point.find("schedulers")) {
      for (const auto& [sched_name, stats] : s->object) {
        (void)stats;
        if (std::find(scheds.begin(), scheds.end(), sched_name) ==
            scheds.end()) {
          scheds.push_back(sched_name);
        }
      }
    }
  }
  md << "| nodes | levels | arity |";
  for (const std::string& s : scheds) md << " " << s << " |";
  md << "\n|---:|---:|---:|";
  for (std::size_t i = 0; i < scheds.size(); ++i) md << "---:|";
  md << "\n";
  for (const JsonValue& point : points->array) {
    const double nodes = point.find("nodes") ? point.find("nodes")->num_or(0) : 0;
    const double levels = point.find("levels") ? point.find("levels")->num_or(0) : 0;
    const double arity = point.find("arity") ? point.find("arity")->num_or(0) : 0;
    md << "| " << fmt(nodes, 0) << " | " << fmt(levels, 0) << " | "
       << fmt(arity, 0) << " |";
    const JsonValue* s = point.find("schedulers");
    for (const std::string& sched : scheds) {
      const JsonValue* stats = s ? s->find(sched) : nullptr;
      const JsonValue* mean = stats ? stats->find("mean") : nullptr;
      if (mean && mean->type == JsonValue::Type::kNumber) {
        md << " " << fmt(mean->number) << " |";
        csv.add("bench", "levels" + fmt(levels, 0) + ".arity" + fmt(arity, 0) +
                             "." + sched + ".mean",
                mean->number);
      } else {
        md << " - |";
      }
    }
    md << "\n";
  }
  md << "\n";
}

/// Degradation sweep: one row per (topology, fault rate) with the three
/// service levels, recovery counters, and retry-latency percentiles.
void report_degradation(const JsonValue& bench, std::ostream& md,
                        CsvSink& csv) {
  md << "## Fault degradation sweep\n\n";
  const JsonValue* reps = bench.find("reps");
  const JsonValue* horizon = bench.find("horizon");
  const JsonValue* retry = bench.find("retry");
  md << "bench `degradation`";
  if (reps) md << ", " << fmt(reps->num_or(0), 0) << " repetitions";
  if (horizon) md << ", horizon " << fmt(horizon->num_or(0), 0);
  if (retry && retry->type == JsonValue::Type::kString) {
    md << ", retry `" << retry->str << "`";
  }
  md << "\n\n";
  const JsonValue* points = bench.find("points");
  if (!points || points->type != JsonValue::Type::kArray ||
      points->array.empty()) {
    md << "_no sweep points_\n\n";
    return;
  }
  const auto scheduler_of = [](const JsonValue& point) {
    const JsonValue* s = point.find("scheduler");
    return s && s->type == JsonValue::Type::kString ? s->str
                                                    : std::string("levelwise");
  };
  md << "| nodes | scheduler | rate | first-attempt | open | ever granted |"
        " victims | recovered | recovery | retry p50/p90/p99 |\n"
        "|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  bool have_imbalance = false;
  for (const JsonValue& point : points->array) {
    const auto num = [&](const char* key) {
      const JsonValue* v = point.find(key);
      return v ? v->num_or(0.0) : 0.0;
    };
    const auto mean_of = [&](const char* section) {
      const JsonValue* s = point.find(section);
      const JsonValue* m = s ? s->find("mean") : nullptr;
      return m ? m->num_or(0.0) : 0.0;
    };
    if (point.find("imbalance_hotspot")) have_imbalance = true;
    const double rate = num("fault_rate");
    const std::string key_prefix =
        "levels" + fmt(num("levels"), 0) + ".arity" + fmt(num("arity"), 0) +
        "." + scheduler_of(point) + ".rate" + fmt(rate, 2);
    md << "| " << fmt(num("nodes"), 0) << " | " << scheduler_of(point)
       << " | " << fmt(rate, 2) << " | "
       << fmt_pct(mean_of("schedulability")) << " | "
       << fmt_pct(mean_of("open_ratio")) << " | "
       << fmt_pct(mean_of("ever_granted")) << " | " << fmt(num("victims"), 0)
       << " | " << fmt(num("recovered"), 0) << " | "
       << fmt_pct(num("recovery_success_ratio")) << " | ";
    const JsonValue* lat = point.find("retry_latency");
    const JsonValue* lat_count = lat ? lat->find("count") : nullptr;
    if (lat && lat_count && lat_count->num_or(0) > 0) {
      md << fmt(lat->find("p50") ? lat->find("p50")->num_or(0) : 0, 1) << "/"
         << fmt(lat->find("p90") ? lat->find("p90")->num_or(0) : 0, 1) << "/"
         << fmt(lat->find("p99") ? lat->find("p99")->num_or(0) : 0, 1);
    } else {
      md << "-";
    }
    md << " |\n";
    csv.add("degradation", key_prefix + ".schedulability",
            mean_of("schedulability"));
    csv.add("degradation", key_prefix + ".open_ratio", mean_of("open_ratio"));
    csv.add("degradation", key_prefix + ".ever_granted",
            mean_of("ever_granted"));
    csv.add("degradation", key_prefix + ".recovery_success_ratio",
            num("recovery_success_ratio"));
  }
  md << "\n";

  // Load quality of the residual fabric at the horizon: how evenly the
  // surviving planes carry the open circuits. 1.000x = perfectly even;
  // the policy comparison the quality gate (ftreport quality) automates.
  if (have_imbalance) {
    md << "### Degradation quality\n\n"
          "Residual-fabric load imbalance at the horizon (lower is better;"
          " 1.000x = even). `hotspot` is the worst subtree plane's occupancy"
          " over the mean plane; `max/mean` and `CoV` are per-switch"
          " statistics of the worst level and direction.\n\n"
          "| nodes | scheduler | rate | max/mean | CoV | hotspot |\n"
          "|---:|---|---:|---:|---:|---:|\n";
    for (const JsonValue& point : points->array) {
      const auto num = [&](const char* key) {
        const JsonValue* v = point.find(key);
        return v ? v->num_or(0.0) : 0.0;
      };
      const auto mean_of = [&](const char* section) {
        const JsonValue* s = point.find(section);
        const JsonValue* m = s ? s->find("mean") : nullptr;
        return m ? m->num_or(0.0) : 0.0;
      };
      const double rate = num("fault_rate");
      const std::string key_prefix =
          "levels" + fmt(num("levels"), 0) + ".arity" + fmt(num("arity"), 0) +
          "." + scheduler_of(point) + ".rate" + fmt(rate, 2);
      md << "| " << fmt(num("nodes"), 0) << " | " << scheduler_of(point)
         << " | " << fmt(rate, 2) << " | "
         << fmt(mean_of("imbalance_max_over_mean"), 3) << "x | "
         << fmt(mean_of("imbalance_cov"), 3) << " | "
         << fmt(mean_of("imbalance_hotspot"), 3) << "x |\n";
      csv.add("degradation", key_prefix + ".imbalance_max_over_mean",
              mean_of("imbalance_max_over_mean"));
      csv.add("degradation", key_prefix + ".imbalance_cov",
              mean_of("imbalance_cov"));
      csv.add("degradation", key_prefix + ".imbalance_hotspot",
              mean_of("imbalance_hotspot"));
    }
    md << "\n";
  }
}

/// Chaos soak summary ({"bench":"chaos_soak"}). Returns false when the
/// artifact records an invariant violation — the caller exits 2 so a CI
/// soak job fails even if the report itself rendered fine.
bool report_chaos_soak(const JsonValue& bench, std::ostream& md,
                       CsvSink& csv) {
  md << "## Chaos soak\n\n";
  const auto num = [&](const char* key) {
    const JsonValue* v = bench.find(key);
    return v ? v->num_or(0.0) : 0.0;
  };
  const auto str = [&](const char* key) {
    const JsonValue* v = bench.find(key);
    return v && v->type == JsonValue::Type::kString ? v->str : std::string();
  };
  const JsonValue* ok_value = bench.find("ok");
  const bool ok = ok_value && ok_value->type == JsonValue::Type::kBool &&
                  ok_value->boolean;
  md << "scheduler `" << str("scheduler") << "` on FT(" << fmt(num("levels"), 0)
     << "," << fmt(num("m"), 0) << "," << fmt(num("w"), 0) << "), seed "
     << fmt(num("seed"), 0) << ", " << fmt(num("ops"), 0)
     << " ops, invariant epoch " << fmt(num("epoch"), 0) << "\n\n";
  md << "| counter | value |\n|---|---:|\n"
     << "| executed ops | " << fmt(num("executed"), 0) << " |\n"
     << "| skipped ops | " << fmt(num("skipped"), 0) << " |\n"
     << "| invariant epochs | " << fmt(num("epochs"), 0) << " |\n"
     << "| submitted | " << fmt(num("submitted"), 0) << " |\n"
     << "| grants | " << fmt(num("grants"), 0) << " |\n"
     << "| closed | " << fmt(num("closed"), 0) << " |\n"
     << "| open at end | " << fmt(num("open_at_end"), 0) << " |\n"
     << "| fail / repair events | " << fmt(num("fail_events"), 0) << " / "
     << fmt(num("repair_events"), 0) << " |\n"
     << "| victims / recovered | " << fmt(num("victims"), 0) << " / "
     << fmt(num("recovered"), 0) << " |\n"
     << "| retries / shed | " << fmt(num("retries"), 0) << " / "
     << fmt(num("shed"), 0) << " |\n\n";
  for (const char* key :
       {"executed", "skipped", "epochs", "submitted", "grants", "closed",
        "open_at_end", "fail_events", "repair_events", "victims", "recovered",
        "retries", "shed"}) {
    csv.add("soak", key, num(key));
  }
  csv.add("soak", "ok", ok ? 1.0 : 0.0);
  if (ok) {
    md << "verdict: **PASS** — invariants clean at every epoch\n\n";
  } else {
    md << "verdict: **FAIL** after " << fmt(num("violation_op"), 0)
       << " executed ops: " << str("violation") << "\n\n";
    if (num("reproducer_ops") > 0) {
      md << "minimal reproducer: " << fmt(num("reproducer_ops"), 0)
         << " ops (shrunk in " << fmt(num("shrink_runs"), 0)
         << " replays); replay with `ftsched soak --replay=...`\n\n";
    }
  }
  return ok;
}

void report_metrics(const std::vector<JsonValue>& lines, std::ostream& md,
                    CsvSink& csv) {
  md << "## Scheduler metrics\n\n";
  const auto value_of = [&](std::string_view metric) -> const JsonValue* {
    for (const JsonValue& line : lines) {
      const JsonValue* name = line.find("metric");
      if (name && name->type == JsonValue::Type::kString &&
          name->str == metric) {
        return line.find("value");
      }
    }
    return nullptr;
  };
  const auto counter = [&](std::string_view metric) {
    const JsonValue* v = value_of(metric);
    return v ? v->num_or(0.0) : 0.0;
  };

  const double requests = counter("sched.requests");
  const double grants = counter("sched.grants");
  const double rejects = counter("sched.rejects");
  md << "| total | value |\n|---|---:|\n"
     << "| batches | " << fmt(counter("sched.batches"), 0) << " |\n"
     << "| requests | " << fmt(requests, 0) << " |\n"
     << "| grants | " << fmt(grants, 0) << " |\n"
     << "| rejects | " << fmt(rejects, 0) << " |\n";
  if (requests > 0) {
    md << "| schedulability | " << fmt_pct(grants / requests) << " |\n";
    csv.add("metrics", "schedulability", grants / requests);
  }
  md << "\n";
  csv.add("metrics", "requests", requests);
  csv.add("metrics", "grants", grants);
  csv.add("metrics", "rejects", rejects);

  // Prefix-grouped breakdowns straight off the metric names.
  const auto breakdown = [&](const std::string& prefix,
                             const std::string& title,
                             const std::string& csv_prefix) {
    std::vector<std::pair<std::string, double>> items;
    for (const JsonValue& line : lines) {
      const JsonValue* name = line.find("metric");
      if (!name || name->type != JsonValue::Type::kString) continue;
      if (name->str.rfind(prefix, 0) != 0) continue;
      const std::string label = name->str.substr(prefix.size());
      // Keep flat children only — "sched.reject.level0" yes,
      // "sched.reject.reason.x" is a different prefix's child.
      if (label.find('.') != std::string::npos) continue;
      const JsonValue* v = line.find("value");
      items.emplace_back(label, v ? v->num_or(0.0) : 0.0);
    }
    if (items.empty()) return;
    md << "### " << title << "\n\n| key | count | share |\n|---|---:|---:|\n";
    double total = 0;
    for (const auto& [label, v] : items) total += v;
    for (const auto& [label, v] : items) {
      md << "| " << label << " | " << fmt(v, 0) << " | "
         << (total > 0 ? fmt_pct(v / total) : "-") << " |\n";
      csv.add("metrics", csv_prefix + "." + label, v);
    }
    md << "\n";
  };
  breakdown("sched.reject.level", "Rejections by level (level of first failure)",
            "reject.level");
  breakdown("sched.reject.reason.", "Rejections by reason", "reject.reason");
  breakdown("sched.grant.ancestor", "Grants by common-ancestor level",
            "grant.ancestor");

  // Fault-recovery counters exported by FabricManager, if present.
  const double submitted = counter("fault.submitted");
  if (submitted > 0) {
    const double victims = counter("fault.victims");
    const double recovered = counter("fault.recovered");
    md << "### Fault recovery (FabricManager)\n\n| counter | value |\n"
          "|---|---:|\n"
       << "| submitted | " << fmt(submitted, 0) << " |\n"
       << "| first-attempt granted | "
       << fmt(counter("fault.first_attempt_granted"), 0) << " |\n"
       << "| ever granted | " << fmt(counter("fault.ever_granted"), 0)
       << " |\n"
       << "| open at end | " << fmt(counter("fault.open_circuits"), 0)
       << " |\n"
       << "| fail / repair events | " << fmt(counter("fault.fail_events"), 0)
       << " / " << fmt(counter("fault.repair_events"), 0) << " |\n"
       << "| victims | " << fmt(victims, 0) << " |\n"
       << "| recovered | " << fmt(recovered, 0) << " |\n"
       << "| retries | " << fmt(counter("fault.retries"), 0) << " |\n"
       << "| shed / permanent / abandoned | "
       << fmt(counter("fault.shed"), 0) << " / "
       << fmt(counter("fault.permanent_rejects"), 0) << " / "
       << fmt(counter("fault.abandoned"), 0) << " |\n";
    if (victims > 0) {
      md << "| recovery success | " << fmt_pct(recovered / victims) << " |\n";
      csv.add("metrics", "fault.recovery_success", recovered / victims);
    }
    md << "\n";
    csv.add("metrics", "fault.submitted", submitted);
    csv.add("metrics", "fault.victims", victims);
    csv.add("metrics", "fault.recovered", recovered);
  }

  // Fabric utilization gauges exported by LinkTelemetry, if present.
  std::vector<std::pair<std::string, double>> fabric;
  for (const JsonValue& line : lines) {
    const JsonValue* name = line.find("metric");
    if (!name || name->type != JsonValue::Type::kString) continue;
    if (name->str.rfind("fabric.util.", 0) != 0) continue;
    const JsonValue* v = line.find("value");
    fabric.emplace_back(name->str.substr(12), v ? v->num_or(0.0) : 0.0);
  }
  if (!fabric.empty()) {
    md << "### Fabric utilization (from metrics export)\n\n"
       << "| level.dir | utilization |\n|---|---:|\n";
    for (const auto& [label, v] : fabric) {
      md << "| " << label << " | " << fmt_pct(v) << " |\n";
      csv.add("metrics", "fabric.util." + label, v);
    }
    md << "\n";
  }
}

void report_telemetry(const std::vector<JsonValue>& lines, std::ostream& md,
                      CsvSink& csv) {
  md << "## Fabric link telemetry\n\n";
  const JsonValue* header = nullptr;
  std::vector<const JsonValue*> samples;
  const JsonValue* utilization = nullptr;
  std::vector<const JsonValue*> saturations;
  const JsonValue* top = nullptr;
  for (const JsonValue& line : lines) {
    const JsonValue* type = line.find("type");
    if (!type || type->type != JsonValue::Type::kString) continue;
    if (type->str == "link_telemetry") header = &line;
    else if (type->str == "sample") samples.push_back(&line);
    else if (type->str == "utilization") utilization = &line;
    else if (type->str == "saturation") saturations.push_back(&line);
    else if (type->str == "top_contended") top = &line;
  }
  if (!header) {
    md << "_no link_telemetry header line_\n\n";
    return;
  }
  const JsonValue* levels = header->find("levels");
  const std::size_t level_count =
      levels && levels->type == JsonValue::Type::kArray ? levels->array.size()
                                                        : 0;
  const JsonValue* total = header->find("samples");
  md << fmt(total ? total->num_or(0) : 0, 0) << " samples, " << level_count
     << " link levels\n\n";

  // Channel capacity per level (rows * ports) normalizes occupied counts.
  std::vector<double> capacity(level_count, 0.0);
  for (std::size_t h = 0; h < level_count; ++h) {
    const JsonValue& shape = levels->array[h];
    const JsonValue* rows = shape.find("rows");
    const JsonValue* ports = shape.find("ports");
    capacity[h] = (rows ? rows->num_or(0) : 0) * (ports ? ports->num_or(0) : 0);
  }

  if (utilization) {
    md << "### Utilization by level\n\n"
       << "| level | up | down |\n|---:|---:|---:|\n";
    const JsonValue* up = utilization->find("u");
    const JsonValue* down = utilization->find("d");
    for (std::size_t h = 0; h < level_count; ++h) {
      const double u = up && h < up->array.size() ? up->array[h].num_or(0) : 0;
      const double d =
          down && h < down->array.size() ? down->array[h].num_or(0) : 0;
      md << "| " << h << " | " << fmt_pct(u) << " | " << fmt_pct(d) << " |\n";
      csv.add("telemetry", "util.level" + std::to_string(h) + ".up", u);
      csv.add("telemetry", "util.level" + std::to_string(h) + ".down", d);
    }
    md << "\n";
  }

  // Level x stage heatmap: the sample series cut into ten equal stages,
  // mean occupancy fraction (up + down over both capacities) per cell.
  if (!samples.empty()) {
    const std::size_t stages = std::min<std::size_t>(10, samples.size());
    std::vector<std::vector<double>> sum(level_count,
                                         std::vector<double>(stages, 0.0));
    std::vector<std::size_t> stage_n(stages, 0);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const std::size_t stage = i * stages / samples.size();
      ++stage_n[stage];
      const JsonValue* up = samples[i]->find("u");
      const JsonValue* down = samples[i]->find("d");
      for (std::size_t h = 0; h < level_count; ++h) {
        double occupied = 0.0, cap = 0.0;
        if (up && h < up->array.size()) {
          occupied += up->array[h].num_or(0);
          cap += capacity[h];
        }
        if (down && h < down->array.size()) {
          occupied += down->array[h].num_or(0);
          cap += capacity[h];
        }
        if (cap > 0) sum[h][stage] += occupied / cap;
      }
    }
    md << "### Occupancy heatmap (level x stage)\n\n"
       << "Stages are tenths of the sampled window; cells show mean fabric"
          " fill (`#### ` >= 80%, `.    ` < 20%).\n\n| level |";
    for (std::size_t s = 0; s < stages; ++s) md << " s" << s << " |";
    md << "\n|---:|";
    for (std::size_t s = 0; s < stages; ++s) md << "---|";
    md << "\n";
    for (std::size_t h = 0; h < level_count; ++h) {
      md << "| " << h << " |";
      for (std::size_t s = 0; s < stages; ++s) {
        const double mean = stage_n[s] ? sum[h][s] / static_cast<double>(stage_n[s]) : 0.0;
        md << " " << shade(mean) << "|";
        csv.add("telemetry",
                "heat.level" + std::to_string(h) + ".s" + std::to_string(s),
                mean);
      }
      md << "\n";
    }
    md << "\n";
  }

  if (!saturations.empty()) {
    md << "### Saturation histograms (occupied channels per row sample)\n\n"
       << "| level | dir | bins (occ0..occN) |\n|---:|---|---|\n";
    for (const JsonValue* s : saturations) {
      const JsonValue* level = s->find("level");
      const JsonValue* dir = s->find("dir");
      const JsonValue* bins = s->find("bins");
      md << "| " << fmt(level ? level->num_or(0) : 0, 0) << " | "
         << (dir && dir->type == JsonValue::Type::kString ? dir->str : "?")
         << " | ";
      if (bins && bins->type == JsonValue::Type::kArray) {
        for (std::size_t i = 0; i < bins->array.size(); ++i) {
          if (i) md << " ";
          md << fmt(bins->array[i].num_or(0), 0);
        }
      }
      md << " |\n";
    }
    md << "\n";
  }

  if (top) {
    const JsonValue* links = top->find("links");
    if (links && links->type == JsonValue::Type::kArray &&
        !links->array.empty()) {
      md << "### Most contended links\n\n"
         << "| level | row | port | dir | busy samples |\n"
         << "|---:|---:|---:|---|---:|\n";
      for (const JsonValue& link : links->array) {
        md << "| " << fmt(link.find("level") ? link.find("level")->num_or(0) : 0, 0)
           << " | " << fmt(link.find("row") ? link.find("row")->num_or(0) : 0, 0)
           << " | " << fmt(link.find("port") ? link.find("port")->num_or(0) : 0, 0)
           << " | "
           << (link.find("dir") &&
                       link.find("dir")->type == JsonValue::Type::kString
                   ? link.find("dir")->str
                   : "?")
           << " | " << fmt(link.find("busy") ? link.find("busy")->num_or(0) : 0, 0)
           << " |\n";
      }
      md << "\n";
    }
  }
}

void report_trace(const JsonValue& trace, std::ostream& md, CsvSink& csv) {
  md << "## Trace span rollups\n\n";
  const JsonValue* events = trace.find("traceEvents");
  if (!events || events->type != JsonValue::Type::kArray) {
    md << "_no traceEvents array_\n\n";
    return;
  }
  struct Rollup {
    std::size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Rollup> spans;
  std::size_t instants = 0, counters = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.find("ph");
    if (!ph || ph->type != JsonValue::Type::kString) continue;
    if (ph->str == "i" || ph->str == "I") {
      ++instants;
      continue;
    }
    if (ph->str == "C") {
      ++counters;
      continue;
    }
    if (ph->str != "X") continue;
    const JsonValue* name = event.find("name");
    const JsonValue* dur = event.find("dur");
    if (!name || name->type != JsonValue::Type::kString) continue;
    Rollup& r = spans[name->str];
    ++r.count;
    const double d = dur ? dur->num_or(0.0) : 0.0;
    r.total_us += d;
    r.max_us = std::max(r.max_us, d);
  }
  if (spans.empty()) {
    md << "_no duration spans_\n\n";
    return;
  }
  // Sort by total time, heaviest first.
  std::vector<std::pair<std::string, Rollup>> rows(spans.begin(), spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us) {
      return a.second.total_us > b.second.total_us;
    }
    return a.first < b.first;
  });
  md << "| span | count | total (us) | mean (us) | max (us) |\n"
     << "|---|---:|---:|---:|---:|\n";
  for (const auto& [name, r] : rows) {
    md << "| " << name << " | " << r.count << " | " << fmt(r.total_us, 1)
       << " | " << fmt(r.total_us / static_cast<double>(r.count), 2) << " | "
       << fmt(r.max_us, 1) << " |\n";
    csv.add("trace", name + ".total_us", r.total_us);
    csv.add("trace", name + ".count", static_cast<double>(r.count));
  }
  md << "\n" << instants << " instant events, " << counters
     << " counter samples\n\n";
}

/// Circuit lifecycle / SLO section from a FlightRecorder dump (format v1).
/// The ledger is stitched by request id — ids are rep-namespaced, so one
/// circuit's events always come from one ring, and dump order within a ring
/// is chronological.
void report_flight(const std::vector<JsonValue>& lines, std::ostream& md,
                   CsvSink& csv) {
  md << "## Circuit lifecycle / SLO (flight recorder)\n\n";
  const JsonValue* header = nullptr;
  struct FlightLine {
    double req = 0.0;
    double t = 0.0;
    std::string kind;
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
  };
  std::vector<FlightLine> events;
  for (const JsonValue& line : lines) {
    const JsonValue* type = line.find("type");
    if (type && type->type == JsonValue::Type::kString &&
        type->str == "flight_recorder") {
      header = &line;
      continue;
    }
    const JsonValue* req = line.find("req");
    const JsonValue* t = line.find("t");
    const JsonValue* kind = line.find("kind");
    if (!req || !t || !kind || kind->type != JsonValue::Type::kString) {
      continue;
    }
    FlightLine e;
    e.req = req->num_or(0);
    e.t = t->num_or(0);
    e.kind = kind->str;
    e.a = line.find("a") ? line.find("a")->num_or(0) : 0;
    e.b = line.find("b") ? line.find("b")->num_or(0) : 0;
    e.c = line.find("c") ? line.find("c")->num_or(0) : 0;
    events.push_back(std::move(e));
  }
  if (!header) {
    md << "_no flight_recorder header line_\n\n";
    return;
  }
  const auto hnum = [&](const char* key) {
    const JsonValue* v = header->find(key);
    return v ? v->num_or(0) : 0;
  };
  md << fmt(hnum("recorded"), 0) << " events recorded over "
     << fmt(hnum("rings"), 0) << " ring(s) of capacity "
     << fmt(hnum("capacity"), 0) << ", " << fmt(hnum("dropped"), 0)
     << " dropped\n\n";
  csv.add("flight", "recorded", hnum("recorded"));
  csv.add("flight", "dropped", hnum("dropped"));

  // Stitch per-circuit timelines: stable sort by request id keeps each
  // circuit's dump order (chronological within its one ring).
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightLine& lhs, const FlightLine& rhs) {
                     return lhs.req < rhs.req;
                   });
  struct Circuit {
    double req = 0.0;
    double admission = -1.0;  ///< first REQUESTED -> first GRANTED, ticks
    std::size_t retries = 0;
    std::size_t event_count = 0;
    std::string timeline;  ///< "REQUESTED@0 GRANTED@0 ..." for worst-K rows
  };
  std::vector<Circuit> circuits;
  std::vector<double> admission, recovery, retries_per_circuit;
  std::size_t granted = 0, never_granted = 0, closed = 0, shed = 0;
  std::vector<std::pair<double, int>> burn;  ///< (t, +1 revoke / -1 recover)
  {
    std::size_t i = 0;
    while (i < events.size()) {
      std::size_t j = i;
      while (j < events.size() && events[j].req == events[i].req) ++j;
      Circuit circuit;
      circuit.req = events[i].req;
      circuit.event_count = j - i;
      bool saw_requested = false, saw_granted = false, revoked = false;
      double requested_at = 0, granted_at = 0, revoked_at = 0;
      for (std::size_t k = i; k < j; ++k) {
        const FlightLine& e = events[k];
        if (!circuit.timeline.empty()) circuit.timeline += " ";
        circuit.timeline += e.kind + "@" + fmt(e.t, 0);
        if (e.kind == "REQUESTED") {
          if (!saw_requested) {
            saw_requested = true;
            requested_at = e.t;
          }
        } else if (e.kind == "GRANTED") {
          if (!saw_granted) {
            saw_granted = true;
            granted_at = e.t;
          }
        } else if (e.kind == "REVOKED") {
          revoked = true;
          revoked_at = e.t;
          burn.emplace_back(e.t, 1);
        } else if (e.kind == "RECOVERED") {
          if (revoked) {
            recovery.push_back(e.t - revoked_at);
            revoked = false;
          }
          burn.emplace_back(e.t, -1);
        } else if (e.kind == "RETRY_ENQUEUED") {
          ++circuit.retries;
        } else if (e.kind == "RETRY_SHED") {
          ++shed;
        } else if (e.kind == "CLOSED") {
          ++closed;
        }
      }
      if (saw_granted) {
        ++granted;
        if (saw_requested) {
          circuit.admission = granted_at - requested_at;
          admission.push_back(circuit.admission);
        }
      } else {
        ++never_granted;
      }
      retries_per_circuit.push_back(static_cast<double>(circuit.retries));
      circuits.push_back(std::move(circuit));
      i = j;
    }
  }
  md << "| circuits | granted | never granted | closed | retries shed |\n"
     << "|---:|---:|---:|---:|---:|\n"
     << "| " << circuits.size() << " | " << granted << " | " << never_granted
     << " | " << closed << " | " << shed << " |\n\n";
  csv.add("flight", "circuits", static_cast<double>(circuits.size()));
  csv.add("flight", "granted", static_cast<double>(granted));
  csv.add("flight", "never_granted", static_cast<double>(never_granted));

  // Order statistics with linear interpolation, matching the repo's
  // Summary/Histogram convention.
  const auto pct = [](std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lower = static_cast<std::size_t>(rank);
    const double fraction = rank - static_cast<double>(lower);
    if (lower + 1 >= v.size()) return v[lower];
    return v[lower] + fraction * (v[lower + 1] - v[lower]);
  };
  md << "### Admission / recovery SLOs\n\n"
     << "| metric | samples | p50 | p99 |\n|---|---:|---:|---:|\n";
  const auto slo_row = [&](const char* label, const char* key,
                           const std::vector<double>& samples) {
    md << "| " << label << " | " << samples.size() << " | ";
    if (samples.empty()) {
      md << "- | - |\n";
      return;
    }
    const double p50 = pct(samples, 0.50);
    const double p99 = pct(samples, 0.99);
    md << fmt(p50, 1) << " | " << fmt(p99, 1) << " |\n";
    csv.add("flight", std::string(key) + ".p50", p50);
    csv.add("flight", std::string(key) + ".p99", p99);
  };
  slo_row("admission latency (ticks)", "admission_latency", admission);
  slo_row("revocation -> recovery (ticks)", "recovery_time", recovery);
  slo_row("retries per circuit", "retries_per_circuit", retries_per_circuit);
  md << "\n";

  // Worst offenders: slowest admissions first, then busiest ledgers.
  std::vector<const Circuit*> worst;
  for (const Circuit& c : circuits) worst.push_back(&c);
  std::sort(worst.begin(), worst.end(), [](const Circuit* a, const Circuit* b) {
    if (a->admission != b->admission) return a->admission > b->admission;
    if (a->event_count != b->event_count) return a->event_count > b->event_count;
    return a->req < b->req;
  });
  const std::size_t k_worst = std::min<std::size_t>(5, worst.size());
  if (k_worst > 0) {
    md << "### Worst circuits (by admission latency)\n\n"
       << "| request | admission | retries | timeline |\n"
       << "|---:|---:|---:|---|\n";
    for (std::size_t i = 0; i < k_worst; ++i) {
      const Circuit& c = *worst[i];
      std::string timeline = c.timeline;
      constexpr std::size_t kMaxTimeline = 120;
      if (timeline.size() > kMaxTimeline) {
        timeline.resize(kMaxTimeline);
        timeline += "...";
      }
      md << "| " << fmt(c.req, 0) << " | "
         << (c.admission < 0 ? std::string("-") : fmt(c.admission, 0))
         << " | " << c.retries << " | `" << timeline << "` |\n";
    }
    md << "\n";
  }

  // Recovery burn-down: victims still out of service over simulated time,
  // in tenths of the observed window.
  if (!burn.empty()) {
    std::sort(burn.begin(), burn.end());
    const double t_max = burn.back().first;
    constexpr std::size_t kStages = 10;
    std::vector<int> outstanding(kStages, 0);
    int level = 0, peak = 0;
    std::size_t b = 0;
    for (std::size_t s = 0; s < kStages; ++s) {
      const double t_end =
          t_max * static_cast<double>(s + 1) / static_cast<double>(kStages);
      while (b < burn.size() && burn[b].first <= t_end) {
        level += burn[b].second;
        ++b;
      }
      outstanding[s] = level;
      peak = std::max(peak, level);
    }
    md << "### Recovery burn-down\n\n"
       << "Victims still out of service at each tenth of the window"
          " (`#### ` = at/near peak backlog).\n\n| stage |";
    for (std::size_t s = 0; s < kStages; ++s) md << " s" << s << " |";
    md << "\n|---|";
    for (std::size_t s = 0; s < kStages; ++s) md << "---|";
    md << "\n| outstanding |";
    for (std::size_t s = 0; s < kStages; ++s) {
      md << " " << outstanding[s] << " |";
      csv.add("flight", "burndown.s" + std::to_string(s),
              static_cast<double>(outstanding[s]));
    }
    md << "\n| backlog |";
    for (std::size_t s = 0; s < kStages; ++s) {
      const double frac =
          peak > 0 ? static_cast<double>(outstanding[s]) / peak : 0.0;
      md << " " << shade(frac) << "|";
    }
    md << "\n\n";
  }
}

int run_report(const Args& args) {
  const auto flag = [&](const char* name) -> std::string {
    const auto it = args.flags.find(name);
    return it == args.flags.end() ? std::string() : it->second;
  };
  const std::string metrics_path = flag("metrics");
  const std::string telemetry_path = flag("telemetry");
  const std::string trace_path = flag("trace");
  const std::string bench_path = flag("bench");
  const std::string flight_path = flag("flight");
  const std::string profile_path = flag("profile");
  if (metrics_path.empty() && telemetry_path.empty() && trace_path.empty() &&
      bench_path.empty() && flight_path.empty() && profile_path.empty()) {
    std::cerr << "ftreport: report needs at least one input\n";
    usage(std::cerr);
    return 2;
  }

  std::ostringstream md;
  CsvSink csv;
  csv.rows << "section,key,value\n";
  md << "# ftsched observability report\n\n";

  int exit_code = 0;
  if (!bench_path.empty()) {
    JsonValue bench;
    if (!parse_file(bench_path, bench)) return 2;
    const JsonValue* bench_name = bench.find("bench");
    if (bench_name && bench_name->type == JsonValue::Type::kString &&
        bench_name->str == "chaos_soak") {
      // A violation in the artifact fails the report run itself (exit 2):
      // the CI soak job must go red even though the report rendered fine.
      if (!report_chaos_soak(bench, md, csv)) exit_code = 2;
    } else if (points_have_fault_rate(bench)) {
      report_degradation(bench, md, csv);
    } else {
      report_bench(bench, md, csv);
    }
    // Benches run with --profile embed their attribution; render it too.
    ProfileDoc prof;
    if (extract_profile_block(bench, prof)) report_profile(prof, md, csv);
  }
  if (!profile_path.empty()) {
    ProfileDoc prof;
    if (!load_profile_any(profile_path, prof)) return 2;
    report_profile(prof, md, csv);
  }
  if (!metrics_path.empty()) {
    std::vector<JsonValue> lines;
    if (!parse_jsonl_file(metrics_path, lines)) return 2;
    report_metrics(lines, md, csv);
  }
  if (!telemetry_path.empty()) {
    std::vector<JsonValue> lines;
    if (!parse_jsonl_file(telemetry_path, lines)) return 2;
    report_telemetry(lines, md, csv);
  }
  if (!trace_path.empty()) {
    JsonValue trace;
    if (!parse_file(trace_path, trace)) return 2;
    report_trace(trace, md, csv);
  }
  if (!flight_path.empty()) {
    std::vector<JsonValue> lines;
    if (!parse_jsonl_file(flight_path, lines)) return 2;
    report_flight(lines, md, csv);
  }

  const std::string out_path = flag("out");
  if (out_path.empty()) {
    std::cout << md.str();
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "ftreport: cannot open " << out_path << "\n";
      return 2;
    }
    out << md.str();
    std::cout << "report -> " << out_path << "\n";
  }
  const std::string csv_path = flag("csv");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "ftreport: cannot open " << csv_path << "\n";
      return 2;
    }
    out << csv.rows.str();
    std::cout << "csv -> " << csv_path << "\n";
  }
  if (exit_code != 0) {
    std::cerr << "ftreport: chaos-soak artifact records an invariant "
                 "violation\n";
  }
  return exit_code;
}

// --- Anchor mode -----------------------------------------------------------

/// Validates a degradation sweep against its fault-free anchor: every rate-0
/// point whose (levels, arity) appears in the fig9 file must reproduce that
/// scheduler's summary bit-for-bit, and every point must be internally
/// consistent (ratios in [0,1], victims >= recovered, ordered percentiles).
int run_anchor(const Args& args) {
  const auto deg_it = args.flags.find("degradation");
  const auto fig9_it = args.flags.find("fig9");
  if (deg_it == args.flags.end() || fig9_it == args.flags.end()) {
    usage(std::cerr);
    return 2;
  }
  std::string scheduler = "levelwise";
  if (const auto it = args.flags.find("scheduler"); it != args.flags.end()) {
    scheduler = it->second;
  }
  JsonValue deg, fig9;
  if (!parse_file(deg_it->second, deg) || !parse_file(fig9_it->second, fig9)) {
    return 2;
  }
  const JsonValue* deg_points = deg.find("points");
  if (!points_have_fault_rate(deg)) {
    std::cerr << "ftreport: " << deg_it->second
              << ": not a degradation sweep (no \"fault_rate\" points)\n";
    return 2;
  }
  const JsonValue* fig9_points = fig9.find("points");
  if (!fig9_points || fig9_points->type != JsonValue::Type::kArray) {
    std::cerr << "ftreport: " << fig9_it->second
              << ": not a fig9 sweep (no \"points\")\n";
    return 2;
  }

  std::size_t failures = 0;
  std::size_t anchored = 0;
  const auto fail = [&](const std::string& where, const std::string& what) {
    std::cout << "FAIL " << where << ": " << what << "\n";
    ++failures;
  };

  for (const JsonValue& point : deg_points->array) {
    const auto num = [&](const char* key) {
      const JsonValue* v = point.find(key);
      return v ? v->num_or(0.0) : 0.0;
    };
    const double levels = num("levels");
    const double arity = num("arity");
    const double rate = num("fault_rate");
    // Multi-scheduler sweeps tag each point; --scheduler covers legacy
    // single-scheduler files.
    std::string point_scheduler = scheduler;
    if (const JsonValue* s = point.find("scheduler");
        s && s->type == JsonValue::Type::kString) {
      point_scheduler = s->str;
    }
    const std::string where = "levels=" + fmt(levels, 0) +
                              " arity=" + fmt(arity, 0) +
                              " rate=" + fmt(rate, 2) + " " + point_scheduler;

    // Internal consistency: service levels are ratios, recovery cannot
    // exceed the victim count, percentiles must be ordered.
    for (const char* section : {"schedulability", "open_ratio",
                                "ever_granted"}) {
      const JsonValue* s = point.find(section);
      if (!s) {
        fail(where, std::string("missing \"") + section + "\" summary");
        continue;
      }
      for (const char* stat : {"mean", "min", "max"}) {
        const JsonValue* v = s->find(stat);
        const double x = v ? v->num_or(-1.0) : -1.0;
        if (x < 0.0 || x > 1.0) {
          fail(where, std::string(section) + "." + stat + " = " + fmt(x) +
                          " outside [0, 1]");
        }
      }
    }
    const double ratio = num("recovery_success_ratio");
    if (ratio < 0.0 || ratio > 1.0) {
      fail(where, "recovery_success_ratio = " + fmt(ratio) +
                      " outside [0, 1]");
    }
    if (num("recovered") > num("victims")) {
      fail(where, "recovered " + fmt(num("recovered"), 0) + " > victims " +
                      fmt(num("victims"), 0));
    }
    // Imbalance ratios are >= 1 by construction (max over mean; 1.0 when
    // idle) and the CoV is non-negative. Absent in pre-imbalance files.
    for (const char* section : {"imbalance_max_over_mean",
                                "imbalance_hotspot"}) {
      const JsonValue* s = point.find(section);
      const JsonValue* m = s ? s->find("mean") : nullptr;
      if (s && (!m || m->num_or(0.0) < 1.0 - 1e-9)) {
        fail(where, std::string(section) + ".mean = " +
                        (m ? fmt(m->num_or(0.0), 6) : std::string("missing")) +
                        " below 1");
      }
    }
    if (const JsonValue* s = point.find("imbalance_cov")) {
      const JsonValue* m = s->find("mean");
      if (!m || m->num_or(-1.0) < 0.0) {
        fail(where, "imbalance_cov.mean negative or missing");
      }
    }
    for (const char* lat_key : {"recovery_latency", "retry_latency"}) {
      const JsonValue* lat = point.find(lat_key);
      const JsonValue* count = lat ? lat->find("count") : nullptr;
      if (!lat || !count || count->num_or(0) <= 0) continue;
      const auto pct = [&](const char* p) {
        const JsonValue* v = lat->find(p);
        return v ? v->num_or(0.0) : 0.0;
      };
      if (!(pct("p50") <= pct("p90") && pct("p90") <= pct("p99"))) {
        fail(where, std::string(lat_key) + " percentiles not ordered: " +
                        fmt(pct("p50"), 1) + "/" + fmt(pct("p90"), 1) + "/" +
                        fmt(pct("p99"), 1));
      }
    }

    // Fault-free anchor: bit-identical to the fig9 sweep's scheduler column.
    if (rate != 0.0) continue;
    const JsonValue* anchor = nullptr;
    for (const JsonValue& fp : fig9_points->array) {
      const JsonValue* fl = fp.find("levels");
      const JsonValue* fa = fp.find("arity");
      if (fl && fa && fl->num_or(-1) == levels && fa->num_or(-1) == arity) {
        const JsonValue* scheds = fp.find("schedulers");
        anchor = scheds ? scheds->find(point_scheduler) : nullptr;
        break;
      }
    }
    // Topology or scheduler not in this fig9 file — nothing to pin (new
    // policies without a fig9 column are consistency-checked only).
    if (!anchor) continue;
    ++anchored;
    const JsonValue* sched_summary = point.find("schedulability");
    for (const char* stat : {"mean", "min", "max", "stddev"}) {
      const JsonValue* expect = anchor->find(stat);
      const JsonValue* got = sched_summary ? sched_summary->find(stat)
                                           : nullptr;
      if (!expect || !got || expect->number != got->number) {
        fail(where, std::string("rate-0 schedulability.") + stat + " = " +
                        (got ? fmt(got->number, 6) : std::string("missing")) +
                        " but " + point_scheduler + " fig9 " + stat + " = " +
                        (expect ? fmt(expect->number, 6)
                                : std::string("missing")));
      }
    }
    // At rate 0 nothing is ever revoked, so all three service levels agree.
    for (const char* section : {"open_ratio", "ever_granted"}) {
      const JsonValue* s = point.find(section);
      const JsonValue* mean = s ? s->find("mean") : nullptr;
      const JsonValue* base = sched_summary ? sched_summary->find("mean")
                                            : nullptr;
      if (!mean || !base || mean->number != base->number) {
        fail(where, std::string("rate-0 ") + section +
                        ".mean diverges from schedulability.mean");
      }
    }
  }

  std::cout << "anchored " << anchored << " rate-0 point"
            << (anchored == 1 ? "" : "s") << " against " << fig9_it->second
            << "\n";
  if (anchored == 0) {
    std::cout << "FAIL: no rate-0 point matched a fig9 topology —"
                 " nothing was pinned\n";
    return 1;
  }
  if (failures > 0) {
    std::cout << "FAIL: " << failures << " anchor violation"
              << (failures == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

// --- Quality mode ----------------------------------------------------------

/// The degradation-quality gate: within one multi-scheduler degradation
/// sweep, the capacity-weighted candidate policy must spread load strictly
/// better than the oblivious baseline (lower plane hot-spot score at every
/// faulted rate, no worse at rate 0) while keeping schedulability within
/// --max-sched-drop (relative) of the baseline. Everything compared is
/// deterministic per seed, so failures are real, not noise.
int run_quality(const Args& args) {
  const auto bench_it = args.flags.find("bench");
  if (bench_it == args.flags.end()) {
    usage(std::cerr);
    return 2;
  }
  std::string baseline = "levelwise";
  std::string candidate = "levelwise-balanced";
  double max_sched_drop = 0.02;
  if (const auto it = args.flags.find("baseline-scheduler");
      it != args.flags.end()) {
    baseline = it->second;
  }
  if (const auto it = args.flags.find("candidate-scheduler");
      it != args.flags.end()) {
    candidate = it->second;
  }
  if (const auto it = args.flags.find("max-sched-drop");
      it != args.flags.end()) {
    max_sched_drop = std::atof(it->second.c_str());
    if (max_sched_drop < 0.0) {
      std::cerr << "ftreport: --max-sched-drop must be >= 0\n";
      return 2;
    }
  }
  JsonValue doc;
  if (!parse_file(bench_it->second, doc)) return 2;
  if (!points_have_fault_rate(doc)) {
    std::cerr << "ftreport: " << bench_it->second
              << ": not a degradation sweep (no \"fault_rate\" points)\n";
    return 2;
  }
  const JsonValue* points = doc.find("points");

  const auto scheduler_of = [](const JsonValue& point) {
    const JsonValue* s = point.find("scheduler");
    return s && s->type == JsonValue::Type::kString ? s->str : std::string();
  };
  const auto mean_of = [](const JsonValue& point, const char* section) {
    const JsonValue* s = point.find(section);
    const JsonValue* m = s ? s->find("mean") : nullptr;
    return m ? m->num_or(-1.0) : -1.0;
  };

  std::size_t failures = 0;
  std::size_t gated = 0;
  for (const JsonValue& bp : points->array) {
    if (scheduler_of(bp) != baseline) continue;
    const auto num = [&](const char* key) {
      const JsonValue* v = bp.find(key);
      return v ? v->num_or(0.0) : 0.0;
    };
    const double levels = num("levels");
    const double arity = num("arity");
    const double rate = num("fault_rate");
    const JsonValue* cp = nullptr;
    for (const JsonValue& candidate_point : points->array) {
      if (scheduler_of(candidate_point) != candidate) continue;
      const auto cnum = [&](const char* key) {
        const JsonValue* v = candidate_point.find(key);
        return v ? v->num_or(-1.0) : -1.0;
      };
      if (cnum("levels") == levels && cnum("arity") == arity &&
          cnum("fault_rate") == rate) {
        cp = &candidate_point;
        break;
      }
    }
    const std::string where = "levels=" + fmt(levels, 0) +
                              " arity=" + fmt(arity, 0) +
                              " rate=" + fmt(rate, 2);
    if (!cp) {
      std::cout << "FAIL " << where << ": no " << candidate
                << " point matches this " << baseline << " point\n";
      ++failures;
      continue;
    }
    ++gated;
    const std::size_t failures_before = failures;

    const double base_hotspot = mean_of(bp, "imbalance_hotspot");
    const double cand_hotspot = mean_of(*cp, "imbalance_hotspot");
    if (base_hotspot < 0.0 || cand_hotspot < 0.0) {
      std::cout << "FAIL " << where
                << ": imbalance_hotspot summary missing — re-run the bench"
                   " with this repo's fig_degradation\n";
      ++failures;
    } else if (rate > 0.0 ? !(cand_hotspot < base_hotspot)
                          : !(cand_hotspot <= base_hotspot)) {
      std::cout << "FAIL " << where << ": " << candidate << " hotspot "
                << fmt(cand_hotspot, 4) << "x not "
                << (rate > 0.0 ? "below" : "at or below") << " " << baseline
                << " " << fmt(base_hotspot, 4) << "x\n";
      ++failures;
    }

    const double base_sched = mean_of(bp, "schedulability");
    const double cand_sched = mean_of(*cp, "schedulability");
    const double floor = base_sched * (1.0 - max_sched_drop);
    if (cand_sched < floor) {
      std::cout << "FAIL " << where << ": " << candidate
                << " schedulability " << fmt(cand_sched, 4) << " below "
                << fmt(floor, 4) << " (" << baseline << " "
                << fmt(base_sched, 4) << " - " << fmt(max_sched_drop * 100, 1)
                << "%)\n";
      ++failures;
    }
    if (failures == failures_before) {
      std::cout << "ok   " << where << ": hotspot " << fmt(base_hotspot, 3)
                << "x -> " << fmt(cand_hotspot, 3) << "x, schedulability "
                << fmt(base_sched, 4) << " -> " << fmt(cand_sched, 4) << "\n";
    }
  }

  std::cout << "gated " << gated << " point" << (gated == 1 ? "" : "s")
            << ": " << candidate << " vs " << baseline << "\n";
  if (gated == 0) {
    std::cout << "FAIL: no (" << baseline << ", " << candidate
              << ") point pair found — nothing was gated\n";
    return 1;
  }
  if (failures > 0) {
    std::cout << "FAIL: " << failures << " quality violation"
              << (failures == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << "PASS\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  if (raw.empty() || raw[0] == "--help" || raw[0] == "-h") {
    usage(raw.empty() ? std::cerr : std::cout);
    return raw.empty() ? 2 : 0;
  }
  static const std::vector<std::string> kValueFlags = {
      "baseline", "candidate",   "threshold", "metrics",
      "telemetry", "trace",      "bench",     "out",
      "csv",       "degradation", "fig9",     "scheduler",
      "flight",    "profile",
      "baseline-scheduler", "candidate-scheduler", "max-sched-drop"};
  if (raw[0] == "report") {
    Args args;
    if (!parse_args({raw.begin() + 1, raw.end()}, kValueFlags, args)) return 2;
    return run_report(args);
  }
  if (raw[0] == "anchor") {
    Args args;
    if (!parse_args({raw.begin() + 1, raw.end()}, kValueFlags, args)) return 2;
    return run_anchor(args);
  }
  if (raw[0] == "quality") {
    Args args;
    if (!parse_args({raw.begin() + 1, raw.end()}, kValueFlags, args)) return 2;
    return run_quality(args);
  }
  Args args;
  if (!parse_args(raw, kValueFlags, args)) return 2;
  if (!args.positional.empty()) {
    std::cerr << "ftreport: unknown command '" << args.positional.front()
              << "'\n";
    usage(std::cerr);
    return 2;
  }
  return run_regression(args);
}
