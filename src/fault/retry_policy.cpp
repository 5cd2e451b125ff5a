#include "fault/retry_policy.hpp"

#include <algorithm>
#include <vector>

namespace ftsched {

RetryPolicy RetryPolicy::none() {
  RetryPolicy p;
  p.kind = Kind::kNone;
  p.max_retries = 0;
  return p;
}

RetryPolicy RetryPolicy::immediate(std::uint32_t max_retries) {
  RetryPolicy p;
  p.kind = Kind::kImmediate;
  p.max_retries = max_retries;
  return p;
}

RetryPolicy RetryPolicy::fixed(std::uint64_t delay, std::uint32_t max_retries) {
  FT_REQUIRE(delay >= 1);
  RetryPolicy p;
  p.kind = Kind::kFixed;
  p.base_delay = delay;
  p.max_retries = max_retries;
  return p;
}

RetryPolicy RetryPolicy::backoff(std::uint64_t base, double multiplier,
                                 std::uint64_t max_delay,
                                 std::uint32_t max_retries, double jitter) {
  FT_REQUIRE(base >= 1);
  FT_REQUIRE(multiplier >= 1.0);
  FT_REQUIRE(max_delay >= base);
  FT_REQUIRE(jitter >= 0.0);
  RetryPolicy p;
  p.kind = Kind::kBackoff;
  p.base_delay = base;
  p.multiplier = multiplier;
  p.max_delay = max_delay;
  p.max_retries = max_retries;
  p.jitter = jitter;
  return p;
}

std::optional<std::uint64_t> RetryPolicy::delay_for(std::uint32_t attempt,
                                                    Xoshiro256ss& rng) const {
  FT_REQUIRE(attempt >= 1);
  if (kind == Kind::kNone || attempt > max_retries) return std::nullopt;
  switch (kind) {
    case Kind::kNone:
      return std::nullopt;
    case Kind::kImmediate:
      return 0;
    case Kind::kFixed:
      return base_delay;
    case Kind::kBackoff: {
      double d = static_cast<double>(base_delay);
      const double cap = static_cast<double>(max_delay);
      for (std::uint32_t i = 1; i < attempt && d < cap; ++i) d *= multiplier;
      std::uint64_t delay = std::min(max_delay, static_cast<std::uint64_t>(d));
      if (jitter > 0.0) {
        delay += static_cast<std::uint64_t>(rng.uniform01() * jitter *
                                            static_cast<double>(delay));
      }
      return delay;
    }
  }
  FT_UNREACHABLE();
}

std::string RetryPolicy::spec() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kImmediate:
      return "immediate:" + std::to_string(max_retries);
    case Kind::kFixed:
      return "fixed:" + std::to_string(base_delay) + ":" +
             std::to_string(max_retries);
    case Kind::kBackoff: {
      std::string out = "backoff:" + std::to_string(base_delay) + ":" +
                        std::to_string(max_retries);
      if (jitter > 0.0) out.append(":").append(std::to_string(jitter));
      return out;
    }
  }
  FT_UNREACHABLE();
}

Result<RetryPolicy> parse_retry_policy(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = text.find(':', start);
    parts.push_back(text.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }

  auto parse_u64 = [](const std::string& s, std::uint64_t& out) {
    if (s.empty()) return false;
    out = 0;
    for (char c : s) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
  };
  auto parse_frac = [&](const std::string& s, double& out) {
    const std::size_t dot = s.find('.');
    std::uint64_t whole = 0;
    std::uint64_t frac = 0;
    if (!parse_u64(s.substr(0, dot), whole)) return false;
    double f = 0.0;
    if (dot != std::string::npos) {
      const std::string tail = s.substr(dot + 1);
      if (!parse_u64(tail, frac)) return false;
      double scale = 1.0;
      for (std::size_t i = 0; i < tail.size(); ++i) scale *= 10.0;
      f = static_cast<double>(frac) / scale;
    }
    out = static_cast<double>(whole) + f;
    return true;
  };

  const std::string& kind = parts[0];
  std::uint64_t retries = 8;
  if (kind == "none") {
    if (parts.size() != 1) {
      return Result<RetryPolicy>::error("retry policy 'none' takes no fields");
    }
    return Result<RetryPolicy>(RetryPolicy::none());
  }
  if (kind == "immediate") {
    if (parts.size() > 2 ||
        (parts.size() == 2 && !parse_u64(parts[1], retries))) {
      return Result<RetryPolicy>::error("expected immediate[:retries]");
    }
    return Result<RetryPolicy>(
        RetryPolicy::immediate(static_cast<std::uint32_t>(retries)));
  }
  if (kind == "fixed") {
    std::uint64_t delay = 0;
    if (parts.size() < 2 || parts.size() > 3 || !parse_u64(parts[1], delay) ||
        delay == 0 || (parts.size() == 3 && !parse_u64(parts[2], retries))) {
      return Result<RetryPolicy>::error("expected fixed:delay[:retries]");
    }
    return Result<RetryPolicy>(
        RetryPolicy::fixed(delay, static_cast<std::uint32_t>(retries)));
  }
  if (kind == "backoff") {
    std::uint64_t base = 0;
    double jitter = 0.0;
    if (parts.size() < 2 || parts.size() > 4 || !parse_u64(parts[1], base) ||
        base == 0 || (parts.size() >= 3 && !parse_u64(parts[2], retries)) ||
        (parts.size() == 4 && !parse_frac(parts[3], jitter))) {
      return Result<RetryPolicy>::error(
          "expected backoff:base[:retries[:jitter]]");
    }
    return Result<RetryPolicy>(
        RetryPolicy::backoff(base, 2.0, 64 * base,
                             static_cast<std::uint32_t>(retries), jitter));
  }
  return Result<RetryPolicy>::error("unknown retry policy kind '" + kind +
                                    "' (none|immediate|fixed|backoff)");
}

}  // namespace ftsched
