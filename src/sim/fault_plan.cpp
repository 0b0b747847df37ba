#include "sim/fault_plan.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace poolnet::sim {

namespace {

/// A finite number: NaN would slip through every range check below,
/// since comparisons with it are false. Like parse_u64, no leading
/// whitespace or '+', which strtod alone would skip or accept.
bool parse_double(const std::string& s, double* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
      s[0] == '+')
    return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Decimal digits only: strtoull alone would skip leading whitespace and
/// accept a sign, wrapping "-1" to 2^64 - 1.
bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = v;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool fail(std::string* error, const std::string& clause,
          const char* why) {
  if (error) *error = "fault clause '" + clause + "': " + why;
  return false;
}

}  // namespace

bool parse_fault_spec(const std::string& spec, FaultPlan* plan,
                      std::string* error) {
  plan->actions.clear();
  if (spec.empty() || spec == "off" || spec == "none") return true;

  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;
    const auto colon = clause.find(':');
    if (colon == std::string::npos)
      return fail(error, clause, "expected <kind>:<params>");
    const std::string kind = clause.substr(0, colon);
    const std::string rest = clause.substr(colon + 1);

    if (kind == "seed") {
      if (!parse_u64(rest, &plan->seed))
        return fail(error, clause, "seed must be an integer");
      continue;
    }

    const auto at_pos = rest.rfind('@');
    if (at_pos == std::string::npos)
      return fail(error, clause, "expected ...@<time>");
    const std::string params = rest.substr(0, at_pos);
    const std::string when = rest.substr(at_pos + 1);

    FaultAction a;
    if (kind == "kill") {
      a.kind = FaultKind::KillFraction;
      if (!parse_double(params, &a.fraction) || a.fraction < 0.0 ||
          a.fraction > 1.0)
        return fail(error, clause, "fraction must be in [0, 1]");
      if (!parse_double(when, &a.at) || a.at < 0.0)
        return fail(error, clause, "time must be >= 0");
      plan->actions.push_back(a);
    } else if (kind == "node") {
      a.kind = FaultKind::KillNode;
      std::uint64_t id = 0;
      if (!parse_u64(params, &id) ||
          id > std::numeric_limits<std::uint32_t>::max())
        return fail(error, clause, "node id must be a 32-bit integer");
      a.node = static_cast<std::uint32_t>(id);
      if (!parse_double(when, &a.at) || a.at < 0.0)
        return fail(error, clause, "time must be >= 0");
      plan->actions.push_back(a);
    } else if (kind == "blackout") {
      a.kind = FaultKind::Blackout;
      const auto parts = split(params, ',');
      if (parts.size() != 3 || !parse_double(parts[0], &a.center.x) ||
          !parse_double(parts[1], &a.center.y) ||
          !parse_double(parts[2], &a.radius) || a.radius < 0.0)
        return fail(error, clause, "expected blackout:<x>,<y>,<r>@<t>");
      if (!parse_double(when, &a.at) || a.at < 0.0)
        return fail(error, clause, "time must be >= 0");
      plan->actions.push_back(a);
    } else if (kind == "degrade") {
      if (!parse_double(params, &a.extra_loss) || a.extra_loss < 0.0 ||
          a.extra_loss >= 1.0)
        return fail(error, clause, "loss must be in [0, 1)");
      const auto dash = when.find('-');
      double t0 = 0.0, t1 = 0.0;
      if (dash == std::string::npos ||
          !parse_double(when.substr(0, dash), &t0) ||
          !parse_double(when.substr(dash + 1), &t1) || t0 < 0.0 || t1 < t0)
        return fail(error, clause, "expected degrade:<p>@<t0>-<t1>");
      a.kind = FaultKind::DegradeStart;
      a.at = t0;
      plan->actions.push_back(a);
      FaultAction end;
      end.kind = FaultKind::DegradeEnd;
      end.at = t1;
      plan->actions.push_back(end);
    } else {
      return fail(error, clause, "unknown kind (kill/node/blackout/degrade)");
    }
  }

  std::stable_sort(plan->actions.begin(), plan->actions.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
  return true;
}

}  // namespace poolnet::sim
