#include "server/query_language.h"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace poolnet::server {
namespace {

/// Whitespace-and-punctuation tokenizer. Punctuation characters that
/// carry grammar ('[', ']', ',', '(', ')') become single-char tokens;
/// everything else splits on whitespace.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  const auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '[' || c == ']' || c == ',' || c == '(' || c == ')') {
      flush();
      tokens.push_back(std::string(1, c));
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return tokens;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool parse_number(const std::string& token, double* out) {
  const char* begin = token.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin && *end == '\0';
}

/// Parses an attribute token `a<i>` with i < dims.
bool parse_attr(const std::string& token, std::size_t dims, std::size_t* dim,
                std::string* error) {
  const std::string low = lower(token);
  if (low.size() < 2 || low[0] != 'a') {
    *error = "expected attribute a0..a" + std::to_string(dims - 1) +
             ", got '" + token + "'";
    return false;
  }
  char* end = nullptr;
  const long idx = std::strtol(low.c_str() + 1, &end, 10);
  if (*end != '\0' || idx < 0) {
    *error = "expected attribute a0..a" + std::to_string(dims - 1) +
             ", got '" + token + "'";
    return false;
  }
  if (static_cast<std::size_t>(idx) >= dims) {
    *error = "attribute '" + token + "' out of range for " +
             std::to_string(dims) + "-dimensional events";
    return false;
  }
  *dim = static_cast<std::size_t>(idx);
  return true;
}

/// Stream-style token cursor with a one-call error path.
struct Cursor {
  const std::vector<std::string>& tokens;
  std::size_t pos = 0;

  bool done() const { return pos >= tokens.size(); }
  const std::string& peek() const { return tokens[pos]; }
  std::string take() { return tokens[pos++]; }

  bool expect(const std::string& literal, std::string* error) {
    if (done() || lower(tokens[pos]) != lower(literal)) {
      *error = "expected '" + literal + "'" +
               (done() ? " at end of statement"
                       : ", got '" + tokens[pos] + "'");
      return false;
    }
    ++pos;
    return true;
  }

  bool number(double* out, std::string* error) {
    if (done() || !parse_number(tokens[pos], out)) {
      *error = "expected a number" +
               (done() ? std::string(" at end of statement")
                       : ", got '" + tokens[pos] + "'");
      return false;
    }
    ++pos;
    return true;
  }
};

bool in_unit_range(double v) { return v >= 0.0 && v <= 1.0; }

/// `SELECT SKYLINE [ON a<i>, a<j>, ...]` — the cursor sits after SKYLINE.
bool parse_skyline(Cursor& cur, std::size_t dims, storage::QueryRequest* out,
                   std::string* error) {
  FixedVec<bool, storage::kMaxDims> attrs;
  for (std::size_t d = 0; d < dims; ++d) attrs.push_back(false);
  if (cur.done()) {
    // Bare SKYLINE: dominance over every attribute.
    *out = storage::SkylineQuery(dims);
    return true;
  }
  if (!cur.expect("on", error)) return false;
  bool first = true;
  while (!cur.done()) {
    if (!first && !cur.expect(",", error)) return false;
    first = false;
    std::size_t dim = 0;
    if (cur.done()) {
      *error = "dangling ',' at end of statement";
      return false;
    }
    if (!parse_attr(cur.take(), dims, &dim, error)) return false;
    if (attrs[dim]) {
      *error = "attribute a" + std::to_string(dim) + " listed twice";
      return false;
    }
    attrs[dim] = true;
  }
  if (first) {
    *error = "ON needs at least one attribute";
    return false;
  }
  *out = storage::SkylineQuery(dims, attrs);
  return true;
}

/// `SELECT NEAREST <k> TO (v0, ..., v<k-1>) [WITHIN <r>]` — the cursor
/// sits after NEAREST.
bool parse_nearest(Cursor& cur, std::size_t dims, storage::QueryRequest* out,
                   std::string* error) {
  double k_raw = 0.0;
  if (!cur.number(&k_raw, error)) return false;
  if (k_raw < 1.0 || k_raw != static_cast<double>(
                                  static_cast<std::uint64_t>(k_raw)) ||
      k_raw > 1e6) {
    *error = "NEAREST count must be a positive integer";
    return false;
  }
  storage::KNearestQuery q;
  q.k = static_cast<std::size_t>(k_raw);
  if (!cur.expect("to", error) || !cur.expect("(", error)) return false;
  for (std::size_t d = 0; d < dims; ++d) {
    if (d > 0 && !cur.expect(",", error)) return false;
    double v = 0.0;
    if (!cur.number(&v, error)) return false;
    if (!in_unit_range(v)) {
      *error = "target value " + std::to_string(d) + " must lie in [0, 1]";
      return false;
    }
    q.target.push_back(v);
  }
  if (!cur.expect(")", error)) return false;
  if (!cur.done()) {
    if (!cur.expect("within", error)) return false;
    double r = 0.0;
    if (!cur.number(&r, error)) return false;
    if (r <= 0.0 || r > 1.0) {
      *error = "WITHIN radius must lie in (0, 1]";
      return false;
    }
    q.initial_radius = r;
  }
  if (!cur.done()) {
    *error = "trailing tokens: '" + cur.peek() + "'";
    return false;
  }
  *out = q;
  return true;
}

}  // namespace

bool parse_query(const std::string& text, std::size_t dims,
                 storage::QueryRequest* out, std::string* error) {
  const auto tokens = tokenize(text);
  Cursor cur{tokens};
  if (!cur.expect("select", error)) return false;
  if (!cur.done() && lower(cur.peek()) == "skyline") {
    cur.take();
    return parse_skyline(cur, dims, out, error);
  }
  if (!cur.done() && lower(cur.peek()) == "nearest") {
    cur.take();
    return parse_nearest(cur, dims, out, error);
  }
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery range{one};
  if (!parse_select(text, dims, &range, error)) return false;
  *out = range;
  return true;
}

bool parse_select(const std::string& text, std::size_t dims,
                  storage::RangeQuery* out, std::string* error) {
  const auto tokens = tokenize(text);
  Cursor cur{tokens};
  if (!cur.expect("select", error)) return false;

  storage::RangeQuery::Bounds bounds;
  FixedVec<bool, storage::kMaxDims> specified;
  for (std::size_t d = 0; d < dims; ++d) {
    bounds.push_back(ClosedInterval{0.0, 1.0});
    specified.push_back(false);
  }

  if (!cur.done()) {
    if (!cur.expect("where", error)) return false;
    if (cur.done()) {
      *error = "WHERE needs at least one 'a<i> IN [lo, hi]' clause";
      return false;
    }
    bool first = true;
    while (!cur.done()) {
      if (!first && !cur.expect("and", error)) return false;
      first = false;
      std::size_t dim = 0;
      if (cur.done()) {
        *error = "dangling AND at end of statement";
        return false;
      }
      if (!parse_attr(cur.take(), dims, &dim, error)) return false;
      if (specified[dim]) {
        *error = "attribute a" + std::to_string(dim) + " constrained twice";
        return false;
      }
      double lo = 0.0, hi = 0.0;
      if (!cur.expect("in", error) || !cur.expect("[", error) ||
          !cur.number(&lo, error) || !cur.expect(",", error) ||
          !cur.number(&hi, error) || !cur.expect("]", error)) {
        return false;
      }
      if (!in_unit_range(lo) || !in_unit_range(hi)) {
        *error = "bounds for a" + std::to_string(dim) +
                 " must lie in [0, 1]";
        return false;
      }
      if (hi < lo) {
        *error = "empty range for a" + std::to_string(dim) +
                 ": hi < lo";
        return false;
      }
      bounds[dim] = ClosedInterval{lo, hi};
      specified[dim] = true;
    }
  }

  *out = storage::RangeQuery(bounds, specified);
  return true;
}

bool parse_insert(const std::string& text, std::size_t dims,
                  storage::Values* out, std::string* error) {
  const auto tokens = tokenize(text);
  Cursor cur{tokens};
  if (!cur.expect("insert", error) || !cur.expect("values", error) ||
      !cur.expect("(", error)) {
    return false;
  }
  out->clear();
  for (std::size_t d = 0; d < dims; ++d) {
    if (d > 0 && !cur.expect(",", error)) return false;
    double v = 0.0;
    if (!cur.number(&v, error)) return false;
    if (!in_unit_range(v)) {
      *error = "value " + std::to_string(d) + " must lie in [0, 1]";
      return false;
    }
    out->push_back(v);
  }
  if (!cur.expect(")", error)) return false;
  if (!cur.done()) {
    *error = "trailing tokens after ')': '" + cur.peek() + "'";
    return false;
  }
  return true;
}

std::string to_select_text(const storage::RangeQuery& query) {
  std::ostringstream oss;
  oss.precision(17);  // max_digits10: doubles survive the text round-trip
  oss << "SELECT";
  bool any = false;
  for (std::size_t d = 0; d < query.dims(); ++d) {
    if (!query.specified(d)) continue;
    oss << (any ? " AND " : " WHERE ");
    any = true;
    const ClosedInterval b = query.bound(d);
    oss << "a" << d << " IN [" << b.lo << ", " << b.hi << "]";
  }
  return oss.str();
}

std::string to_query_text(const storage::QueryRequest& request) {
  switch (request.cls()) {
    case storage::QueryClass::Range:
      return to_select_text(request.range());
    case storage::QueryClass::Skyline: {
      const storage::SkylineQuery& q = request.skyline();
      std::ostringstream oss;
      oss << "SELECT SKYLINE";
      bool any = false;
      for (std::size_t d = 0; d < q.dims(); ++d) {
        if (!q.on(d)) continue;
        oss << (any ? ", " : " ON ");
        any = true;
        oss << "a" << d;
      }
      return oss.str();
    }
    case storage::QueryClass::KNearest: {
      const storage::KNearestQuery& q = request.k_nearest();
      std::ostringstream oss;
      oss.precision(17);  // max_digits10: doubles survive the round-trip
      oss << "SELECT NEAREST " << q.k << " TO (";
      for (std::size_t d = 0; d < q.dims(); ++d)
        oss << (d > 0 ? ", " : "") << q.target[d];
      oss << ")";
      if (q.initial_radius > 0.0) oss << " WITHIN " << q.initial_radius;
      return oss.str();
    }
    case storage::QueryClass::Aggregate:
      throw ConfigError("aggregate requests have no wire-grammar text");
  }
  return "SELECT";  // unreachable
}

}  // namespace poolnet::server
