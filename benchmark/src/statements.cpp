#include "statements.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace poolbench {

using namespace poolnet;

storage::QueryRequest placeholder_request() {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  return storage::QueryRequest{storage::RangeQuery{one}};
}

std::string insert_statement(const storage::Values& values) {
  std::string text = "INSERT VALUES (";
  char buf[40];
  for (std::size_t d = 0; d < values.size(); ++d) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", d ? ", " : "", values[d]);
    text += buf;
  }
  return text + ")";
}

storage::SkylineQuery rotating_skyline(std::uint64_t i) {
  const std::uint64_t mask = i % 7 + 1;
  return storage::SkylineQuery(
      kDims, FixedVec<bool, storage::kMaxDims>{(mask & 1) != 0, (mask & 2) != 0,
                                               (mask & 4) != 0});
}

PaperMix::PaperMix(std::uint64_t seed)
    : uniform_({.dims = kDims}, seed),
      exponential_({.dims = kDims,
                    .dist = query::RangeSizeDistribution::Exponential},
                   seed ^ 0xe4b0c7a5u) {}

storage::QueryRequest PaperMix::next() {
  switch (i_++ % 6) {
    case 0: return uniform_.exact_range();
    case 1: return exponential_.exact_range();
    case 2: return uniform_.partial_range(1);
    case 3: return uniform_.partial_range(2);
    case 4: return rotating_skyline(skylines_++);
    default: return uniform_.knn_query();
  }
}

std::uint64_t answer_checksum(const storage::QueryRequest& request,
                              std::vector<storage::Event> events) {
  if (request.cls() == storage::QueryClass::Range) {
    std::sort(events.begin(), events.end(),
              [](const storage::Event& a, const storage::Event& b) {
                return a.id < b.id;
              });
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(events.size());
  for (const storage::Event& e : events) {
    mix(e.id);
    mix(e.source);
    for (std::size_t d = 0; d < e.values.size(); ++d) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &e.values[d], sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace poolbench
