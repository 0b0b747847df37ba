// Inputs the workloads draw from their seeds, and the answer fingerprint
// the correctness gates compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_gen.h"
#include "storage/event.h"
#include "storage/query_request.h"

namespace poolbench {

/// Event dimensionality of every workload (the paper's k = 3).
inline constexpr std::size_t kDims = 3;

/// A valid request for parse_query to overwrite (QueryRequest has no
/// empty state).
poolnet::storage::QueryRequest placeholder_request();

/// `INSERT VALUES (...)` text whose values parse back bit-identical.
std::string insert_statement(const poolnet::storage::Values& values);

/// Skyline query i of a rotation over the seven non-empty attribute
/// subsets of kDims = 3, whose costs differ by an order of magnitude: a
/// fixed rotation keeps their shares the same for every seed.
poolnet::storage::SkylineQuery rotating_skyline(std::uint64_t i);

/// The paper's query mix (§5.1, Figs 6-7) plus the two derived classes:
/// exact uniform, exact exponential, 1-partial and 2-partial ranges,
/// skyline (rotating_skyline) and k-NN, in strict rotation so every run of
/// a given length holds the same share of each.
class PaperMix {
 public:
  explicit PaperMix(std::uint64_t seed);
  poolnet::storage::QueryRequest next();

 private:
  poolnet::query::QueryGenerator uniform_;
  poolnet::query::QueryGenerator exponential_;
  std::uint64_t i_ = 0;
  std::uint64_t skylines_ = 0;
};

/// FNV-1a over the answer's events (id, source, value bits) in canonical
/// order: ranges id-sorted, since systems return them in visit order;
/// skyline and k-NN as returned, their order being canonical already.
std::uint64_t answer_checksum(const poolnet::storage::QueryRequest& request,
                              std::vector<poolnet::storage::Event> events);

}  // namespace poolbench
