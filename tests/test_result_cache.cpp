// ResultCache against a naive model, plus an exact pin of a cached
// engine run.
//
// The model keeps every entry in a plain vector and tests every
// rectangle on every insert — the definition of precise invalidation.
// The cache must agree with it call by call: the same return values, the
// same hit or miss, the same events and the same counters, on bounds and
// points placed exactly on the edges any value-space partition would
// use (multiples of 1/8, 0 and 1), for mixed dimensionalities.
#include "engine/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "bench_support/testbed.h"
#include "common/rng.h"
#include "engine/query_engine.h"
#include "fingerprint.h"
#include "query/query_gen.h"
#include "query/workload.h"

namespace poolnet::engine {
namespace {

using storage::Event;
using storage::RangeQuery;
using storage::Values;

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Bit-exact bound equality: the cache keys on bit patterns.
bool same_bounds(const RangeQuery::Bounds& a, const RangeQuery::Bounds& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t d = 0; d < a.size(); ++d)
    if (bits_of(a[d].lo) != bits_of(b[d].lo) ||
        bits_of(a[d].hi) != bits_of(b[d].hi))
      return false;
  return true;
}

class NaiveCache {
 public:
  explicit NaiveCache(ResultCacheConfig config) : config_(config) {}

  const std::vector<Event>* lookup(const RangeQuery& q, std::uint64_t now) {
    if (!config_.enabled) return nullptr;
    const auto it = find(q);
    if (it == entries_.end()) {
      ++stats.misses;
      return nullptr;
    }
    if (config_.ttl > 0 && now - it->stored_at >= config_.ttl) {
      entries_.erase(it);
      ++stats.expirations;
      ++stats.misses;
      return nullptr;
    }
    ++stats.hits;
    return &it->events;
  }

  void store(const RangeQuery& q, std::vector<Event> events,
             std::uint64_t now) {
    if (!config_.enabled) return;
    auto it = find(q);
    if (it == entries_.end())
      it = entries_.insert(entries_.end(), Entry{q.bounds(), {}, 0});
    it->events = std::move(events);
    it->stored_at = now;
    ++stats.insertions;
  }

  std::size_t invalidate_containing(const Values& values) {
    if (!config_.enabled) return 0;
    const auto erased = std::erase_if(entries_, [&](const Entry& e) {
      if (e.rect.size() != values.size()) return false;
      for (std::size_t d = 0; d < values.size(); ++d)
        if (!e.rect[d].contains(values[d])) return false;
      return true;
    });
    stats.invalidations += erased;
    return erased;
  }

  std::size_t expire_data_before(double cutoff) {
    if (!config_.enabled) return 0;
    std::size_t shrank = 0;
    for (Entry& e : entries_)
      if (std::erase_if(e.events, [cutoff](const Event& ev) {
            return ev.detected_at < cutoff;
          }) > 0)
        ++shrank;
    return shrank;
  }

  std::size_t size() const { return entries_.size(); }

  ResultCacheStats stats;

 private:
  struct Entry {
    RangeQuery::Bounds rect;
    std::vector<Event> events;
    std::uint64_t stored_at = 0;
  };

  std::vector<Entry>::iterator find(const RangeQuery& q) {
    return std::find_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return same_bounds(e.rect, q.bounds());
    });
  }

  ResultCacheConfig config_;
  std::vector<Entry> entries_;
};

void expect_same_stats(const ResultCacheStats& got,
                       const ResultCacheStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.invalidations, want.invalidations);
  EXPECT_EQ(got.expirations, want.expirations);
}

void expect_same_events(const std::vector<Event>& got,
                        const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]);
    EXPECT_EQ(bits_of(got[i].detected_at), bits_of(want[i].detected_at));
  }
}

/// Draws values that sit on the edges an eighth-grid would use, next to
/// them, at the domain ends, or anywhere.
double edge_value(Rng& rng) {
  const auto k = static_cast<double>(rng.uniform_int(0, 8));
  switch (rng.uniform_int(0, 5)) {
    case 0:
    case 1: return k / 8.0;
    case 2: return std::max(0.0, std::nextafter(k / 8.0, -1.0));
    case 3: return std::min(1.0, std::nextafter(k / 8.0, 2.0));
    default: return rng.uniform();
  }
}

/// A rectangle over `dims` dimensions; each dimension is a don't-care
/// (the whole [0, 1]) with probability 1/4.
RangeQuery edge_query(Rng& rng, std::size_t dims) {
  RangeQuery::Bounds bounds;
  FixedVec<bool, storage::kMaxDims> specified;
  for (std::size_t d = 0; d < dims; ++d) {
    double a = edge_value(rng), b = edge_value(rng);
    if (rng.uniform() < 0.5) b = a + rng.exponential_truncated(0.15, 1.0);
    if (b > 1.0) b = 1.0;
    if (a > b) std::swap(a, b);
    bounds.push_back({a, b});
    specified.push_back(rng.uniform() >= 0.25);
  }
  return RangeQuery(bounds, specified);
}

constexpr std::size_t kDimChoices[] = {1, 2, 3, 5};

std::size_t draw_dims(Rng& rng) {
  return kDimChoices[rng.uniform_int(0, 3)];
}

/// A point that often sits exactly on one of the given rectangle's
/// bounds, so the closed-interval edges are exercised.
Values edge_point(Rng& rng, std::size_t dims, const RangeQuery* near) {
  Values v;
  for (std::size_t d = 0; d < dims; ++d) {
    if (near != nullptr && near->dims() == dims && rng.uniform() < 0.6) {
      const ClosedInterval b = near->bound(d);
      const double pick = rng.uniform();
      v.push_back(pick < 0.3 ? b.lo
                  : pick < 0.6 ? b.hi
                               : b.lo + (b.hi - b.lo) * rng.uniform());
    } else {
      v.push_back(edge_value(rng));
    }
  }
  return v;
}

std::vector<Event> random_events(Rng& rng, std::uint64_t* next_id) {
  std::vector<Event> out(static_cast<std::size_t>(rng.uniform_int(0, 4)));
  for (Event& e : out) {
    e.id = (*next_id)++;
    e.source = static_cast<net::NodeId>(rng.uniform_int(0, 99));
    e.values.push_back(rng.uniform());
    e.detected_at = static_cast<double>(rng.uniform_int(0, 400));
  }
  return out;
}

/// How often a differential run met the cases worth covering.
struct Coverage {
  std::size_t restores = 0, multi_erases = 0, hits = 0, expired = 0,
              shrinks = 0;
};

/// One seeded run of mixed calls against both caches, checking after
/// each call; `seen` counts the interesting cases that occurred.
void run_differential(ResultCacheConfig config, std::uint64_t seed,
                      std::size_t steps, Coverage& seen) {
  ResultCache cache(config);
  NaiveCache model(config);
  Rng rng(seed);
  std::vector<RangeQuery> pool;  // re-used keys, so re-stores and hits occur
  for (std::size_t i = 0; i < 48; ++i)
    pool.push_back(edge_query(rng, draw_dims(rng)));
  std::uint64_t now = 0, next_id = 1;
  for (std::size_t step = 0; step < steps; ++step) {
    ++now;
    const RangeQuery q = rng.uniform() < 0.8
                             ? pool[static_cast<std::size_t>(rng.uniform_int(
                                   0, static_cast<std::int64_t>(pool.size()) - 1))]
                             : edge_query(rng, draw_dims(rng));
    const double op = rng.uniform();
    if (op < 0.3) {
      const auto* got = cache.lookup(q, now);
      const auto* want = model.lookup(q, now);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        expect_same_events(*got, *want);
        ++seen.hits;
      }
    } else if (op < 0.6) {
      const std::size_t before = model.size();
      const auto events = random_events(rng, &next_id);
      cache.store(q, events, now);
      model.store(q, events, now);
      if (model.size() == before && config.enabled) ++seen.restores;
    } else if (op < 0.97) {
      const Values v = edge_point(rng, draw_dims(rng), &q);
      const std::size_t got = cache.invalidate_containing(v);
      ASSERT_EQ(got, model.invalidate_containing(v)) << "step " << step;
      if (got >= 2) ++seen.multi_erases;
    } else {
      const double cutoff = static_cast<double>(rng.uniform_int(0, 400));
      const std::size_t got = cache.expire_data_before(cutoff);
      ASSERT_EQ(got, model.expire_data_before(cutoff)) << "step " << step;
      seen.shrinks += got;
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    expect_same_stats(cache.stats(), model.stats);
  }
  seen.expired = static_cast<std::size_t>(model.stats.expirations);
}

TEST(ResultCacheDifferential, MatchesNaiveModelWithoutTtl) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Coverage seen;
    run_differential({.enabled = true, .ttl = 0}, seed, 6000, seen);
    EXPECT_GT(seen.restores, 0u);
    EXPECT_GT(seen.multi_erases, 0u);
    EXPECT_GT(seen.hits, 0u);
    EXPECT_GT(seen.shrinks, 0u);
  }
}

TEST(ResultCacheDifferential, MatchesNaiveModelWithTtl) {
  for (const std::uint64_t ttl : {3ull, 25ull}) {
    Coverage seen;
    run_differential({.enabled = true, .ttl = ttl}, ttl * 13 + 5, 6000, seen);
    EXPECT_GT(seen.expired, 0u);
    EXPECT_GT(seen.hits, 0u);
  }
}

TEST(ResultCacheDifferential, DisabledCacheStaysEmpty) {
  Coverage seen;
  run_differential({.enabled = false, .ttl = 0}, 9, 500, seen);
  EXPECT_EQ(seen.restores + seen.hits + seen.multi_erases, 0u);
}

RangeQuery box(std::initializer_list<ClosedInterval> bounds) {
  RangeQuery::Bounds b;
  for (const ClosedInterval i : bounds) b.push_back(i);
  return RangeQuery(b);
}

Values point(std::initializer_list<double> xs) {
  Values v;
  for (const double x : xs) v.push_back(x);
  return v;
}

std::vector<Event> one_event(std::uint64_t id) {
  Event e;
  e.id = id;
  e.values.push_back(0.5);
  return {e};
}

TEST(ResultCacheDifferential, ErasesLastSlotAndTwoMatchesInOneCell) {
  ResultCache cache({.enabled = true});
  const RangeQuery a = box({{0.10, 0.12}, {0.10, 0.12}, {0.10, 0.12}});
  const RangeQuery b = box({{0.0, 0.5}, {0.0, 0.5}, {0.0, 0.5}});
  const RangeQuery c = box({{0.6, 0.7}, {0.6, 0.7}, {0.6, 0.7}});
  cache.store(a, one_event(1), 1);
  cache.store(b, one_event(2), 2);
  cache.store(c, one_event(3), 3);

  // c is the newest entry: erasing it must leave a and b intact.
  EXPECT_EQ(cache.invalidate_containing(point({0.65, 0.65, 0.65})), 1u);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.lookup(a, 4), nullptr);
  EXPECT_EQ(cache.lookup(a, 4)->front().id, 1u);
  EXPECT_EQ(cache.lookup(c, 4), nullptr);

  // a and b share the point's cell and both contain it.
  EXPECT_EQ(cache.invalidate_containing(point({0.11, 0.11, 0.11})), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 3u);

  // The oldest entry goes first, then a newer one moved into its place.
  cache.store(a, one_event(4), 5);
  cache.store(c, one_event(5), 6);
  EXPECT_EQ(cache.invalidate_containing(point({0.11, 0.11, 0.11})), 1u);
  ASSERT_NE(cache.lookup(c, 7), nullptr);
  EXPECT_EQ(cache.lookup(c, 7)->front().id, 5u);
  EXPECT_EQ(cache.invalidate_containing(point({0.7, 0.6, 0.65})), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheDifferential, ClosedBoundsOnCellEdgesAndDomainEnds) {
  ResultCache cache({.enabled = true});
  // [1/8, 2/8] closed: both edges are inside, their outer neighbours not.
  const RangeQuery q = box({{0.125, 0.25}});
  for (const double outside :
       {std::nextafter(0.125, 0.0), std::nextafter(0.25, 1.0), 0.0, 1.0}) {
    cache.store(q, {}, 1);
    EXPECT_EQ(cache.invalidate_containing(point({outside})), 0u) << outside;
  }
  for (const double inside : {0.125, 0.25}) {
    cache.store(q, {}, 1);
    EXPECT_EQ(cache.invalidate_containing(point({inside})), 1u) << inside;
  }
  // Degenerate rectangles at both domain ends.
  const RangeQuery lo = box({{0.0, 0.0}, {1.0, 1.0}});
  cache.store(lo, {}, 1);
  EXPECT_EQ(cache.invalidate_containing(point({0.0, std::nextafter(1.0, 0.0)})),
            0u);
  EXPECT_EQ(cache.invalidate_containing(point({0.0, 1.0})), 1u);
  // NaN lies in no rectangle, not even the whole space.
  cache.store(box({{0.0, 1.0}, {0.0, 1.0}}), {}, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(cache.invalidate_containing(point({nan, 0.5})), 0u);
  EXPECT_EQ(cache.invalidate_containing(point({0.5, nan})), 0u);
  EXPECT_EQ(cache.invalidate_containing(point({0.5, 0.5})), 1u);
}

TEST(ResultCacheDifferential, DontCareDimensionsCoverWholeSpace) {
  ResultCache cache({.enabled = true});
  RangeQuery::Bounds b;
  for (std::size_t d = 0; d < 5; ++d) b.push_back({0.4, 0.5});
  FixedVec<bool, storage::kMaxDims> specified;
  for (std::size_t d = 0; d < 5; ++d) specified.push_back(d == 4);
  const RangeQuery q(b, specified);  // only the fifth dimension is bound
  cache.store(q, {}, 1);
  // The first three dimensions are whole-space; the fifth decides.
  EXPECT_EQ(cache.invalidate_containing(point({0.0, 1.0, 0.99, 0.2, 0.6})),
            0u);
  EXPECT_EQ(cache.invalidate_containing(point({0.0, 1.0, 0.99, 0.2, 0.45})),
            1u);
  // A point of another dimensionality never matches.
  cache.store(q, {}, 2);
  EXPECT_EQ(cache.invalidate_containing(point({0.45, 0.45, 0.45})), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// Exact pin of a cached engine run: a fixed-seed churn of inserts, range
// queries (popular templates and fresh draws, exact and partial) and
// data aging through a QueryEngine over Pool. Any change to which
// entries are hit, stored or invalidated moves these constants.
// ---------------------------------------------------------------------

TEST(ResultCacheEnginePin, FixedSeedChurnOverPool) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.events_per_node = 1;
  config.seed = 5;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  QueryEngineConfig cfg;
  cfg.cache = {.enabled = true, .ttl = 400};
  QueryEngine eng(tb.pool(), cfg);

  query::EventGenerator events({.dims = 3}, 77);
  query::QueryGenerator ranges(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential}, 78);
  std::vector<RangeQuery> templates;
  for (int i = 0; i < 10; ++i) templates.push_back(ranges.exact_range());
  templates.push_back(ranges.partial_range(1));
  templates.push_back(ranges.partial_range(2));
  Rng rng(79);
  std::uint64_t next_id = 1'000'000;
  Fingerprint answers;
  for (int step = 0; step < 1500; ++step) {
    for (int k = 0; k < 4; ++k) {
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, 149));
      Event e = events.next(src);
      e.id = next_id++;
      e.detected_at = static_cast<double>(e.id);
      answers.add(eng.insert(src, e).messages);
    }
    if (step % 50 == 49)
      eng.expire_before(static_cast<double>(next_id) - 1200.0);
    const RangeQuery q =
        rng.uniform() < 0.7
            ? templates[static_cast<std::size_t>(rng.uniform_int(0, 11))]
            : ranges.exact_range();
    const auto sink = static_cast<net::NodeId>(rng.uniform_int(0, 149));
    answers.add_receipt(eng.take(eng.submit(sink, q)));
  }

  const ResultCacheStats c = eng.cache_stats();
  EXPECT_EQ(c.hits, 728u);
  EXPECT_EQ(c.misses, 772u);
  EXPECT_EQ(c.insertions, 772u);
  EXPECT_EQ(c.invalidations, 395u);
  EXPECT_EQ(c.expirations, 111u);
  const EngineStats s = eng.stats();
  EXPECT_EQ(s.submitted, 1500u);
  EXPECT_EQ(s.cache_hits, 728u);
  EXPECT_EQ(s.serial_executions, 772u);
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.messages, 17170u);
  EXPECT_EQ(s.messages_saved, 0u);
  EXPECT_EQ(answers.hash(), 7822766031747387503u);
}

}  // namespace
}  // namespace poolnet::engine
