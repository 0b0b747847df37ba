// Serial-equivalence and pin-discipline tests for the paged out-of-core
// store (DESIGN.md §13): PagedStore must answer queries, aggregates and
// expiry byte-identically to BruteForceStore across page sizes down to
// one record per page and pools down to the 2-frame floor — on both the
// in-memory and the file-backed PageFile.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/error.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "storage/brute_force_store.h"
#include "storage/paged/buffer_manager.h"
#include "storage/paged/page.h"
#include "storage/paged/paged_store.h"
#include "storage/store_config.h"

namespace poolnet::storage {
namespace {

using Backing = PagedStoreOptions::Backing;

// ---------------------------------------------------------------- page codec

TEST(Page, RecordCodecRoundTrips) {
  Event e;
  e.id = 0x1122334455667788ull;
  e.source = 42;
  e.detected_at = 1234.5;
  e.values = {0.25, 0.5, 0.75};

  std::vector<std::uint8_t> buf(event_record_bytes(3));
  encode_event(buf.data(), e);
  const Event back = decode_event(buf.data(), 3);
  EXPECT_EQ(back.id, e.id);
  EXPECT_EQ(back.source, e.source);
  EXPECT_EQ(back.detected_at, e.detected_at);
  ASSERT_EQ(back.values.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d)
    EXPECT_EQ(back.values[d], e.values[d]);
}

TEST(Page, CapacityAccountsForHeader) {
  // 44-byte records (k=3): a 52-byte page holds exactly one, 4096 holds 92.
  EXPECT_EQ(event_record_bytes(3), 44u);
  EXPECT_EQ(page_capacity(52, 3), 1u);
  EXPECT_EQ(page_capacity(4096, 3), (4096u - kPageHeaderBytes) / 44u);
}

// ------------------------------------------------------------ buffer manager

TEST(BufferManager, RejectsPoolBelowTwoFrames) {
  MemPageFile file(256);
  EXPECT_THROW(BufferManager(file, 1), ConfigError);
  EXPECT_THROW(BufferManager(file, 0), ConfigError);
}

TEST(BufferManager, HitsMissesAndEvictionsAreCounted) {
  MemPageFile file(64);
  BufferManager mgr(file, 2);
  const PageId a = file.allocate();
  const PageId b = file.allocate();
  const PageId c = file.allocate();

  mgr.fetch(a).release();  // miss
  mgr.fetch(a).release();  // hit
  mgr.fetch(b).release();  // miss
  mgr.fetch(c).release();  // miss + eviction (pool of 2 is full)
  const PagerStats s = mgr.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_GE(s.evictions, 1u);
  EXPECT_EQ(s.pool_pages, 2u);
  EXPECT_EQ(s.pinned, 0u);
  EXPECT_GE(s.pinned_high_water, 1u);
}

TEST(BufferManager, DirtyVictimIsWrittenBackBeforeReuse) {
  MemPageFile file(64);
  BufferManager mgr(file, 2);
  const PageId a = file.allocate();
  const PageId b = file.allocate();
  const PageId c = file.allocate();
  {
    BufferManager::Pin pin = mgr.fetch(a);
    pin.data()[10] = 0xAB;
    pin.mark_dirty();
  }
  // Force `a` out of the pool, then read it back from the file.
  mgr.fetch(b).release();
  mgr.fetch(c).release();
  EXPECT_GE(mgr.stats().writebacks, 1u);
  BufferManager::Pin again = mgr.fetch(a);
  EXPECT_EQ(again.data()[10], 0xAB);
}

TEST(BufferManager, PinnedFramesAreNeverEvicted) {
  MemPageFile file(64);
  BufferManager mgr(file, 2);
  const PageId a = file.allocate();
  const PageId b = file.allocate();
  const PageId c = file.allocate();

  BufferManager::Pin pa = mgr.fetch(a);
  pa.data()[0] = 0x5A;
  {
    // The second frame churns while `a` stays pinned and intact.
    mgr.fetch(b).release();
    mgr.fetch(c).release();
    mgr.fetch(b).release();
  }
  EXPECT_EQ(pa.data()[0], 0x5A);

  // With both frames pinned, a third fetch has no victim: the pin
  // discipline (at most two live pins) is enforced by assertion.
  BufferManager::Pin pb = mgr.fetch(b);
  EXPECT_THROW(mgr.fetch(c), AssertionError);
}

TEST(BufferManager, PinMoveTransfersOwnershipAndReleaseIsIdempotent) {
  MemPageFile file(64);
  BufferManager mgr(file, 2);
  const PageId a = file.allocate();

  BufferManager::Pin p1 = mgr.fetch(a);
  EXPECT_EQ(mgr.stats().pinned, 1u);
  BufferManager::Pin p2 = std::move(p1);
  EXPECT_FALSE(p1.valid());
  EXPECT_TRUE(p2.valid());
  EXPECT_EQ(mgr.stats().pinned, 1u);  // a move is not a second pin
  p2.release();
  p2.release();  // idempotent
  EXPECT_EQ(mgr.stats().pinned, 0u);
}

TEST(BufferManager, DiscardDropsResidencyWithoutWriteback) {
  MemPageFile file(64);
  BufferManager mgr(file, 4);
  const PageId a = file.allocate();
  {
    BufferManager::Pin pin = mgr.fetch(a);
    pin.data()[0] = 0x77;
    pin.mark_dirty();
  }
  mgr.discard(a);
  EXPECT_EQ(mgr.stats().writebacks, 0u);
  // The file copy never saw the dirty byte.
  BufferManager::Pin again = mgr.fetch(a);
  EXPECT_EQ(again.data()[0], 0x00);
}

TEST(BufferManager, MetricsRegisterUnderPrefix) {
  MemPageFile file(64);
  obs::MetricsRegistry registry;
  BufferManager mgr(file, 2, &registry, "store.pager");
  const PageId a = file.allocate();
  mgr.fetch(a).release();
  mgr.fetch(a).release();
  const obs::Snapshot snap = registry.scrape();
  EXPECT_EQ(snap.counters.at("store.pager.hits"), 1u);
  EXPECT_EQ(snap.counters.at("store.pager.misses"), 1u);
  EXPECT_EQ(snap.counters.at("store.pager.evictions"), 0u);
  EXPECT_EQ(snap.counters.at("store.pager.writebacks"), 0u);
  EXPECT_EQ(snap.gauges.at("store.pager.pinned_high_water"), 1.0);
}

// ------------------------------------------------- flat/paged equivalence

/// Expects full byte-equivalence: same events, same order, same floats.
void expect_same_events(const std::vector<Event>& flat,
                        const std::vector<Event>& paged,
                        const std::string& label) {
  ASSERT_EQ(flat.size(), paged.size()) << label;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].id, paged[i].id) << label << " event " << i;
    EXPECT_EQ(flat[i].source, paged[i].source) << label;
    EXPECT_EQ(flat[i].detected_at, paged[i].detected_at) << label;
    ASSERT_EQ(flat[i].values.size(), paged[i].values.size()) << label;
    for (std::size_t d = 0; d < flat[i].values.size(); ++d)
      EXPECT_EQ(flat[i].values[d], paged[i].values[d]) << label;
  }
}

struct EquivCase {
  std::size_t page_bytes;
  std::size_t pool_pages;
  Backing backing;
};

/// Inserts `n` generated events into both stores (with expiry interleaved
/// when `expire_every` > 0), then compares queries and aggregates.
void run_equivalence(const EquivCase& c, std::uint64_t seed, std::size_t n,
                     std::uint64_t expire_every) {
  const std::string label =
      "page=" + std::to_string(c.page_bytes) +
      " pool=" + std::to_string(c.pool_pages) +
      (c.backing == Backing::File ? " file" : " mem") +
      " seed=" + std::to_string(seed);

  BruteForceStore flat(3);
  PagedStoreOptions po;
  po.page_bytes = c.page_bytes;
  po.pool_pages = c.pool_pages;
  po.backing = c.backing;
  PagedStore paged(3, po);

  query::EventGenerator gen({.dims = 3}, seed);
  std::uint64_t flat_expired = 0;
  std::uint64_t paged_expired = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    Event e = gen.next(static_cast<net::NodeId>(i % 17));
    e.detected_at = static_cast<double>(i);
    flat.insert(e.source, e);
    paged.insert(e.source, e);
    if (expire_every > 0 && (i + 1) % expire_every == 0) {
      const double cutoff = static_cast<double>(i) / 2.0;
      flat_expired += flat.expire_before(cutoff);
      paged_expired += paged.expire_before(cutoff);
      ASSERT_EQ(flat_expired, paged_expired) << label << " at i=" << i;
      ASSERT_EQ(flat.stored_count(), paged.stored_count()) << label;
    }
  }
  // Conservation: nothing lost, nothing double-counted.
  EXPECT_EQ(paged.stored_count() + paged_expired, n) << label;

  query::QueryGenerator qgen({.dims = 3}, seed + 1000);
  for (int q = 0; q < 24; ++q) {
    const RangeQuery range = qgen.exact_range();
    const auto f = flat.execute(0, range);
    const auto p = paged.execute(0, range);
    expect_same_events(f.events, p.events, label + " q" + std::to_string(q));

    // Aggregates accumulate in the same (id) order -> bit-equal doubles.
    for (const AggregateKind kind :
         {AggregateKind::Count, AggregateKind::Sum, AggregateKind::Min,
          AggregateKind::Max, AggregateKind::Average}) {
      const auto fa = flat.execute(0, AggregateQuery{range, kind, 1});
      const auto pa = paged.execute(0, AggregateQuery{range, kind, 1});
      EXPECT_EQ(fa.aggregate.valid, pa.aggregate.valid) << label;
      EXPECT_EQ(fa.aggregate.value, pa.aggregate.value)
          << label << " kind=" << static_cast<int>(kind);
    }
  }
}

TEST(PagedEquivalence, DefaultKnobs) {
  run_equivalence({4096, 64, Backing::Mem}, 11, 800, 0);
}

TEST(PagedEquivalence, TinyPagesOneRecordEach) {
  // 52-byte pages hold exactly one k=3 record: every structural edge
  // (page links, chain walks, compaction) fires on every event.
  run_equivalence({52, 8, Backing::Mem}, 12, 300, 0);
}

TEST(PagedEquivalence, MinimumPoolOfTwoFrames) {
  // Two frames force an eviction on nearly every access; any pin leak or
  // stale-frame bug surfaces as divergence or an assertion.
  run_equivalence({256, 2, Backing::Mem}, 13, 500, 0);
}

TEST(PagedEquivalence, FileBackedPool) {
  run_equivalence({512, 4, Backing::File}, 14, 500, 0);
}

TEST(PagedEquivalence, ExpiryChurnMatchesFlatStore) {
  for (const std::uint64_t seed : {21u, 22u, 23u})
    run_equivalence({256, 4, Backing::Mem}, seed, 600, 100);
}

TEST(PagedEquivalence, ExpiryChurnTinyPagesMinPool) {
  run_equivalence({52, 2, Backing::Mem}, 31, 300, 50);
}

TEST(PagedEquivalence, ExpiryChurnFileBacked) {
  run_equivalence({128, 2, Backing::File}, 41, 400, 80);
}

TEST(PagedStoreTest, RejectsBadConfiguration) {
  PagedStoreOptions po;
  po.page_bytes = 16;  // header + no room for even one record
  EXPECT_THROW(PagedStore(3, po), ConfigError);
  PagedStoreOptions small_pool;
  small_pool.pool_pages = 1;
  EXPECT_THROW(PagedStore(3, small_pool), ConfigError);
  EXPECT_THROW(PagedStore(0, PagedStoreOptions{}), ConfigError);
}

TEST(PagedStoreTest, ExpiredPagesAreReusedNotLeaked) {
  PagedStoreOptions po;
  po.page_bytes = 52;  // one record per page: expiry frees pages fast
  po.pool_pages = 4;
  PagedStore store(3, po);
  query::EventGenerator gen({.dims = 3}, 5);
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      Event e = gen.next(0);
      e.detected_at = static_cast<double>(round * 50 + i);
      store.insert(0, e);
    }
    store.expire_before(static_cast<double>((round + 1) * 50));
  }
  EXPECT_EQ(store.stored_count(), 0u);
  // Steady-state churn must recycle the free list: the file stays near
  // one round's worth of pages, not ten rounds'.
  EXPECT_LE(store.page_count(), 120u);
  EXPECT_EQ(store.free_pages(), store.page_count());  // all pages free
}

TEST(PagedStoreTest, PagerCountersReachTheSharedRegistry) {
  obs::MetricsRegistry registry;
  PagedStoreOptions po;
  po.pool_pages = 2;
  po.page_bytes = 128;
  PagedStore store(3, po, &registry);
  query::EventGenerator gen({.dims = 3}, 6);
  for (int i = 0; i < 200; ++i) store.insert(0, gen.next(0));
  store.matching(RangeQuery({{0, 1}, {0, 1}, {0, 1}}));
  const obs::Snapshot snap = registry.scrape();
  EXPECT_GT(snap.counters.at("store.pager.misses"), 0u);
  EXPECT_GT(snap.counters.at("store.pager.evictions"), 0u);
  EXPECT_GT(snap.counters.at("store.pager.writebacks"), 0u);
  ASSERT_TRUE(snap.gauges.count("store.pager.pinned_high_water"));
  EXPECT_LE(snap.gauges.at("store.pager.pinned_high_water"), 2.0);
}

// ------------------------------------------------------------- store config

TEST(StoreConfig, ParsesSpecsAndRoundTrips) {
  StoreConfig config;
  std::string error;
  ASSERT_TRUE(parse_store_spec("flat", &config, &error)) << error;
  EXPECT_EQ(config.kind, StoreKind::Flat);

  ASSERT_TRUE(parse_store_spec("paged", &config, &error)) << error;
  EXPECT_EQ(config.kind, StoreKind::Paged);
  EXPECT_EQ(config.paged.pool_pages, 256u);
  EXPECT_EQ(config.paged.page_bytes, 4096u);
  EXPECT_EQ(config.paged.backing, Backing::Mem);

  ASSERT_TRUE(parse_store_spec("paged:64:8", &config, &error)) << error;
  EXPECT_EQ(config.paged.pool_pages, 64u);
  EXPECT_EQ(config.paged.page_bytes, 8u * 1024u);

  ASSERT_TRUE(parse_store_spec("paged:16:4:file", &config, &error)) << error;
  EXPECT_EQ(config.paged.backing, Backing::File);

  // to_spec must parse back to the same configuration.
  StoreConfig back;
  ASSERT_TRUE(parse_store_spec(to_spec(config), &back, &error)) << error;
  EXPECT_EQ(back.kind, config.kind);
  EXPECT_EQ(back.paged.pool_pages, config.paged.pool_pages);
  EXPECT_EQ(back.paged.page_bytes, config.paged.page_bytes);
  EXPECT_EQ(back.paged.backing, config.paged.backing);
}

TEST(StoreConfig, RejectsMalformedSpecsAndLeavesConfigUntouched) {
  StoreConfig config;
  std::string error;
  ASSERT_TRUE(parse_store_spec("paged:64:8", &config, &error));
  for (const char* bad : {"", "vinyl", "paged:1:4", "paged:64:0",
                          "paged:64:abc", "paged:64:4:tape",
                          "paged:64:4:mem:extra",
                          // Past SIZE_MAX, and pools whose bytes overflow.
                          "paged:18446744073709551618:1",
                          "paged:64:18446744073709551616",
                          "paged:2:18014398509481984",
                          "paged:1024:18014398509481983"}) {
    error.clear();
    EXPECT_FALSE(parse_store_spec(bad, &config, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_EQ(config.paged.pool_pages, 64u) << bad;  // untouched on failure
  }
}

TEST(StoreConfig, FactoryBuildsTheSelectedStore) {
  StoreConfig config;
  std::string error;
  ASSERT_TRUE(parse_store_spec("flat", &config, &error));
  auto flat = make_central_store(3, config, nullptr, nullptr, net::kNoNode);
  ASSERT_NE(flat, nullptr);
  EXPECT_EQ(flat->describe().find("paged"), std::string::npos);

  ASSERT_TRUE(parse_store_spec("paged:8:1", &config, &error));
  auto paged = make_central_store(3, config, nullptr, nullptr, net::kNoNode);
  ASSERT_NE(paged, nullptr);
  EXPECT_NE(paged->describe().find("paged"), std::string::npos);
  EXPECT_EQ(flat->name(), paged->name());  // both are the central system
}

}  // namespace
}  // namespace poolnet::storage
