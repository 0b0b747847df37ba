// The direct workloads: no daemon, the driver calls the library itself.
//
//   sweep_pool, sweep_dim, sweep_ght
//       DcsSystem::execute from random sinks with the paper's query mix
//       (§5, Figs 6-7), one workload per system so each system's speed
//       and message cost is its own end-to-end figure. All three share one
//       deployment with 3 uniform events per node; routing, the network
//       ledger and the dissemination walks do the work.
//   store_churn
//       a QueryEngine over Pool with its result cache on and batching off,
//       on a deployment preloaded with 40 events per node. Each step is 40
//       fresh inserts from random sources, then one query: 80%
//       exponential-size ranges (half drawn Zipf-skewed from 256 templates,
//       half ad hoc), 15% k-NN, 5% skyline. Every 50k inserts per 2700
//       nodes, expire_before keeps the live set between 150k and 200k
//       events, so the storage scan kernels dominate, and cache hits sit
//       beside invalidations without making up most answers.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>

#include "bench.h"
#include "bench_support/testbed.h"
#include "common/rng.h"
#include "ght/ght_system.h"
#include "layers.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "routing/route_cache.h"
#include "server/query_language.h"
#include "statements.h"
#include "trace.h"

namespace poolbench {

using namespace poolnet;

namespace {

constexpr std::size_t kSweepSetups = 9;  // set-ups per run; setup_s is their median
constexpr std::size_t kChurnSetups = 5;
constexpr std::size_t kSweepEventsPerNode = 3;
constexpr std::size_t kChurnEventsPerNode = 40;
constexpr std::size_t kWarmupQueries = 200;
// Answers checked per run: between cap and twice cap. The churn oracle
// answers a k-NN query in about 20 ms at 175k events.
constexpr std::size_t kSweepChecked = 1000;
constexpr std::size_t kChurnChecked = 200;
constexpr std::size_t kReplayed = 2000;  // statements kept for the replay
constexpr std::size_t kInsertsPerStep = 40;
constexpr std::size_t kRangeTemplates = 256;

/// The in-process stack of a direct workload: one deployment with no
/// preloaded data, the system under test on it (GHT on its own network
/// over the same positions, as poolnetd builds it), and a QueryEngine.
class Stack {
 public:
  Stack(const Options& opt, const std::string& system,
        engine::QueryEngineConfig engine_config)
      : tb_(testbed_config(opt)), name_(system) {
    if (system == "pool") {
      system_ = &tb_.pool();
      network_ = &tb_.pool_network();
    } else if (system == "dim") {
      system_ = &tb_.dim();
      network_ = &tb_.dim_network();
    } else {
      std::vector<Point> pts;
      for (const net::Node& n : tb_.pool_network().nodes()) pts.push_back(n.pos);
      ght_net_ = std::make_unique<net::Network>(
          std::move(pts), tb_.pool_network().field(), tb_.config().radio_range);
      ght_gpsr_ = std::make_unique<routing::Gpsr>(*ght_net_);
      ght_cache_ = std::make_unique<routing::RouteCache>(
          *ght_gpsr_, tb_.config().route_cache, &tb_.metrics(),
          "ght.route_cache");
      ght_ = std::make_unique<ght::GhtSystem>(*ght_net_, *ght_cache_, kDims);
      system_ = ght_.get();
      network_ = ght_net_.get();
    }
    engine_ = std::make_unique<engine::QueryEngine>(
        *system_, engine_config, &tb_.metrics(), system + ".engine");
  }

  benchsup::Testbed& testbed() { return tb_; }
  storage::DcsSystem& system() { return *system_; }
  engine::QueryEngine& engine() { return *engine_; }

  /// Route-cache {hits, misses} of the system under test so far.
  std::array<double, 2> route_cache() const {
    const obs::Snapshot snap = tb_.metrics().scrape();
    const auto get = [&](const char* what) {
      const auto it = snap.counters.find(name_ + ".route_cache." + what);
      return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return {get("hits"), get("misses")};
  }

  LayerStack layers(storage::BruteForceStore& oracle, net::NodeId sink) {
    return LayerStack{*system_, *engine_, *network_, oracle, tb_.pool_gpsr(),
                      sink};
  }

 private:
  static benchsup::TestbedConfig testbed_config(const Options& opt) {
    benchsup::TestbedConfig c;
    c.nodes = opt.nodes();
    c.dims = kDims;
    c.events_per_node = 0;  // the workload preloads, timing every insert
    c.seed = opt.deploy_seed;
    return c;
  }

  benchsup::Testbed tb_;
  std::string name_;
  std::unique_ptr<net::Network> ght_net_;
  std::unique_ptr<routing::Gpsr> ght_gpsr_;
  std::unique_ptr<routing::RouteCache> ght_cache_;
  std::unique_ptr<ght::GhtSystem> ght_;
  storage::DcsSystem* system_ = nullptr;
  net::Network* network_ = nullptr;
  std::unique_ptr<engine::QueryEngine> engine_;
};

/// Preloaded data: `per_node` uniform events at every node, drawn from the
/// deployment seed, numbered from 1 with detected_at = id so that data
/// aging removes the oldest first.
std::vector<storage::Event> preload_events(const Options& opt,
                                           std::size_t per_node) {
  query::EventGenerator gen({.dims = kDims}, opt.deploy_seed ^ 0x9e10adu);
  std::vector<storage::Event> events;
  for (net::NodeId n = 0; n < opt.nodes(); ++n) {
    for (std::size_t i = 0; i < per_node; ++i) {
      storage::Event e = gen.next(n);
      e.detected_at = static_cast<double>(e.id);
      events.push_back(e);
    }
  }
  return events;
}

/// The stack left standing by build() and its figures, one per set-up.
struct Setup {
  std::unique_ptr<Stack> stack;
  std::vector<double> total_s, deploy_s, preload_s, insert_rate;
  double msgs_per_insert = 0.0;
};

/// Builds a stack and preloads it through QueryEngine::insert, `setups`
/// times over (each replacing the last).
Setup build(const Options& opt, const std::string& system,
            engine::QueryEngineConfig engine_config,
            const std::vector<storage::Event>& events, std::size_t setups,
            Tracer& tracer, HostSpeed& setup_host) {
  Setup s;
  for (std::size_t k = 0; k < setups; ++k) {
    setup_host.sample();
    s.stack.reset();
    const auto t0 = Clock::now();
    s.stack = std::make_unique<Stack>(opt, system, engine_config);
    const auto t1 = Clock::now();
    double busy = 0.0, msgs = 0.0;
    for (const storage::Event& e : events) {
      const int span = tracer.begin("engine.insert", e.id);
      const auto a = Clock::now();
      const storage::InsertReceipt r = s.stack->engine().insert(e.source, e);
      busy += seconds_between(a, Clock::now());
      tracer.end(span);
      msgs += static_cast<double>(r.messages);
    }
    const auto t2 = Clock::now();
    s.total_s.push_back(seconds_between(t0, t2));
    s.deploy_s.push_back(seconds_between(t0, t1));
    s.preload_s.push_back(seconds_between(t1, t2));
    s.insert_rate.push_back(static_cast<double>(events.size()) / busy);
    s.msgs_per_insert = msgs / static_cast<double>(events.size());
  }
  return s;
}

/// Calls of one kind in the measured phase: latency, rate over the whole
/// phase and over each half (the traced pass traces the second), and the
/// messages charged.
struct Live {
  Live(Clock::time_point start, double seconds)
      : start(start),
        mid(after(start, seconds / 2)),
        end(after(start, seconds)),
        all(start, seconds),
        first(start, seconds / 2),
        second(mid, seconds / 2) {}

  void record(Clock::time_point a, Clock::time_point b, double messages) {
    const double busy = seconds_between(a, b);
    latency.add(ms_between(a, b));
    all.add(b, busy);
    first.add(b, busy);
    second.add(b, busy);
    ++calls;
    msgs += messages;
  }

  Clock::time_point start, mid, end;
  Histogram latency;
  Windows all, first, second;
  std::uint64_t calls = 0;
  double msgs = 0.0;
};

/// The driver's own time between one call's end and the next call's
/// start: the direct workloads' counterpart of generator lateness. A gap
/// that held a host-speed sample is not counted.
struct Gaps {
  Histogram ms;
  std::optional<Clock::time_point> prev;

  void next(Clock::time_point start, Clock::time_point end) {
    if (prev) ms.add(ms_between(*prev, start));
    prev = end;
  }
};

void end_to_end(const Live& queries, const Setup& setup, Outcome& out) {
  auto& m = out.metrics;
  m["qps"] = queries.all.rate_by_busy();
  m["p50_ms"] = queries.latency.quantile(0.5);
  m["p99_ms"] = queries.latency.quantile(0.99);
  m["msgs_per_query"] =
      queries.msgs / static_cast<double>(std::max<std::uint64_t>(1, queries.calls));
  m["setup_s"] = median(setup.total_s);
}

/// Per-layer figures every direct workload reports the same way, after
/// replay_layers has filled the shared ones.
void direct_layers(const Live& queries, const Gaps& gaps, const Setup& setup,
                   const HostSpeed& host, double work_p50,
                   const std::array<double, 2>& route_delta, Outcome& out) {
  auto& m = out.metrics;
  m["server.occupancy"] = setup.stack->engine().stats().batch_occupancy.mean();
  m["server.wait_ms"] = std::max(0.0, queries.latency.quantile(0.5) - work_p50);
  m["routing.cache_hit_rate"] =
      route_delta[0] / std::max(1.0, route_delta[0] + route_delta[1]);
  m["bench_support.deploy_s"] = median(setup.deploy_s);
  m["bench_support.preload_s"] = median(setup.preload_s);
  m["bench.gen_late_p99_ms"] = gaps.ms.quantile(0.99);
  // Each half at the reference speed, so the host's drift between them
  // does not pass for tracing cost.
  m["bench.trace_overhead"] =
      queries.first.rate_by_busy() * host.slowdown(queries.start, queries.mid) /
      (queries.second.rate_by_busy() * host.slowdown(queries.mid, queries.end));
}

/// What the correctness check keeps of a run: a pseudo-random share of the
/// operations that halves whenever the sample holds 2 * cap items, so the
/// sample stays spread over the run, bounded however far the run gets,
/// and independent of the workloads' fixed class rotations.
template <class T>
class EvenSample {
 public:
  struct Kept {
    std::uint64_t index;
    T item;
  };

  explicit EvenSample(std::size_t cap) : cap_(cap) {}

  bool wants(std::uint64_t i) const { return hash(i) % stride_ == 0; }

  void keep(std::uint64_t i, T item) {
    kept_.push_back({i, std::move(item)});
    if (kept_.size() < 2 * cap_) return;
    stride_ *= 2;
    std::erase_if(kept_, [&](const Kept& k) { return !wants(k.index); });
  }

  /// In operation order.
  const std::vector<Kept>& kept() const { return kept_; }

 private:
  static std::uint64_t hash(std::uint64_t i) {  // SplitMix64 finalizer
    i = (i ^ (i >> 30)) * 0xbf58476d1ce4e5b9ull;
    i = (i ^ (i >> 27)) * 0x94d049bb133111ebull;
    return i ^ (i >> 31);
  }

  std::size_t cap_;
  std::vector<Kept> kept_;
  std::uint64_t stride_ = 1;
};

std::vector<storage::Event> reference(const storage::BruteForceStore& oracle,
                                      const storage::QueryRequest& request) {
  std::vector<storage::Event> all = oracle.all();
  switch (request.cls()) {
    case storage::QueryClass::Skyline:
      storage::skyline_filter(request.skyline(), all);
      break;
    case storage::QueryClass::KNearest:
      storage::knn_filter(request.k_nearest(), all);
      break;
    case storage::QueryClass::Range:
      std::erase_if(all, [&](const storage::Event& e) {
        return !request.range().matches(e);
      });
      break;
  }
  return all;
}

}  // namespace

Outcome run_sweep(const Options& opt) {
  Outcome out;
  const std::string system = opt.workload.substr(opt.workload.find('_') + 1);
  Tracer tracer(opt.trace);
  HostSpeed setup_host, host;
  const std::vector<storage::Event> events =
      preload_events(opt, kSweepEventsPerNode);
  Setup setup = build(opt, system, {}, events, kSweepSetups, tracer, setup_host);
  const double loaded_rss = self_peak_rss_mb();
  Stack& stack = *setup.stack;
  storage::BruteForceStore& oracle = stack.testbed().oracle();
  for (const storage::Event& e : events) oracle.insert(e.source, e);

  Rng sinks(opt.seed ^ 0x51c4u);
  {
    PaperMix warm(opt.seed ^ 0xa7a7u);
    for (std::size_t i = 0; i < kWarmupQueries; ++i)
      stack.system().execute(stack.testbed().random_node(sinks), warm.next());
  }

  struct Answer {
    storage::QueryRequest request;
    std::uint64_t checksum;
  };
  EvenSample<Answer> sample(kSweepChecked);
  std::vector<std::string> replayed;
  PaperMix mix(opt.seed);
  const std::array<double, 2> route0 = stack.route_cache();
  const auto start = Clock::now();
  const auto end = after(start, opt.seconds);
  const auto mid = after(start, opt.seconds / 2);
  Live live(start, opt.seconds);
  Gaps gaps;
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    if (host.tick()) gaps.prev.reset();
    const storage::QueryRequest q = mix.next();
    const net::NodeId sink = stack.testbed().random_node(sinks);
    tracer.set_enabled(opt.trace && Clock::now() >= mid);
    const int rs = tracer.begin("request", i);
    const int ss = tracer.begin(system_span(q.cls()), i, rs);
    const auto a = Clock::now();
    const storage::QueryReceipt r = stack.system().execute(sink, q);
    const auto b = Clock::now();
    tracer.end(ss);
    tracer.end(rs);
    live.record(a, b, static_cast<double>(r.messages));
    gaps.next(a, b);
    if (sample.wants(i)) sample.keep(i, {q, answer_checksum(q, r.events)});
    if (opt.trace && replayed.size() < kReplayed)
      replayed.push_back(server::to_query_text(q));
  }
  const std::array<double, 2> route1 = stack.route_cache();
  out.attempted = live.calls + events.size();
  out.host_slowdown = host.slowdown();

  // Correctness: the sampled answers against the canonical kernels over
  // the oracle, which holds the same events.
  std::size_t mismatches = 0;
  for (const auto& k : sample.kept())
    if (answer_checksum(k.item.request, reference(oracle, k.item.request)) !=
        k.item.checksum)
      ++mismatches;
  if (mismatches > 0)
    out.fail(std::to_string(mismatches) + " of " +
             std::to_string(sample.kept().size()) + " checked " + system +
             " answers differ from the oracle");

  if (!opt.trace) {
    end_to_end(live, setup, out);
    out.host_bound({"qps", "p50_ms", "p99_ms"}, host.slowdown());
    out.host_bound({"setup_s", "inserts_per_s"}, setup_host.slowdown());
    out.metrics["inserts_per_s"] = median(setup.insert_rate);
    out.metrics["msgs_per_insert"] = setup.msgs_per_insert;
    out.metrics["peak_rss_mb"] = loaded_rss;
    return out;
  }

  tracer.set_enabled(true);
  const double work_p50 =
      replay_layers(stack.layers(oracle, 0), replayed, 1, opt.seed,
                    opt.seconds / 5, tracer, out);
  const engine::ResultCacheStats cache = stack.engine().cache_stats();
  auto& m = out.metrics;
  m["engine.cache_hit_rate"] = cache.hit_rate();
  m["engine.invalidations_per_insert"] =
      static_cast<double>(cache.invalidations) / static_cast<double>(events.size());
  m["engine.insert_us"] = tracer.stat("engine.insert").mean_self_us();
  direct_layers(live, gaps, setup, host, work_p50,
                {route1[0] - route0[0], route1[1] - route0[1]}, out);
  if (!tracer.write(opt.out_dir + "/" + opt.workload + ".trace.json", opt.workload))
    out.fail("cannot write the trace file");
  return out;
}

namespace {

/// The store_churn operation stream: a pure function of the seed, so the
/// verification replays exactly what the measured phase ran.
class ChurnStream {
 public:
  struct Step {
    std::vector<storage::Event> inserts;
    std::optional<double> expire_cutoff;  ///< expire_before after the inserts
    storage::QueryRequest query = placeholder_request();
    net::NodeId sink = 0;
  };

  ChurnStream(const Options& opt, std::uint64_t first_id)
      : nodes_(static_cast<std::int64_t>(opt.nodes())),
        period_(opt.nodes() * 50000 / 2700),
        window_(opt.nodes() * 150000 / 2700),
        rng_(opt.seed ^ 0xc4u),
        events_({.dims = kDims}, opt.seed ^ 0xe7u),
        ranges_({.dims = kDims,
                 .dist = query::RangeSizeDistribution::Exponential},
                opt.seed ^ 0x7au),
        knn_({.dims = kDims}, opt.seed ^ 0x07u),
        next_id_(first_id) {
    // Templates are ranked smallest first: the popular ranges are small
    // ones, which inserts rarely invalidate. Ranking by size, not by draw
    // order, keeps what a rank costs the same for every seed.
    for (std::size_t i = 0; i < kRangeTemplates; ++i)
      templates_.push_back(ranges_.exact_range());
    std::stable_sort(templates_.begin(), templates_.end(),
                     [](const storage::RangeQuery& a, const storage::RangeQuery& b) {
                       return a.volume() < b.volume();
                     });
    double total = 0.0;  // Zipf, exponent 1: rank r has weight 1/r
    for (std::size_t r = 1; r <= templates_.size(); ++r)
      zipf_cdf_.push_back(total += 1.0 / static_cast<double>(r));
  }

  /// Steps whose inserts cross the first expiry: the warm-up, after which
  /// the live set stays between window and window + period events.
  std::size_t warmup_steps() const {
    return (period_ + kInsertsPerStep - 1) / kInsertsPerStep;
  }

  const Step& next() {
    step_.inserts.clear();
    step_.expire_cutoff.reset();
    for (std::size_t k = 0; k < kInsertsPerStep; ++k) {
      const auto src = static_cast<net::NodeId>(rng_.uniform_int(0, nodes_ - 1));
      storage::Event e = events_.next(src);
      e.id = next_id_++;
      e.detected_at = static_cast<double>(e.id);
      step_.inserts.push_back(e);
      if (++inserted_ % period_ == 0)
        step_.expire_cutoff = static_cast<double>(next_id_) -
                              static_cast<double>(window_);
    }
    // A fixed 20-step class cycle, so every run holds the same shares:
    // 8 templated ranges, 8 ad-hoc ranges, 3 k-NN and 1 skyline.
    const std::size_t phase = step_index_++ % 20;
    if (phase == 19) {
      step_.query = rotating_skyline(skylines_++);
    } else if (phase % 5 == 4) {
      step_.query = knn_.knn_query();
    } else if (phase % 2 == 1) {
      step_.query = ranges_.exact_range();
    } else {
      const auto rank = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                         rng_.uniform() * zipf_cdf_.back()) -
                        zipf_cdf_.begin();
      step_.query = templates_[static_cast<std::size_t>(rank)];
    }
    step_.sink = static_cast<net::NodeId>(rng_.uniform_int(0, nodes_ - 1));
    return step_;
  }

 private:
  std::int64_t nodes_;
  std::size_t period_;
  std::size_t window_;
  Rng rng_;
  query::EventGenerator events_;
  query::QueryGenerator ranges_;  ///< exponential-size exact ranges
  query::QueryGenerator knn_;
  std::uint64_t next_id_;
  std::uint64_t inserted_ = 0;
  std::uint64_t step_index_ = 0;
  std::uint64_t skylines_ = 0;
  std::vector<storage::RangeQuery> templates_;
  std::vector<double> zipf_cdf_;
  Step step_;
};

}  // namespace

Outcome run_churn(const Options& opt) {
  Outcome out;
  Tracer tracer(false);
  HostSpeed setup_host, host;
  engine::QueryEngineConfig ec;
  ec.cache.enabled = true;  // batching stays off: batch_size 0
  const std::vector<storage::Event> events =
      preload_events(opt, kChurnEventsPerNode);
  Setup setup = build(opt, "pool", ec, events, kChurnSetups, tracer, setup_host);
  const double loaded_rss = self_peak_rss_mb();
  Stack& stack = *setup.stack;
  engine::QueryEngine& eng = stack.engine();
  const std::uint64_t first_id = events.size() + 1;

  // The measured phase starts once the warm-up has crossed the first expiry.
  struct Measured {
    Live inserts, queries;
    Gaps gaps;
  };
  ChurnStream stream(opt, first_id);
  double expired = 0.0;
  std::uint64_t inserted = events.size();
  const auto run_step = [&](const ChurnStream::Step& step, Measured* meas,
                            std::uint64_t i) {
    for (const storage::Event& e : step.inserts) {
      const int span = tracer.begin("engine.insert", e.id);
      const auto a = Clock::now();
      const storage::InsertReceipt r = eng.insert(e.source, e);
      const auto b = Clock::now();
      tracer.end(span);
      if (meas) {
        meas->inserts.record(a, b, static_cast<double>(r.messages));
        meas->gaps.next(a, b);
      }
    }
    inserted += step.inserts.size();
    if (step.expire_cutoff) {
      expired += static_cast<double>(eng.expire_before(*step.expire_cutoff));
      if (meas) meas->gaps.prev.reset();  // aging is neither call kind
    }
    const int rs = tracer.begin("request", i);
    const auto a = Clock::now();
    const int ss = tracer.begin("engine.submit", i, rs);
    const engine::QueryEngine::Ticket t = eng.submit(step.sink, step.query);
    tracer.end(ss);
    const int ts = tracer.begin("engine.take", i, rs);
    storage::QueryReceipt r = eng.take(t);
    tracer.end(ts);
    const auto b = Clock::now();
    tracer.end(rs);
    if (meas) {
      meas->queries.record(a, b, static_cast<double>(r.messages));
      meas->gaps.next(a, b);
    }
    return r;
  };

  std::uint64_t step = 0;
  for (; step < stream.warmup_steps(); ++step) run_step(stream.next(), nullptr, step);

  EvenSample<std::uint64_t> checksums(kChurnChecked);  // by measured query
  std::vector<std::string> replayed;
  const engine::ResultCacheStats cache0 = eng.cache_stats();
  const std::array<double, 2> route0 = stack.route_cache();
  const std::uint64_t measured_from = step;
  const auto start = Clock::now();
  const auto end = after(start, opt.seconds);
  const auto mid = after(start, opt.seconds / 2);
  Measured meas{Live(start, opt.seconds), Live(start, opt.seconds), Gaps{}};
  for (; Clock::now() < end; ++step) {
    if (host.tick()) meas.gaps.prev.reset();
    tracer.set_enabled(opt.trace && Clock::now() >= mid);
    const ChurnStream::Step& s = stream.next();
    const storage::QueryReceipt r = run_step(s, &meas, step);
    if (checksums.wants(step - measured_from))
      checksums.keep(step - measured_from, answer_checksum(s.query, r.events));
    if (opt.trace && replayed.size() < kReplayed)
      replayed.push_back(server::to_query_text(s.query));
  }
  tracer.set_enabled(false);
  const engine::ResultCacheStats cache1 = eng.cache_stats();
  const std::array<double, 2> route1 = stack.route_cache();
  out.attempted = meas.inserts.calls + meas.queries.calls;
  out.host_slowdown = host.slowdown();

  // Correctness: the same stream replayed into the oracle; every sampled
  // answer must match, and no event may appear or vanish.
  storage::BruteForceStore oracle(kDims);
  for (const storage::Event& e : events) oracle.insert(e.source, e);
  ChurnStream again(opt, first_id);
  std::size_t mismatches = 0, checked = 0;
  const auto& kept = checksums.kept();
  for (std::uint64_t k = 0; k < step; ++k) {
    const ChurnStream::Step& s = again.next();
    for (const storage::Event& e : s.inserts) oracle.insert(e.source, e);
    if (s.expire_cutoff) oracle.expire_before(*s.expire_cutoff);
    if (k < measured_from || checked == kept.size() ||
        kept[checked].index != k - measured_from)
      continue;
    const storage::QueryReceipt want = oracle.execute(s.sink, s.query);
    if (answer_checksum(s.query, want.events) != kept[checked++].item)
      ++mismatches;
  }
  if (mismatches > 0)
    out.fail(std::to_string(mismatches) + " of " + std::to_string(checked) +
             " checked churn answers differ from the oracle replay");
  const double live_events = static_cast<double>(stack.system().stored_count());
  if (static_cast<double>(inserted) != live_events + expired ||
      live_events != static_cast<double>(oracle.stored_count()))
    out.fail("events not conserved: inserted " + std::to_string(inserted) +
             ", live " + std::to_string(live_events) + ", expired " +
             std::to_string(expired));

  if (!opt.trace) {
    end_to_end(meas.queries, setup, out);
    out.host_bound({"qps", "p50_ms", "p99_ms", "inserts_per_s"}, host.slowdown());
    out.host_bound({"setup_s"}, setup_host.slowdown());
    out.metrics["inserts_per_s"] = meas.inserts.all.rate_by_busy();
    out.metrics["msgs_per_insert"] =
        meas.inserts.msgs /
        static_cast<double>(std::max<std::uint64_t>(1, meas.inserts.calls));
    out.metrics["peak_rss_mb"] = loaded_rss;
    return out;
  }

  auto& m = out.metrics;
  const double lookups = static_cast<double>(cache1.hits + cache1.misses -
                                             cache0.hits - cache0.misses);
  m["engine.cache_hit_rate"] =
      static_cast<double>(cache1.hits - cache0.hits) / std::max(1.0, lookups);
  m["engine.invalidations_per_insert"] =
      static_cast<double>(cache1.invalidations - cache0.invalidations) /
      static_cast<double>(std::max<std::uint64_t>(1, meas.inserts.calls));
  m["engine.insert_us"] = tracer.stat("engine.insert").mean_self_us();
  tracer.set_enabled(true);
  const double work_p50 =
      replay_layers(stack.layers(oracle, 0), replayed, 1, opt.seed,
                    opt.seconds / 5, tracer, out);
  direct_layers(meas.queries, meas.gaps, setup, host, work_p50,
                {route1[0] - route0[0], route1[1] - route0[1]}, out);
  if (!tracer.write(opt.out_dir + "/" + opt.workload + ".trace.json", opt.workload))
    out.fail("cannot write the trace file");
  return out;
}

}  // namespace poolbench
