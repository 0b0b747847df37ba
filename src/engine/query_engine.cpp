#include "engine/query_engine.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/error.h"

namespace poolnet::engine {

bool parse_batch_spec(const std::string& spec, std::size_t* batch_size,
                      std::string* error) {
  if (spec == "off") {
    *batch_size = 0;
    return true;
  }
  if (spec.empty() ||
      spec.find_first_not_of("0123456789") != std::string::npos) {
    *error = "bad --batch spec '" + spec + "' (want off or a positive count)";
    return false;
  }
  errno = 0;
  const unsigned long long n = std::strtoull(spec.c_str(), nullptr, 10);
  if (errno != 0 || n == 0 || n > 1000000) {
    *error = "bad --batch size '" + spec + "' (want 1..1000000)";
    return false;
  }
  *batch_size = static_cast<std::size_t>(n);
  return true;
}

QueryEngine::QueryEngine(storage::DcsSystem& system, QueryEngineConfig config,
                         obs::MetricsRegistry* metrics,
                         const std::string& prefix)
    : system_(system),
      config_(config),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      cache_(config.cache, metrics != nullptr ? metrics : owned_metrics_.get(),
             prefix + ".result_cache") {
  obs::MetricsRegistry* reg =
      metrics != nullptr ? metrics : owned_metrics_.get();
  submitted_ = reg->counter(prefix + ".submitted");
  cache_hits_ = reg->counter(prefix + ".cache_hits");
  batches_ = reg->counter(prefix + ".batches");
  serial_executions_ = reg->counter(prefix + ".serial_executions");
  skyline_queries_ = reg->counter(prefix + ".skyline_queries");
  knn_queries_ = reg->counter(prefix + ".knn_queries");
  messages_ = reg->counter(prefix + ".messages");
  messages_saved_ = reg->counter(prefix + ".messages_saved");
  serial_cell_visits_ = reg->counter(prefix + ".serial_cell_visits");
  unique_cell_visits_ = reg->counter(prefix + ".unique_cell_visits");
  retries_ = reg->counter(prefix + ".retries");
  failovers_ = reg->counter(prefix + ".failovers");
  failed_legs_ = reg->counter(prefix + ".failed_legs");
  events_lost_ = reg->counter(prefix + ".events_lost");
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.value();
  s.cache_hits = cache_hits_.value();
  s.batches = batches_.value();
  s.serial_executions = serial_executions_.value();
  s.skyline_queries = skyline_queries_.value();
  s.knn_queries = knn_queries_.value();
  s.messages = messages_.value();
  s.messages_saved = messages_saved_.value();
  s.serial_cell_visits = serial_cell_visits_.value();
  s.unique_cell_visits = unique_cell_visits_.value();
  s.retries = retries_.value();
  s.failovers = failovers_.value();
  s.failed_legs = failed_legs_.value();
  s.events_lost = events_lost_.value();
  s.batch_occupancy = batch_occupancy_;
  s.dedup_ratio = dedup_ratio_;
  return s;
}

void QueryEngine::advance_clock(std::uint64_t events) {
  now_ += events;
  if (!pending_.empty() && now_ - epoch_opened_ >= config_.batch_deadline)
    flush();
}

void QueryEngine::tick(std::uint64_t events) { advance_clock(events); }

QueryEngine::Ticket QueryEngine::submit(net::NodeId sink,
                                        const storage::QueryRequest& query) {
  advance_clock(1);
  submitted_.inc();
  const Ticket ticket = next_ticket_++;

  // Only range rectangles are cacheable: invalidate_containing() knows
  // how a new event perturbs a box answer, but not a skyline or a top-k.
  if (query.cls() == storage::QueryClass::Range) {
    if (const auto* cached = cache_.lookup(query.range(), now_)) {
      // Served entirely at the sink: zero network traffic.
      cache_hits_.inc();
      storage::QueryReceipt receipt;
      receipt.events = *cached;
      results_.emplace(ticket, std::move(receipt));
      return ticket;
    }
  }

  if (config_.batch_size <= 1) {
    execute_group(sink, {{ticket, sink, query}});
    return ticket;
  }

  if (pending_.empty()) epoch_opened_ = now_;
  pending_.push_back({ticket, sink, query});
  if (pending_.size() >= config_.batch_size) flush();
  return ticket;
}

void QueryEngine::absorb_fault_stats() {
  const storage::FaultStats& f = system_.fault_stats();
  retries_.add(f.retries - fault_seen_.retries);
  failovers_.add(f.failovers - fault_seen_.failovers);
  failed_legs_.add(f.failed_legs - fault_seen_.failed_legs);
  events_lost_.add(f.events_lost - fault_seen_.events_lost);
  fault_seen_ = f;
}

void QueryEngine::finish(Ticket ticket, const storage::QueryRequest& q,
                         storage::QueryReceipt receipt) {
  if (q.cls() == storage::QueryClass::Range)
    cache_.store(q.range(), receipt.events, now_);
  results_.emplace(ticket, std::move(receipt));
}

void QueryEngine::flush() {
  if (pending_.empty()) return;
  std::vector<PendingQuery> epoch;
  epoch.swap(pending_);

  // Group by sink in first-appearance order; queries from different sinks
  // share no dissemination tree, so each group merges independently.
  struct Group {
    net::NodeId sink;
    std::vector<PendingQuery> members;
  };
  std::vector<Group> groups;
  for (PendingQuery& p : epoch) {
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.sink == p.sink) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({p.sink, {}});
      g = &groups.back();
    }
    g->members.push_back(std::move(p));
  }

  for (Group& g : groups) execute_group(g.sink, std::move(g.members));
}

void QueryEngine::execute_group(net::NodeId sink,
                                std::vector<PendingQuery> members) {
  std::vector<storage::QueryRequest> requests;
  requests.reserve(members.size());
  std::size_t ranges = 0;
  for (PendingQuery& p : members) {
    ranges += p.query.cls() == storage::QueryClass::Range;
    requests.push_back(std::move(p.query));
  }
  storage::BatchQueryReceipt batch = system_.execute_batch(sink, requests);
  absorb_fault_stats();
  messages_.add(batch.messages);
  messages_saved_.add(batch.messages_saved);
  serial_cell_visits_.add(batch.serial_cell_visits);
  unique_cell_visits_.add(batch.unique_cell_visits);

  // execute_batch merges the ranges only when there are two or more.
  // Every other member ran alone with its own exact receipt; what the
  // batch totals hold beyond those is the merged share.
  const bool merged = ranges >= 2;
  storage::ResultReceipt alone;
  std::vector<storage::QueryReceipt*> sharing;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const storage::QueryClass cls = requests[i].cls();
    if (merged && cls == storage::QueryClass::Range) {
      sharing.push_back(&batch.per_query[i]);
      continue;
    }
    alone += batch.per_query[i];
    serial_executions_.inc();
    if (cls == storage::QueryClass::Skyline) skyline_queries_.inc();
    if (cls == storage::QueryClass::KNearest) knn_queries_.inc();
    batch_occupancy_.add(1.0);
  }
  if (merged) {
    const std::size_t serial =
        batch.serial_cell_visits - alone.index_nodes_visited;
    const std::size_t unique =
        batch.unique_cell_visits - alone.index_nodes_visited;
    batches_.inc();
    batch_occupancy_.add(static_cast<double>(ranges));
    dedup_ratio_.add(unique > 0 ? static_cast<double>(serial) /
                                      static_cast<double>(unique)
                                : 1.0);
    // The transport was shared, so per-query attribution is a policy
    // choice: amortize each message field evenly across the merged ranges
    // (remainder to the earliest) unless the system already attributed
    // exactly.
    std::uint64_t attributed = 0;
    for (const storage::QueryReceipt* r : sharing) attributed += r->messages;
    if (attributed != batch.messages - alone.messages) {
      const auto spread = [&](std::uint64_t total,
                              std::uint64_t storage::QueryReceipt::*field) {
        const std::uint64_t n = sharing.size();
        for (std::uint64_t i = 0; i < n; ++i)
          sharing[i]->*field = total / n + (i < total % n ? 1 : 0);
      };
      spread(batch.messages - alone.messages,
             &storage::QueryReceipt::messages);
      spread(batch.query_messages - alone.query_messages,
             &storage::QueryReceipt::query_messages);
      spread(batch.reply_messages - alone.reply_messages,
             &storage::QueryReceipt::reply_messages);
    }
  }

  for (std::size_t i = 0; i < members.size(); ++i)
    finish(members[i].ticket, requests[i], std::move(batch.per_query[i]));
}

storage::QueryReceipt QueryEngine::take(Ticket ticket) {
  if (!ready(ticket)) flush();
  const auto it = results_.find(ticket);
  if (it == results_.end())
    throw ConfigError("QueryEngine: unknown or already-taken ticket");
  storage::QueryReceipt receipt = std::move(it->second);
  results_.erase(it);
  return receipt;
}

storage::InsertReceipt QueryEngine::insert(net::NodeId source,
                                           const storage::Event& e) {
  advance_clock(1);
  const storage::InsertReceipt receipt = system_.insert(source, e);
  absorb_fault_stats();
  cache_.invalidate_containing(e.values);
  return receipt;
}

std::size_t QueryEngine::expire_before(double cutoff) {
  // Aging removes exactly the stored events detected before the cutoff,
  // so each cached answer stays exact after shedding those same events —
  // surviving entries keep serving hits.
  cache_.expire_data_before(cutoff);
  return system_.expire_before(cutoff);
}

}  // namespace poolnet::engine
