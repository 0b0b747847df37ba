#include "storage/column/row_kernels.h"

#include <algorithm>
#include <array>
#include <numeric>

namespace poolnet::storage {
namespace {

/// A ColumnStore's rows as kernel input, replicas optionally left out.
class ColumnRows {
 public:
  ColumnRows(const column::ColumnStore& store, bool skip_replicas)
      : store_(store), skip_replicas_(skip_replicas && store.has_meta()) {
    for (std::size_t d = 0; d < store.dims(); ++d) cols_[d] = store.column(d);
  }
  std::size_t size() const { return store_.size(); }
  bool skipped(std::size_t i) const {
    return skip_replicas_ && store_.replica_at(i);
  }
  double value(std::size_t i, std::size_t d) const { return cols_[d][i]; }
  std::uint64_t id(std::size_t i) const { return store_.id_at(i); }

 private:
  const column::ColumnStore& store_;
  bool skip_replicas_;
  std::array<const double*, kMaxDims> cols_{};
};

/// An Event vector as kernel input (the sinks and the central stores).
class EventRows {
 public:
  explicit EventRows(const std::vector<Event>& events) : events_(events) {}
  std::size_t size() const { return events_.size(); }
  bool skipped(std::size_t) const { return false; }
  // Unchecked, like the columns: every event has the query's dims.
  double value(std::size_t i, std::size_t d) const {
    return events_[i].values.begin()[d];
  }
  std::uint64_t id(std::size_t i) const { return events_[i].id; }

 private:
  const std::vector<Event>& events_;
};

/// One top-k candidate; ordered by (distance², id, row).
struct KnnKey {
  double d2;
  std::uint64_t id;
  std::uint32_t row;

  friend bool operator<(const KnnKey& a, const KnnKey& b) {
    if (a.d2 != b.d2) return a.d2 < b.d2;
    if (a.id != b.id) return a.id < b.id;
    return a.row < b.row;
  }
};

/// Per-thread scratch, reused across calls: queries run on whichever
/// thread executes them, and each reduction finishes before the next.
struct Scratch {
  std::vector<std::uint32_t> rows;   ///< candidate rows, ascending
  std::vector<double> sums;          ///< Σ selected values per candidate
  std::vector<double> vals;          ///< selected values, candidate-major
  std::vector<std::uint32_t> order;  ///< candidate positions, sorted
  std::vector<std::uint32_t> keep;   ///< the skyline found so far
  std::vector<KnnKey> keys;
  std::vector<std::uint32_t> picked;  ///< the Event entry points' answer
  std::vector<Event> kept;  ///< take_rows' output buffer, swapped in
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// True when `a` dominates `b` (both `k` selected values): never worse,
/// strictly better somewhere.
bool dominates(const double* a, const double* b, std::size_t k) {
  bool strict = false;
  for (std::size_t j = 0; j < k; ++j) {
    if (a[j] < b[j]) return false;
    if (a[j] > b[j]) strict = true;
  }
  return strict;
}

/// The sort-filter skyline (DESIGN.md §16). Sort order: descending sum of
/// the selected values, then descending selected values in lexicographic
/// order, then input order. Every dominator precedes its victims, so each
/// row is tested only against the skyline found so far.
template <class Rows>
void skyline_core(const Rows& in, const SkylineQuery& q,
                  std::vector<std::uint32_t>& out) {
  std::array<std::size_t, kMaxDims> sel{};
  std::size_t k = 0;
  for (std::size_t d = 0; d < q.dims(); ++d)
    if (q.on(d)) sel[k++] = d;

  Scratch& s = scratch();
  s.rows.clear();
  s.sums.clear();
  out.clear();
  const std::size_t n = in.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (in.skipped(i)) continue;
    double sum = 0.0;
    for (std::size_t j = 0; j < k; ++j) sum += in.value(i, sel[j]);
    s.rows.push_back(static_cast<std::uint32_t>(i));
    s.sums.push_back(sum);
  }
  if (s.rows.empty()) return;

  // Pre-pass: a row a member dominates is off the skyline, and dropping
  // it changes no other row's verdict (dominance is transitive). A row of
  // greatest sum tends to dominate the most, so its victims go before the
  // sort.
  const auto value_of = [&](std::size_t pos, std::size_t j) {
    return in.value(s.rows[pos], sel[j]);
  };
  const std::size_t first = static_cast<std::size_t>(
      std::max_element(s.sums.begin(), s.sums.end()) - s.sums.begin());
  std::array<double, kMaxDims> top{};
  for (std::size_t j = 0; j < k; ++j) top[j] = value_of(first, j);

  // Compact the survivors and copy their selected values once.
  s.vals.clear();
  std::array<double, kMaxDims> v{};
  std::size_t w = 0;
  for (std::size_t p = 0; p < s.rows.size(); ++p) {
    for (std::size_t j = 0; j < k; ++j) v[j] = value_of(p, j);
    if (dominates(top.data(), v.data(), k)) continue;
    s.vals.insert(s.vals.end(), v.begin(), v.begin() + k);
    s.rows[w] = s.rows[p];
    s.sums[w] = s.sums[p];
    ++w;
  }
  s.rows.resize(w);
  s.sums.resize(w);

  const auto at = [&](std::uint32_t p) { return &s.vals[p * k]; };
  s.order.resize(w);
  std::iota(s.order.begin(), s.order.end(), 0u);
  std::sort(s.order.begin(), s.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (s.sums[a] != s.sums[b]) return s.sums[a] > s.sums[b];
              const double* va = at(a);
              const double* vb = at(b);
              for (std::size_t j = 0; j < k; ++j)
                if (va[j] != vb[j]) return va[j] > vb[j];
              return a < b;
            });
  s.keep.clear();
  for (const std::uint32_t p : s.order) {
    if (std::none_of(s.keep.begin(), s.keep.end(), [&](std::uint32_t kept) {
          return dominates(at(kept), at(p), k);
        }))
      s.keep.push_back(p);
  }
  std::sort(s.keep.begin(), s.keep.end());
  out.reserve(s.keep.size());
  for (const std::uint32_t p : s.keep) out.push_back(s.rows[p]);
}

/// The top-k selection (DESIGN.md §15): each row's squared distance once,
/// accumulated in dimension order exactly as squared_distance does, then
/// the k best keys by partial sort, keeping the first row of each id.
template <class Rows>
void knn_core(const Rows& in, const KNearestQuery& q,
              std::vector<std::uint32_t>& out) {
  Scratch& s = scratch();
  s.keys.clear();
  out.clear();
  const std::size_t n = in.size();
  const std::size_t dims = q.target.size();
  const double* target = q.target.begin();
  for (std::size_t i = 0; i < n; ++i) {
    if (in.skipped(i)) continue;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = target[d] - in.value(i, d);
      d2 += diff * diff;
    }
    s.keys.push_back({d2, in.id(i), static_cast<std::uint32_t>(i)});
  }
  // Duplicate ids (mirrors, overlapping shells) can leave the sorted
  // prefix short of k distinct events; widen it until it is not.
  std::size_t m = std::min(q.k, s.keys.size());
  while (true) {
    std::partial_sort(s.keys.begin(), s.keys.begin() + m, s.keys.end());
    out.clear();
    for (std::size_t p = 0; p < m && out.size() < q.k; ++p) {
      const std::uint64_t id = s.keys[p].id;
      if (std::none_of(out.begin(), out.end(),
                       [&](std::uint32_t row) { return in.id(row) == id; }))
        out.push_back(s.keys[p].row);
    }
    if (out.size() == q.k || m == s.keys.size()) return;
    m = std::min(s.keys.size(), m + (q.k - out.size()));
  }
}

/// Replaces `events` with the events at `rows`, in that order. The rows
/// move through the thread's `kept` buffer, which then swaps with
/// `events`: a running top-k that calls this per holder reuses the two
/// buffers instead of allocating one per call.
void take_rows(std::vector<Event>& events,
               const std::vector<std::uint32_t>& rows) {
  std::vector<Event>& kept = scratch().kept;
  kept.clear();
  kept.reserve(rows.size());
  for (const std::uint32_t r : rows) kept.push_back(std::move(events[r]));
  events.swap(kept);
  kept.clear();
}

}  // namespace

void skyline_filter(const SkylineQuery& q, std::vector<Event>& candidates) {
  std::vector<std::uint32_t>& rows = scratch().picked;
  skyline_core(EventRows(candidates), q, rows);
  // Canonical order: ascending id, input order among equal ids.
  std::stable_sort(rows.begin(), rows.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return candidates[a].id < candidates[b].id;
                   });
  take_rows(candidates, rows);
}

void knn_filter(const KNearestQuery& q, std::vector<Event>& candidates) {
  std::vector<std::uint32_t>& rows = scratch().picked;
  knn_core(EventRows(candidates), q, rows);
  take_rows(candidates, rows);
}

namespace column {

void skyline_rows(const ColumnStore& store, const SkylineQuery& q,
                  bool skip_replicas, std::vector<std::uint32_t>& out_rows) {
  skyline_core(ColumnRows(store, skip_replicas), q, out_rows);
}

void knn_rows(const ColumnStore& store, const KNearestQuery& q,
              bool skip_replicas, std::vector<std::uint32_t>& out_rows) {
  knn_core(ColumnRows(store, skip_replicas), q, out_rows);
}

}  // namespace column
}  // namespace poolnet::storage
