#include "engine/result_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <functional>

namespace poolnet::engine {

namespace {
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}
}  // namespace

bool parse_qcache_spec(const std::string& spec, ResultCacheConfig* config,
                       std::string* error) {
  if (spec == "on") {
    config->enabled = true;
    config->ttl = 0;
    return true;
  }
  if (spec == "off") {
    config->enabled = false;
    return true;
  }
  if (spec.rfind("ttl:", 0) == 0) {
    const std::string digits = spec.substr(4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      *error = "bad --qcache ttl '" + spec + "' (want ttl:<events>)";
      return false;
    }
    errno = 0;
    const unsigned long long ttl = std::strtoull(digits.c_str(), nullptr, 10);
    if (errno != 0 || ttl == 0) {
      *error = "bad --qcache ttl '" + spec + "' (want a positive count)";
      return false;
    }
    config->enabled = true;
    config->ttl = static_cast<std::uint64_t>(ttl);
    return true;
  }
  *error = "bad --qcache spec '" + spec + "' (want on, off or ttl:<n>)";
  return false;
}

ResultCache::ResultCache(ResultCacheConfig config,
                         obs::MetricsRegistry* metrics,
                         const std::string& prefix)
    : config_(config) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->counter(prefix + ".hits");
  misses_ = metrics->counter(prefix + ".misses");
  insertions_ = metrics->counter(prefix + ".insertions");
  invalidations_ = metrics->counter(prefix + ".invalidations");
  expirations_ = metrics->counter(prefix + ".expirations");
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.insertions = insertions_.value();
  s.invalidations = invalidations_.value();
  s.expirations = expirations_.value();
  return s;
}

std::size_t ResultCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ k.dims;
  for (std::size_t i = 0; i < 2 * k.dims; ++i) h = mix(h ^ k.bits[i]);
  return static_cast<std::size_t>(h);
}

ResultCache::Key ResultCache::key_of(const Bounds& rect) {
  Key k;
  k.dims = rect.size();
  for (std::size_t d = 0; d < rect.size(); ++d) {
    k.bits[2 * d] = bits_of(rect[d].lo);
    k.bits[2 * d + 1] = bits_of(rect[d].hi);
  }
  return k;
}

std::size_t ResultCache::axis_cell(double v) {
  // v * kGridSide is exact (a power of two), so k / kGridSide lands in
  // cell k; the comparisons send NaN and v <= 0 to cell 0.
  if (v >= 1.0) return kGridSide - 1;
  return v > 0.0 ? static_cast<std::size_t>(v * kGridSide) : 0;
}

template <class Fn>
void ResultCache::for_each_cell(const Bounds& rect, Fn&& fn) {
  std::size_t lo[kGridAxes] = {}, hi[kGridAxes] = {};
  for (std::size_t a = 0; a < std::min(rect.size(), kGridAxes); ++a) {
    lo[a] = axis_cell(rect[a].lo);
    hi[a] = axis_cell(rect[a].hi);
  }
  for (std::size_t z = lo[2]; z <= hi[2]; ++z)
    for (std::size_t y = lo[1]; y <= hi[1]; ++y)
      for (std::size_t x = lo[0]; x <= hi[0]; ++x)
        fn((z * kGridSide + y) * kGridSide + x);
}

void ResultCache::erase(std::uint32_t slot) {
  const auto last = static_cast<std::uint32_t>(rects_.size() - 1);
  for_each_cell(rects_[slot], [&](std::size_t c) {
    auto& list = cells_[c];
    *std::find(list.begin(), list.end(), slot) = list.back();
    list.pop_back();
  });
  index_.erase(key_of(rects_[slot]));
  if (slot != last) {
    for_each_cell(rects_[last], [&](std::size_t c) {
      *std::find(cells_[c].begin(), cells_[c].end(), last) = slot;
    });
    index_[key_of(rects_[last])] = slot;
    rects_[slot] = rects_[last];
    events_[slot] = std::move(events_[last]);
    stored_at_[slot] = stored_at_[last];
  }
  rects_.pop_back();
  events_.pop_back();
  stored_at_.pop_back();
}

const std::vector<storage::Event>* ResultCache::lookup(
    const storage::RangeQuery& q, std::uint64_t now) {
  if (!config_.enabled) return nullptr;
  const auto it = index_.find(key_of(q.bounds()));
  if (it == index_.end()) {
    misses_.inc();
    return nullptr;
  }
  const std::uint32_t slot = it->second;
  if (expired(slot, now)) {
    erase(slot);
    expirations_.inc();
    misses_.inc();
    return nullptr;
  }
  hits_.inc();
  return &events_[slot];
}

void ResultCache::store(const storage::RangeQuery& q,
                        std::vector<storage::Event> events,
                        std::uint64_t now) {
  if (!config_.enabled) return;
  if (cells_.empty()) cells_.resize(kGridCells);
  const auto slot = static_cast<std::uint32_t>(rects_.size());
  const auto [it, fresh] = index_.try_emplace(key_of(q.bounds()), slot);
  if (fresh) {
    rects_.push_back(q.bounds());
    events_.push_back(std::move(events));
    stored_at_.push_back(now);
    for_each_cell(rects_.back(),
                  [&](std::size_t c) { cells_[c].push_back(slot); });
  } else {
    events_[it->second] = std::move(events);
    stored_at_[it->second] = now;
  }
  insertions_.inc();
}

std::size_t ResultCache::invalidate_containing(const storage::Values& values) {
  if (!config_.enabled || rects_.empty()) return 0;
  std::size_t cell = 0;
  for (std::size_t a = std::min(values.size(), kGridAxes); a-- > 0;)
    cell = cell * kGridSide + axis_cell(values[a]);
  doomed_.clear();
  for (const std::uint32_t slot : cells_[cell]) {
    const Bounds& rect = rects_[slot];
    bool inside = rect.size() == values.size();
    for (std::size_t d = 0; inside && d < values.size(); ++d)
      inside = rect[d].contains(values[d]);
    if (inside) doomed_.push_back(slot);
  }
  // Highest slot first: erase() moves only the last slot, which is then
  // never one still waiting here.
  std::sort(doomed_.begin(), doomed_.end(), std::greater<>());
  for (const std::uint32_t slot : doomed_) erase(slot);
  invalidations_.add(doomed_.size());
  return doomed_.size();
}

std::size_t ResultCache::expire_data_before(double cutoff) {
  if (!config_.enabled) return 0;
  std::size_t shrank = 0;
  for (auto& events : events_)
    if (std::erase_if(events, [cutoff](const storage::Event& ev) {
          return ev.detected_at < cutoff;
        }) > 0)
      ++shrank;
  return shrank;
}

}  // namespace poolnet::engine
