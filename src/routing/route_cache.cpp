#include "routing/route_cache.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace poolnet::routing {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool parse_route_cache_spec(const std::string& spec, RouteCacheConfig* config,
                            std::string* error) {
  if (spec == "on") {
    config->enabled = true;
    config->max_bytes = 0;
    return true;
  }
  if (spec == "off") {
    config->enabled = false;
    return true;
  }
  if (spec.rfind("lru:", 0) == 0) {
    const std::string num = spec.substr(4);
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    double scale = 1.0;
    if (end != num.c_str() && *end != '\0') {
      switch (std::tolower(static_cast<unsigned char>(*end))) {
        case 'k': scale = 1e3; ++end; break;
        case 'm': scale = 1e6; ++end; break;
        case 'g': scale = 1e9; ++end; break;
        default: break;
      }
    }
    // A bound under one byte would truncate to 0, which means unbounded;
    // NaN, infinity and bounds past SIZE_MAX have no size_t value.
    const double bytes = v * scale;
    if (end == num.c_str() || *end != '\0' || !std::isfinite(bytes) ||
        bytes < 1.0 || bytes >= static_cast<double>(SIZE_MAX)) {
      *error = "route-cache: bad byte bound '" + num + "'";
      return false;
    }
    config->enabled = true;
    config->max_bytes = static_cast<std::size_t>(bytes);
    return true;
  }
  *error = "route-cache: expected on, off or lru:<bytes>, got '" + spec + "'";
  return false;
}

RouteCache::RouteCache(const Router& inner, RouteCacheConfig config,
                       obs::MetricsRegistry* metrics, const std::string& prefix)
    : inner_(inner),
      net_(inner.network()),
      config_(config),
      window_(kWindowKeys, 0) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->counter(prefix + ".hits");
  misses_ = metrics->counter(prefix + ".misses");
  evictions_ = metrics->counter(prefix + ".evictions");
  invalidated_ = metrics->counter(prefix + ".invalidated");
  rebuild_index();
}

RouteCacheStats RouteCache::stats() const {
  RouteCacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.invalidated = invalidated_.value();
  s.entries = keys_.size();
  s.bytes = bytes_;
  return s;
}

std::size_t RouteCache::slot_of(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t h = mix64(key) & mask;
  while (index_[h] != 0 && keys_[index_[h] - 1] != key) h = (h + 1) & mask;
  return h;
}

void RouteCache::rebuild_index() const {
  std::size_t slots = std::max<std::size_t>(index_.size(), 64);
  while (2 * keys_.size() > slots) slots *= 2;
  index_.assign(slots, 0);
  for (std::size_t i = 0; i < keys_.size(); ++i)
    index_[slot_of(keys_[i])] = static_cast<std::uint32_t>(i + 1);
}

std::size_t RouteCache::entry_bytes(const RouteResult& r) {
  return sizeof(std::uint64_t) + sizeof(RouteResult) + sizeof(std::uint8_t) +
         2 * sizeof(std::uint32_t) + r.path.size() * sizeof(net::NodeId);
}

void RouteCache::route_to_node_into(net::NodeId src, net::NodeId dst,
                                    RouteResult& out) const {
  if (!config_.enabled) {
    inner_.route_to_node_into(src, dst, out);
    return;
  }
  forget_new_deaths();

  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  const std::size_t slot = slot_of(key);
  if (const std::uint32_t i = index_[slot]; i != 0) {
    hits_.inc();
    if (config_.max_bytes != 0) referenced_[i - 1] = 1;
    out = routes_[i - 1];  // copy-assign: out.path's capacity is reused
    return;
  }
  misses_.inc();
  inner_.route_to_node_into(src, dst, out);
  if (config_.max_hops != 0 && out.hops() > config_.max_hops)
    return;  // one-shot long leg: storing it costs more than it saves
  std::uint64_t& seen = window_[mix64(key) & (kWindowKeys - 1)];
  if (seen != ~key) {
    seen = ~key;  // first sighting: remember the key, not the route
    return;
  }
  seen = 0;
  store(slot, key, out);
}

void RouteCache::store(std::size_t slot, std::uint64_t key,
                       const RouteResult& r) const {
  routes_.push_back(r);
  keys_.push_back(key);
  referenced_.push_back(1);
  index_[slot] = static_cast<std::uint32_t>(keys_.size());
  bytes_ += entry_bytes(r);
  if (2 * keys_.size() > index_.size()) rebuild_index();
  if (config_.max_bytes != 0) evict_to_budget();
}

void RouteCache::erase(std::size_t i) const {
  bytes_ -= entry_bytes(routes_[i]);
  // Backward-shift deletion: pull each later member of the probe run
  // into the hole unless its home slot lies cyclically after the hole.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot_of(keys_[i]);
  for (std::size_t s = (hole + 1) & mask; index_[s] != 0; s = (s + 1) & mask) {
    const std::size_t home = mix64(keys_[index_[s] - 1]) & mask;
    if (((s - home) & mask) >= ((s - hole) & mask)) {
      index_[hole] = index_[s];
      hole = s;
    }
  }
  index_[hole] = 0;
  const std::size_t last = keys_.size() - 1;
  if (i != last) {
    index_[slot_of(keys_[last])] = static_cast<std::uint32_t>(i + 1);
    keys_[i] = keys_[last];
    routes_[i] = std::move(routes_[last]);
    referenced_[i] = referenced_[last];
  }
  keys_.pop_back();
  routes_.pop_back();
  referenced_.pop_back();
}

void RouteCache::evict_to_budget() const {
  while (bytes_ > config_.max_bytes && !keys_.empty()) {
    if (hand_ >= keys_.size()) hand_ = 0;
    if (referenced_[hand_] != 0) {
      referenced_[hand_] = 0;  // second chance
      ++hand_;
      continue;
    }
    erase(hand_);  // the last route moves under the hand, looked at next
    evictions_.inc();
  }
}

void RouteCache::note_dead(net::NodeId dead) const {
  drop_routes([dead](net::NodeId n) { return n == dead; });
  inner_.note_dead(dead);
}

void RouteCache::drop_routes(
    const std::function<bool(net::NodeId)>& dropped) const {
  // Downward, so the route erase() moves into slot i was already seen.
  for (std::size_t i = routes_.size(); i-- > 0;) {
    const auto& path = routes_[i].path;
    if (std::none_of(path.begin(), path.end(), dropped)) continue;
    erase(i);
    invalidated_.inc();
  }
}

}  // namespace poolnet::routing
