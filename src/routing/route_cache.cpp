#include "routing/route_cache.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
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
    if (end == num.c_str() || *end != '\0' || v <= 0.0) {
      *error = "route-cache: bad byte bound '" + num + "'";
      return false;
    }
    config->enabled = true;
    config->max_bytes = static_cast<std::size_t>(v * scale);
    return true;
  }
  *error = "route-cache: expected on, off or lru:<bytes>, got '" + spec + "'";
  return false;
}

RouteCache::RouteCache(const Router& inner, RouteCacheConfig config,
                       obs::MetricsRegistry* metrics, const std::string& prefix,
                       common::BufferPool<net::NodeId>* path_pool)
    : inner_(inner),
      net_(inner.network()),
      config_(config),
      path_pool_(path_pool) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  hits_ = metrics->counter(prefix + ".hits");
  misses_ = metrics->counter(prefix + ".misses");
  evictions_ = metrics->counter(prefix + ".evictions");
  invalidated_ = metrics->counter(prefix + ".invalidated");
}

RouteCacheStats RouteCache::stats() const {
  RouteCacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  s.invalidated = invalidated_.value();
  s.entries = entries_;
  s.bytes = bytes_;
  return s;
}

std::size_t RouteCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64(k.src_kind);
  h = mix64(h ^ static_cast<std::uint64_t>(k.a));
  h = mix64(h ^ static_cast<std::uint64_t>(k.b));
  return static_cast<std::size_t>(h);
}

RouteCache::Key RouteCache::node_key(net::NodeId src, net::NodeId dst) const {
  return Key{static_cast<std::uint64_t>(src) << 1,
             static_cast<std::int64_t>(dst), 0};
}

std::size_t RouteCache::node_slot(std::uint64_t key) const {
  const std::size_t mask = node_index_.size() - 1;
  std::size_t h = mix64(key) & mask;
  while (node_index_[h] != 0 && node_keys_[node_index_[h] - 1] != key)
    h = (h + 1) & mask;
  return h;
}

void RouteCache::rebuild_node_index() const {
  std::size_t slots = std::max<std::size_t>(node_index_.size(), 64);
  while (2 * node_keys_.size() > slots) slots *= 2;
  node_index_.assign(slots, 0);
  for (std::size_t i = 0; i < node_keys_.size(); ++i)
    node_index_[node_slot(node_keys_[i])] = static_cast<std::uint32_t>(i + 1);
}

RouteCache::Key RouteCache::location_key(net::NodeId src, Point dest) const {
  Key key;
  key.src_kind = (static_cast<std::uint64_t>(src) << 1) | 1u;
  if (config_.location_quantum > 0.0) {
    key.a = static_cast<std::int64_t>(
        std::floor(dest.x / config_.location_quantum));
    key.b = static_cast<std::int64_t>(
        std::floor(dest.y / config_.location_quantum));
  } else {
    key.a = std::bit_cast<std::int64_t>(dest.x);
    key.b = std::bit_cast<std::int64_t>(dest.y);
  }
  return key;
}

std::size_t RouteCache::result_bytes(const RouteResult& r) {
  // Path storage dominates; the constant approximates the map node, the
  // LRU list node and the Entry bookkeeping.
  constexpr std::size_t kEntryOverhead = 128;
  return r.path.size() * sizeof(net::NodeId) + kEntryOverhead;
}

RouteCache::Entry& RouteCache::touch(
    std::unordered_map<Key, Entry, KeyHash>::iterator it) const {
  // The LRU list only matters under a byte budget; unbounded caches skip
  // its pointer churn entirely (lru_pos is never read without a budget).
  if (config_.max_bytes != 0)
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second;
}

void RouteCache::account_and_evict(std::size_t delta) const {
  bytes_ += delta;
  entries_ = map_.size() + node_keys_.size();
  if (config_.max_bytes == 0) return;
  while (bytes_ > config_.max_bytes && !lru_.empty()) {
    const auto victim = map_.find(lru_.back());
    bytes_ -= victim->second.bytes;
    evictions_.inc();
    for (auto& [point, result] : victim->second.items)
      recycle(std::move(result));
    map_.erase(victim);
    lru_.pop_back();
  }
  entries_ = map_.size() + node_keys_.size();
}

RouteResult RouteCache::copy_for_store(const RouteResult& r) const {
  RouteResult stored;
  if (path_pool_ != nullptr) stored.path = path_pool_->acquire();
  stored.path.assign(r.path.begin(), r.path.end());
  stored.delivered = r.delivered;
  stored.exact = r.exact;
  stored.perimeter_hops = r.perimeter_hops;
  return stored;
}

void RouteCache::recycle(RouteResult&& r) const {
  if (path_pool_ != nullptr) path_pool_->release(std::move(r.path));
}

RouteResult RouteCache::route_to_node(net::NodeId src, net::NodeId dst) const {
  RouteResult out;
  route_to_node_into(src, dst, out);
  return out;
}

RouteResult RouteCache::route_to_location(net::NodeId src, Point dest) const {
  RouteResult out;
  route_to_location_into(src, dest, out);
  return out;
}

void RouteCache::route_to_node_into(net::NodeId src, net::NodeId dst,
                                    RouteResult& out) const {
  if (!config_.enabled) {
    inner_.route_to_node_into(src, dst, out);
    return;
  }
  forget_new_deaths();

  if (config_.max_bytes == 0) {
    if (node_index_.empty()) rebuild_node_index();
    const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
    const std::size_t slot = node_slot(key);
    if (node_index_[slot] != 0) {
      hits_.inc();
      // copy-assign: out.path's capacity is reused
      out = node_routes_[node_index_[slot] - 1];
      return;
    }
    misses_.inc();
    inner_.route_to_node_into(src, dst, out);
    if (config_.max_hops != 0 && out.path.size() > config_.max_hops) return;
    node_keys_.push_back(key);
    node_routes_.push_back(copy_for_store(out));
    node_index_[slot] = static_cast<std::uint32_t>(node_keys_.size());
    if (2 * node_keys_.size() > node_index_.size()) rebuild_node_index();
    entries_ = map_.size() + node_keys_.size();
    bytes_ += result_bytes(out);
    return;
  }

  const Key key = node_key(src, dst);
  if (const auto it = map_.find(key); it != map_.end()) {
    hits_.inc();
    out = touch(it).items.front().second;
    return;
  }
  misses_.inc();
  inner_.route_to_node_into(src, dst, out);
  if (config_.max_hops != 0 && out.path.size() > config_.max_hops)
    return;  // one-shot long leg: storing it costs more than it saves
  lru_.push_front(key);
  Entry& entry = map_[key];
  entry.lru_pos = lru_.begin();
  entry.items.emplace_back(Point{}, copy_for_store(out));
  entry.bytes = result_bytes(out);
  account_and_evict(entry.bytes);
}

void RouteCache::route_to_location_into(net::NodeId src, Point dest,
                                        RouteResult& out) const {
  if (!config_.enabled) {
    inner_.route_to_location_into(src, dest, out);
    return;
  }
  forget_new_deaths();

  const Key key = location_key(src, dest);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Exactness check: the bucket may hold routes to several distinct
    // points of the same α-cell; only a bit-identical destination hits.
    for (const auto& [point, result] : it->second.items) {
      if (point.x == dest.x && point.y == dest.y) {
        hits_.inc();
        touch(it);
        out = result;
        return;
      }
    }
  }
  misses_.inc();
  inner_.route_to_location_into(src, dest, out);
  if (config_.max_hops != 0 && out.path.size() > config_.max_hops)
    return;  // one-shot long leg: storing it costs more than it saves
  const std::size_t added = result_bytes(out);
  if (it != map_.end()) {
    touch(it);
    it->second.items.emplace_back(dest, copy_for_store(out));
    it->second.bytes += added;
  } else {
    if (config_.max_bytes != 0) lru_.push_front(key);
    Entry& entry = map_[key];
    if (config_.max_bytes != 0) entry.lru_pos = lru_.begin();
    entry.items.emplace_back(dest, copy_for_store(out));
    entry.bytes = added;
  }
  account_and_evict(added);
}

void RouteCache::note_dead(net::NodeId dead) const {
  drop_routes([dead](net::NodeId n) { return n == dead; });
  inner_.note_dead(dead);
}

void RouteCache::drop_routes(
    const std::function<bool(net::NodeId)>& dropped) const {
  const auto traverses = [&dropped](const RouteResult& r) {
    return std::any_of(r.path.begin(), r.path.end(), dropped);
  };

  // Flat (unbounded) node-route storage.
  bool any = false;
  for (std::size_t i = node_routes_.size(); i-- > 0;) {
    if (!traverses(node_routes_[i])) continue;
    bytes_ -= result_bytes(node_routes_[i]);
    recycle(std::move(node_routes_[i]));
    node_routes_[i] = std::move(node_routes_.back());
    node_routes_.pop_back();
    node_keys_[i] = node_keys_.back();
    node_keys_.pop_back();
    invalidated_.inc();
    any = true;
  }
  if (any) rebuild_node_index();

  // Map storage (LRU mode node routes + all location routes).
  for (auto it = map_.begin(); it != map_.end();) {
    auto& items = it->second.items;
    for (std::size_t i = items.size(); i-- > 0;) {
      if (!traverses(items[i].second)) continue;
      const std::size_t freed = result_bytes(items[i].second);
      it->second.bytes -= freed;
      bytes_ -= freed;
      recycle(std::move(items[i].second));
      items[i] = std::move(items.back());
      items.pop_back();
      invalidated_.inc();
    }
    if (items.empty()) {
      if (config_.max_bytes != 0) lru_.erase(it->second.lru_pos);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
  entries_ = map_.size() + node_keys_.size();
}

void RouteCache::clear() {
  for (auto& [key, entry] : map_)
    for (auto& [point, result] : entry.items) recycle(std::move(result));
  for (auto& result : node_routes_) recycle(std::move(result));
  map_.clear();
  lru_.clear();
  node_keys_.clear();
  node_routes_.clear();
  node_index_.clear();
  bytes_ = 0;
  entries_ = 0;
}

}  // namespace poolnet::routing
