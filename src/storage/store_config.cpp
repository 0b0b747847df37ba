#include "storage/store_config.h"

#include <cstdint>
#include <vector>

#include "storage/brute_force_store.h"

namespace poolnet::storage {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Decimal digits only; false on a value past SIZE_MAX.
bool parse_size(const std::string& s, std::size_t* out) {
  if (s.empty()) return false;
  std::size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (v > (SIZE_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace

bool parse_store_spec(const std::string& spec, StoreConfig* config,
                      std::string* error) {
  const auto parts = split(spec, ':');
  if (parts[0] == "flat") {
    if (parts.size() != 1) {
      *error = "--store flat takes no parameters: '" + spec + "'";
      return false;
    }
    config->kind = StoreKind::Flat;
    return true;
  }
  if (parts[0] != "paged") {
    *error = "unknown store '" + spec +
             "' (want flat or paged[:<pages>:<page-kb>[:mem|file]])";
    return false;
  }
  StoreConfig parsed;
  parsed.kind = StoreKind::Paged;
  if (parts.size() != 1 && parts.size() != 3 && parts.size() != 4) {
    *error = "malformed paged store spec '" + spec +
             "' (want paged[:<pages>:<page-kb>[:mem|file]])";
    return false;
  }
  if (parts.size() >= 3) {
    std::size_t pages = 0;
    std::size_t page_kb = 0;
    if (!parse_size(parts[1], &pages) || pages < 2) {
      *error = "bad buffer-pool page count in '" + spec + "' (minimum 2)";
      return false;
    }
    if (!parse_size(parts[2], &page_kb) || page_kb == 0) {
      *error = "bad page size in '" + spec + "' (whole KB, minimum 1)";
      return false;
    }
    if (page_kb > SIZE_MAX / 1024 / pages) {
      *error = "buffer pool in '" + spec + "' overflows the address space";
      return false;
    }
    parsed.paged.pool_pages = pages;
    parsed.paged.page_bytes = page_kb * 1024;
  }
  if (parts.size() == 4) {
    if (parts[3] == "mem") {
      parsed.paged.backing = PagedStoreOptions::Backing::Mem;
    } else if (parts[3] == "file") {
      parsed.paged.backing = PagedStoreOptions::Backing::File;
    } else {
      *error = "bad store backing '" + parts[3] + "' (want mem or file)";
      return false;
    }
  }
  *config = parsed;
  return true;
}

std::string to_spec(const StoreConfig& config) {
  if (config.kind == StoreKind::Flat) return "flat";
  const char* backing =
      config.paged.backing == PagedStoreOptions::Backing::File ? "file" : "mem";
  return "paged:" + std::to_string(config.paged.pool_pages) + ":" +
         std::to_string(config.paged.page_bytes / 1024) + ":" + backing;
}

std::unique_ptr<DcsSystem> make_central_store(std::size_t dims,
                                              const StoreConfig& config,
                                              net::Network* network,
                                              const routing::Router* router,
                                              net::NodeId sink_node,
                                              obs::MetricsRegistry* metrics) {
  const bool networked = network != nullptr && router != nullptr;
  if (config.kind == StoreKind::Paged) {
    if (networked)
      return std::make_unique<PagedStore>(dims, config.paged, *network,
                                          *router, sink_node, metrics);
    return std::make_unique<PagedStore>(dims, config.paged, metrics);
  }
  if (networked)
    return std::make_unique<BruteForceStore>(dims, *network, *router,
                                             sink_node);
  return std::make_unique<BruteForceStore>(dims);
}

}  // namespace poolnet::storage
