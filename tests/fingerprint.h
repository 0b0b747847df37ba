// Fingerprints of whole runs for byte-equality tests: every observable is
// flattened into 64-bit words (doubles as raw bits), so equality means
// BYTE equality, not tolerance. hash() folds the words into one FNV-1a
// value for golden tables.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "storage/dcs_system.h"

namespace poolnet {

struct Fingerprint {
  std::vector<std::uint64_t> words;

  void add(std::uint64_t w) { words.push_back(w); }
  void add_bits(double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    words.push_back(bits);
  }
  void add_cost(const storage::ResultReceipt& r) {
    add(r.messages);
    add(r.query_messages);
    add(r.reply_messages);
    add(r.index_nodes_visited);
  }
  void add_receipt(const storage::QueryReceipt& r) {
    add_cost(r);
    add(r.rounds);
    // Result CONTENT AND ORDER: replies must not be reordered.
    for (const auto& e : r.events) add(e.id);
  }

  std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t w : words) {
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (w >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
    return h;
  }

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

}  // namespace poolnet
