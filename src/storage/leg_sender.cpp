#include "storage/leg_sender.h"

namespace poolnet::storage {

const routing::LegOutcome& LegSender::send(net::NodeId from, net::NodeId to,
                                           net::MessageKind kind,
                                           std::uint64_t bits) {
  routing::send_reliable_into(net_, router_, from, to, kind, bits, {}, out_);
  stats_.retries += out_.retries;
  if (!out_.delivered) ++stats_.failed_legs;
  // Failover never re-enters send() (its repair traffic uses
  // send_reliable directly), so iterating the scratch here is safe.
  for (const net::NodeId d : out_.dead_found) owner_.handle_node_failure(d);
  return out_;
}

LegSender::Shape LegSender::shape(std::uint32_t rows, bool partial) const {
  const auto& sizes = net_.sizes();
  if (rows == 0) return {};
  if (partial) return {1, sizes.aggregate_bits()};
  return {sizes.reply_batches(rows),
          sizes.reply_bits(dims_, sizes.reply_payload(rows))};
}

bool LegSender::reply(net::NodeId from, net::NodeId to, std::uint32_t rows,
                      bool partial) {
  if (rows == 0 || from == to) return true;
  const Shape s = shape(rows, partial);
  const auto& first = send(from, to, net::MessageKind::Reply, s.bits);
  for (std::uint64_t b = 1; first.delivered && b < s.batches; ++b)
    net_.transmit_path(first.route.path, net::MessageKind::Reply, s.bits);
  return first.delivered;
}

}  // namespace poolnet::storage
