#include "storage/base_station.h"

#include <algorithm>

namespace poolnet::storage {

InsertReceipt BaseStationLink::insert(net::NodeId source) const {
  InsertReceipt receipt;
  receipt.stored_at = base_ == net::kNoNode ? source : base_;
  if (net_ == nullptr || base_ == net::kNoNode) return receipt;
  const auto before = net_->traffic().total;
  const auto route = router_->route_to_node(source, base_);
  net_->transmit_path(route.path, net::MessageKind::Insert,
                      net_->sizes().event_bits(dims_));
  receipt.messages = net_->traffic().total - before;
  return receipt;
}

void BaseStationLink::answer(net::NodeId sink, QueryReceipt& receipt,
                             bool partial) const {
  receipt.index_nodes_visited = 1;
  if (net_ == nullptr || base_ == net::kNoNode) return;
  const auto before = net_->traffic();
  const auto& sizes = net_->sizes();
  const auto to_base = router_->route_to_node(sink, base_);
  net_->transmit_path(to_base.path, net::MessageKind::Query,
                      sizes.query_bits(dims_));
  const auto back = router_->route_to_node(base_, sink);
  const std::size_t rows = receipt.events.size();
  const std::uint64_t batches =
      partial ? 1 : std::max<std::uint64_t>(sizes.reply_batches(rows), 1);
  const std::uint64_t bits =
      partial ? sizes.aggregate_bits()
              : sizes.reply_bits(dims_, sizes.reply_payload(rows));
  for (std::uint64_t i = 0; i < batches; ++i)
    net_->transmit_path(back.path, net::MessageKind::Reply, bits);
  receipt.cost() = cost_of(net_->traffic() - before);
}

}  // namespace poolnet::storage
