#include "server/backend.h"

namespace poolnet::server {

Backend::Backend(BackendConfig config) : config_(config) {
  benchsup::TestbedConfig tb;
  tb.nodes = config_.nodes;
  tb.dims = config_.dims;
  tb.events_per_node = config_.events_per_node;
  tb.seed = config_.seed;
  testbed_ = std::make_unique<benchsup::Testbed>(tb);
  preloaded_ = testbed_->insert_workload();
  system_ = &testbed_->deploy(config_.system, config_.store);
  engine_ = std::make_unique<engine::QueryEngine>(
      *system_, config_.engine, &testbed_->metrics(),
      std::string(to_string(config_.system)) + ".engine");
}

}  // namespace poolnet::server
