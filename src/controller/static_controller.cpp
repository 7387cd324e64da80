#include "controller/static_controller.hpp"

namespace mdsm::controller {

StaticController::StaticController(broker::BrokerApi& broker,
                                   runtime::EventBus& bus,
                                   policy::ContextStore& context)
    : engine_(broker, bus, context, metrics_) {}

Result<model::Value> StaticController::execute(const Command& command) {
  if (!running_) {
    return FailedPrecondition("static controller is stopped (reloading)");
  }
  auto it = table_.find(command.name);
  if (it == table_.end()) {
    return NotFound("static controller has no entry for command '" +
                    command.name + "'");
  }
  ++executed_;
  return runtime::run_inline(
      engine_.execute_flat(it->second, command.args));
}

Status StaticController::reload(const ReloadFn& reload) {
  running_ = false;  // stop
  Result<DispatchTable> table = reload();  // rebuild (the expensive part)
  if (!table.ok()) {
    return table.status();  // stays stopped: a failed reload is fatal
  }
  table_ = std::move(table.value());
  engine_.clear_memory();
  running_ = true;  // restart
  ++reloads_;
  return Status::Ok();
}

}  // namespace mdsm::controller
