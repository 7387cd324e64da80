#include "core/bridge.hpp"

#include "common/strings.hpp"

namespace mdsm::core {

PlatformBridge::~PlatformBridge() {
  for (const Connection& connection : connections_) {
    connection.source->bus().unsubscribe(connection.subscription);
  }
}

Status PlatformBridge::connect(Platform& source, Platform& target,
                               Rule rule) {
  if (&source == &target) {
    return InvalidArgument("bridge endpoints must be distinct platforms");
  }
  if (rule.source_topic.empty() || rule.target_command.empty()) {
    return InvalidArgument("bridge rule needs a source topic and a target "
                           "command");
  }
  Platform* source_ptr = &source;
  Platform* target_ptr = &target;
  Rule stored = std::move(rule);
  std::uint64_t subscription = source.bus().subscribe(
      stored.source_topic,
      [this, source_ptr, target_ptr,
       stored](const runtime::Event& event) {
        broker::Args resolved;
        for (const auto& [key, value] : stored.args) {
          if (value.is_string() && value.as_string() == "$payload") {
            resolved[key] = event.payload;
          } else if (value.is_string() && value.as_string() == "$topic") {
            resolved[key] = model::Value(event.topic);
          } else if (value.is_string() &&
                     starts_with(value.as_string(), "$ctx:")) {
            resolved[key] =
                source_ptr->context().get(value.as_string().substr(5));
          } else {
            resolved[key] = value;
          }
        }
        Result<model::Value> outcome = runtime::run_inline(
            target_ptr->controller().execute_command(
                {stored.target_command, std::move(resolved)}));
        if (outcome.ok()) {
          ++forwarded_;
          log_.push_back(name_ + ": " + event.topic + " -> " +
                         stored.target_command);
        } else {
          ++failed_;
          log_.push_back(name_ + ": " + event.topic + " -> " +
                         stored.target_command + " FAILED: " +
                         outcome.status().to_string());
        }
      });
  connections_.push_back({source_ptr, subscription});
  return Status::Ok();
}

}  // namespace mdsm::core
