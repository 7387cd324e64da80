#include "broker/broker_types.hpp"

namespace mdsm::broker {

std::string format_invocation(const std::string& name, const Args& args) {
  std::string out = name + "(";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ", ";
    first = false;
    out += key + "=" + value.to_text();
  }
  out += ")";
  return out;
}

Result<model::Value> require_arg(const Args& args, std::string_view key,
                                 std::string_view op) {
  auto it = args.find(key);
  if (it == args.end()) {
    std::string message = "'";
    message += op;
    message += "' is missing required arg '";
    message += key;
    message += '\'';
    return ExecutionError(std::move(message));
  }
  return it->second;
}

void CommandTrace::record(const std::string& resource,
                          const std::string& command, const Args& args) {
  // Format outside the lock; only the append is serialized.
  std::string entry = resource + "." + format_invocation(command, args);
  recorded_.add();
  std::lock_guard lock(mutex_);
  if (entries_.size() == kCapacity) {
    entries_.pop_front();
    dropped_.add();
  }
  entries_.push_back(std::move(entry));
}

}  // namespace mdsm::broker
