#include "broker/broker_types.hpp"

namespace mdsm::broker {

namespace {

void append_invocation(std::string& out, const std::string& name,
                       const Args& args) {
  out += name;
  out += '(';
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ", ";
    first = false;
    out += key;
    out += '=';
    value.append_text(out);
  }
  out += ')';
}

}  // namespace

std::string format_invocation(const std::string& name, const Args& args) {
  std::string out;
  append_invocation(out, name, args);
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
  // Format outside the lock, in this thread's buffer (its capacity is
  // reused), then copy once at the exact size the ring holds it at; only
  // the append is serialized.
  thread_local std::string buffer;
  buffer.assign(resource).append(1, '.');
  append_invocation(buffer, command, args);
  std::string entry(buffer);
  recorded_.add();
  std::lock_guard lock(mutex_);
  if (entries_.size() == kCapacity) {
    entries_.pop_front();
    dropped_.add();
  }
  entries_.push_back(std::move(entry));
}

}  // namespace mdsm::broker
