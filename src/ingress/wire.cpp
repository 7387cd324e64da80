#include "ingress/wire.hpp"

#include <utility>

namespace mdsm::ingress::wire {

namespace {

using model::Value;
using model::ValueList;
using model::find_entry;
using model::make_entry;

Status malformed(std::string_view what) {
  return InvalidArgument("malformed wire payload: " + std::string(what));
}

/// Message prefix marking a wire-major refusal; is_version_mismatch()
/// keys off it so servers can type the "bad-version" slug.
constexpr std::string_view kVersionMismatchPrefix = "wire version mismatch";

/// Append the string field `key` unless `value` is empty.
void put_string(ValueList& fields, std::string_view key,
                const std::string& value) {
  if (value.empty()) return;
  fields.push_back(make_entry(std::string(key), Value(value)));
}

void put_version(ValueList& fields) {
  fields.push_back(make_entry(
      "wire_version", Value(ValueList{Value(kWireMajor), Value(kWireMinor)})));
}

/// Accept an absent stamp (pre-versioning peer == major 1), any minor of
/// our major; refuse a foreign major or an unreadable stamp.
Status check_version(const ValueList& fields) {
  const Value* stamp = find_entry(fields, "wire_version");
  if (stamp == nullptr) return Status::Ok();
  if (!stamp->is_list() || stamp->as_list().size() != 2 ||
      !stamp->as_list()[0].is_int() || !stamp->as_list()[1].is_int()) {
    return malformed("unreadable wire_version stamp");
  }
  const std::int64_t major = stamp->as_list()[0].as_int();
  if (major != kWireMajor) {
    return InvalidArgument(std::string(kVersionMismatchPrefix) + ": peer " +
                           "speaks major " + std::to_string(major) +
                           ", this node speaks major " +
                           std::to_string(kWireMajor));
  }
  return Status::Ok();
}

}  // namespace

model::Value encode_request(const Request& request) {
  ValueList fields;
  put_version(fields);
  fields.push_back(make_entry(
      "request_id", Value(static_cast<std::int64_t>(request.request_id))));
  fields.push_back(make_entry("text", Value(request.text)));
  put_string(fields, "auth", request.auth);
  if (request.deadline_us != 0) {
    fields.push_back(make_entry("deadline_us", Value(request.deadline_us)));
  }
  if (request.high_priority) {
    fields.push_back(make_entry("priority", Value("high")));
  }
  if (!request.body.is_none()) {
    fields.push_back(make_entry("body", request.body));
  }
  put_string(fields, "forwarded_for", request.forwarded_for);
  return Value(std::move(fields));
}

Result<Request> decode_request(const model::Value& payload) {
  if (!payload.is_list()) return malformed("payload is not a field list");
  const ValueList& fields = payload.as_list();
  MDSM_RETURN_IF_ERROR(check_version(fields));
  Request request;
  const Value* id = find_entry(fields, "request_id");
  if (id == nullptr || !id->is_int() || id->as_int() < 0) {
    return malformed("missing or non-integer request_id");
  }
  request.request_id = static_cast<std::uint64_t>(id->as_int());
  if (const Value* text = find_entry(fields, "text"); text != nullptr) {
    if (!text->is_string()) return malformed("text is not a string");
    request.text = text->as_string();
  }
  if (const Value* auth = find_entry(fields, "auth"); auth != nullptr) {
    if (!auth->is_string()) return malformed("auth is not a string");
    request.auth = auth->as_string();
  }
  if (const Value* deadline = find_entry(fields, "deadline_us");
      deadline != nullptr) {
    if (!deadline->is_int() || deadline->as_int() < 0) {
      return malformed("deadline_us is not a non-negative integer");
    }
    request.deadline_us = deadline->as_int();
  }
  if (const Value* priority = find_entry(fields, "priority");
      priority != nullptr) {
    if (!priority->is_string()) return malformed("priority is not a string");
    request.high_priority = priority->as_string() == "high";
  }
  if (const Value* body = find_entry(fields, "body"); body != nullptr) {
    request.body = *body;
  }
  if (const Value* forwarded = find_entry(fields, "forwarded_for");
      forwarded != nullptr) {
    if (!forwarded->is_string()) {
      return malformed("forwarded_for is not a string");
    }
    request.forwarded_for = forwarded->as_string();
  }
  return request;
}

model::Value encode_reply(const Reply& reply) {
  ValueList fields;
  put_version(fields);
  fields.push_back(make_entry(
      "request_id", Value(static_cast<std::int64_t>(reply.request_id))));
  fields.push_back(
      make_entry("code", Value(static_cast<std::int64_t>(reply.code))));
  put_string(fields, "refusal", reply.refusal);
  put_string(fields, "message", reply.message);
  if (reply.commands != 0) {
    fields.push_back(make_entry("commands", Value(reply.commands)));
  }
  return Value(std::move(fields));
}

Result<Reply> decode_reply(const model::Value& payload) {
  if (!payload.is_list()) return malformed("payload is not a field list");
  const ValueList& fields = payload.as_list();
  MDSM_RETURN_IF_ERROR(check_version(fields));
  Reply reply;
  const Value* id = find_entry(fields, "request_id");
  if (id == nullptr || !id->is_int() || id->as_int() < 0) {
    return malformed("missing or non-integer request_id");
  }
  reply.request_id = static_cast<std::uint64_t>(id->as_int());
  const Value* code = find_entry(fields, "code");
  if (code == nullptr || !code->is_int() || code->as_int() < 0 ||
      code->as_int() > static_cast<std::int64_t>(ErrorCode::kInternal)) {
    return malformed("missing or out-of-range code");
  }
  reply.code = static_cast<ErrorCode>(code->as_int());
  if (const Value* refusal = find_entry(fields, "refusal");
      refusal != nullptr) {
    if (!refusal->is_string()) return malformed("refusal is not a string");
    reply.refusal = refusal->as_string();
  }
  if (const Value* message = find_entry(fields, "message");
      message != nullptr) {
    if (!message->is_string()) return malformed("message is not a string");
    reply.message = message->as_string();
  }
  if (const Value* commands = find_entry(fields, "commands");
      commands != nullptr) {
    if (!commands->is_int()) return malformed("commands is not an integer");
    reply.commands = commands->as_int();
  }
  return reply;
}

std::string_view classify_refusal(const Status& status) noexcept {
  switch (status.code()) {
    case ErrorCode::kOk:
      return "";
    case ErrorCode::kTimeout:
      return "deadline";  // spent budget: admission shed, watchdog, late
    case ErrorCode::kUnavailable:
      return "overload";  // queue full, shed-oldest victim, breaker open
    case ErrorCode::kFailedPrecondition:
      return "not-running";
    case ErrorCode::kParseError:
    case ErrorCode::kInvalidArgument:
      return "malformed";
    case ErrorCode::kConformanceError:
      return "conformance";
    case ErrorCode::kNotFound:
      return "no-route";
    case ErrorCode::kExecutionError:
      return "execution";
    case ErrorCode::kAlreadyExists:
    case ErrorCode::kInternal:
      return "error";
  }
  return "error";
}

bool is_version_mismatch(const Status& status) noexcept {
  return status.code() == ErrorCode::kInvalidArgument &&
         status.message().rfind(kVersionMismatchPrefix, 0) == 0;
}

}  // namespace mdsm::ingress::wire
