// Wire schema of the networked ingress (PR 7).
//
// Requests and replies travel over net::Network as model::Value payloads
// — a list of [key, value] pairs, the closest thing the substrate has to
// a self-describing datagram. The topic carries the route
// ("submit/{dsml}/{session}", "query/{what}"); the payload carries the
// request body; replies all travel on one well-known topic and correlate
// through the sender-assigned request id.
//
// Refusal taxonomy: every non-Ok outcome crossing the wire is typed with
// a stable slug (classify_refusal) so remote senders can react to the
// *kind* of refusal — overload backpressure ("overload"), a spent budget
// ("deadline"), a routing miss ("no-route") — without parsing status
// messages. The PR-5/PR-6 overload contract thus propagates across the
// network boundary unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "model/value.hpp"

namespace mdsm::ingress::wire {

/// Topic every reply travels on; correlation is by request id.
inline constexpr std::string_view kReplyTopic = "mdsm.reply";
/// Route prefixes the default router installs.
inline constexpr std::string_view kSubmitPattern = "submit/{dsml}/{session}";
inline constexpr std::string_view kQueryPattern = "query/{what}";
/// Session-scoped query: "query/runtime-model/s1" reads session s1's
/// runtime model (the unscoped query reads the default session's).
inline constexpr std::string_view kSessionQueryPattern =
    "query/{what}/{session}";
/// The views "query/{what}" serves; every door refuses any other
/// {what} as "no-route".
inline constexpr std::array<std::string_view, 2> kQueryViews = {
    "runtime-model", "metrics"};

/// Wire schema version (PR 8). Every encoded message stamps
/// [major, minor] under "wire_version"; decoders accept any minor of
/// their own major (fields are keyed, unknown keys are skipped) and any
/// message with no version stamp (a pre-versioning peer, by definition
/// major 1), but refuse a foreign major — the shape of the field list
/// itself may have changed. The refusal slug for that case is
/// "bad-version", distinguished from "malformed" via
/// is_version_mismatch().
inline constexpr std::int64_t kWireMajor = 1;
inline constexpr std::int64_t kWireMinor = 1;

/// A submit or query crossing the wire client → ingress.
struct Request {
  std::uint64_t request_id = 0;  ///< sender-assigned correlation id
  std::string text;              ///< application-model text (submit only)
  std::string auth;              ///< shared-secret token ("" = none)
  std::int64_t deadline_us = 0;  ///< pipeline budget (0 = server default)
  bool high_priority = false;    ///< control-plane lane
  /// Structured payload for non-submit routes (model-diff replication,
  /// future batching); none when the route only needs `text`.
  model::Value body;
  /// Original "<client>#<id>" attribution when a front-end forwards the
  /// request on a client's behalf ("" = direct submission).
  std::string forwarded_for;
};

/// The outcome travelling ingress → client.
struct Reply {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kOk;
  std::string refusal;     ///< taxonomy slug, "" on success
  std::string message;     ///< status message / script id / query result
  std::int64_t commands = 0;  ///< commands executed (submit success only)
};

[[nodiscard]] model::Value encode_request(const Request& request);
[[nodiscard]] Result<Request> decode_request(const model::Value& payload);

[[nodiscard]] model::Value encode_reply(const Reply& reply);
[[nodiscard]] Result<Reply> decode_reply(const model::Value& payload);

/// Stable refusal slug for a non-Ok status ("overload", "deadline",
/// "no-route", "malformed", "not-running", "conformance", "execution",
/// "error"). Middleware may pre-type a refusal (e.g. "unauthenticated",
/// "rate-limited", "bad-version") before this default mapping applies.
[[nodiscard]] std::string_view classify_refusal(const Status& status) noexcept;

/// True when `status` came from a decoder refusing a foreign wire major
/// (the "bad-version" refusal, as opposed to plain "malformed").
[[nodiscard]] bool is_version_mismatch(const Status& status) noexcept;

}  // namespace mdsm::ingress::wire
