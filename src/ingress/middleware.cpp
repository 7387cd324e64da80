#include "ingress/middleware.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

namespace mdsm::ingress {

std::string request_identity(const IngressContext& context) {
  if (!context.request.forwarded_for.empty()) {
    return context.request.forwarded_for;
  }
  return context.message->from + "#" +
         std::to_string(context.request.request_id);
}

void MiddlewareChain::add(std::string name, Middleware fn) {
  obs::Counter& refusals =
      metrics_.counter("ingress.middleware." + name + ".refusals");
  entries_.push_back(Entry{std::move(name), std::move(fn), &refusals});
}

Status MiddlewareChain::run(IngressContext& context) const {
  for (const Entry& entry : entries_) {
    Status status = entry.fn(context);
    if (!status.ok()) {
      entry.refusals->add();
      if (context.refusal.empty()) {
        context.refusal = std::string(wire::classify_refusal(status));
      }
      return status;
    }
  }
  return Status::Ok();
}

std::vector<std::string> MiddlewareChain::names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

RateLimiter::RateLimiter(double rate_per_second, double burst)
    : rate_(std::max(rate_per_second, 0.0)),
      burst_(burst > 0 ? burst : std::max(1.0, rate_)) {}

bool RateLimiter::admit(std::string_view client, TimePoint now) {
  std::lock_guard lock(mutex_);
  auto it = buckets_.find(client);
  if (it == buckets_.end()) {
    // First sight of this client: a full bucket, minus this request.
    it = buckets_.emplace(std::string(client), Bucket{burst_, now}).first;
  } else {
    Bucket& bucket = it->second;
    if (now > bucket.refilled_at) {
      const double elapsed_s =
          std::chrono::duration<double>(now - bucket.refilled_at).count();
      bucket.tokens = std::min(burst_, bucket.tokens + elapsed_s * rate_);
      bucket.refilled_at = now;
    }
  }
  Bucket& bucket = it->second;
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

std::size_t RateLimiter::clients() const {
  std::lock_guard lock(mutex_);
  return buckets_.size();
}

}  // namespace mdsm::ingress
