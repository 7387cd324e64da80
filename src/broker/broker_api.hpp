// The interface the Broker layer exposes upward: "The APIs allow the
// Controller layer to execute the various domain-specific operations"
// (paper §V-B). Abstract so the Controller can also be tested against a
// recording stub, and so the handcrafted baseline broker (Exp-2) and the
// model-based broker are interchangeable behind the same port.
#pragma once

#include "broker/broker_types.hpp"
#include "obs/request_context.hpp"
#include "runtime/task.hpp"

namespace mdsm::broker {

class BrokerApi {
 public:
  virtual ~BrokerApi() = default;

  /// Execute one broker operation on behalf of the layer above. The
  /// request context carries the caller's span tree; implementations
  /// open one "broker.call" span per crossing. The task runs when it is
  /// awaited (DESIGN.md §6e): the model-based BrokerLayer may park it
  /// across a slow resource invocation, suspending the awaiting layer
  /// instead of a thread; stub and handcrafted brokers complete at once.
  /// `call` and `context` must outlive the task; sync callers run it
  /// through runtime::run_inline().
  virtual runtime::Task<Result<model::Value>> call(
      const Call& call, obs::RequestContext& context) = 0;

  /// Context-less convenience for callers outside a traced request.
  runtime::Task<Result<model::Value>> call(const Call& broker_call) {
    return call(broker_call, obs::RequestContext::noop());
  }

  /// The trace of resource commands issued so far (Exp-1 compares these).
  [[nodiscard]] virtual const CommandTrace& trace() const = 0;
};

}  // namespace mdsm::broker
