#include <algorithm>
#include <cmath>
#include <string_view>

#include "bench.hpp"
#include "model/text_format.hpp"

namespace perfbench {

void signaling_work(std::size_t iterations) {
  static volatile std::uint64_t sink = 0;
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < iterations; ++i) {
    hash ^= i;
    hash *= 1099511628211ull;
  }
  sink = sink + hash;
}

Result<model::Value> WorkAdapter::execute(const std::string& command,
                                          const broker::Args& args) {
  (void)command;
  (void)args;
  signaling_work(kSignalingWork);
  return model::Value(true);
}

TimedAdapter::TimedAdapter(std::unique_ptr<broker::ResourceAdapter> inner)
    : ResourceAdapter(inner->name()), inner_(std::move(inner)) {
  inner_->set_event_sink(
      [this](const std::string& topic, model::Value payload) {
        raise_event(topic, std::move(payload));
      });
}

Result<model::Value> TimedAdapter::execute(const std::string& command,
                                           const broker::Args& args) {
  if (!timing_) return inner_->execute(command, args);
  const SteadyTime start = now();
  Result<model::Value> result = inner_->execute(command, args);
  busy_ns_.fetch_add(static_cast<std::int64_t>(ns_between(start, now())),
                     std::memory_order_relaxed);
  return result;
}

Result<controller::ControlScript> submit_plain(core::Platform& platform,
                                               const std::string& text) {
  obs::RequestContext context = platform.make_context();
  return platform.submit_model_text(text, context);
}

void time_parse(const core::Platform& platform, const std::string& text,
                LayerTotals& totals) {
  const SteadyTime start = now();
  Result<model::Model> parsed = model::parse_model(text, platform.dsml());
  totals.parse_ns += ns_between(start, now());
  (void)parsed;
}

namespace {

/// Summed elapsed time of every span called `name`, in ns.
double span_ns(const obs::Trace& trace, std::string_view name) {
  double total = 0.0;
  for (const obs::Span& span : trace.spans()) {
    if (span.name == name && span.closed) {
      total += std::chrono::duration<double, std::nano>(span.elapsed()).count();
    }
  }
  return total;
}

}  // namespace

Result<controller::ControlScript> submit_traced(core::Platform& platform,
                                                const TimedAdapter& adapter,
                                                const std::string& text,
                                                LayerTotals& totals) {
  obs::RequestContext context = platform.make_context();
  const double adapter_before = adapter.busy_ns();
  const SteadyTime start = now();
  Result<controller::ControlScript> script =
      platform.submit_model_text(text, context);
  totals.request_ns += ns_between(start, now());
  totals.adapter_ns += adapter.busy_ns() - adapter_before;
  // The spans nest: ui.submit > synthesis.submit > controller.script.
  // Each layer gets its own span's time outside the one nested in it.
  const obs::Trace& trace = context.trace();
  const double ui = span_ns(trace, "ui.submit");
  const double synthesis = span_ns(trace, "synthesis.submit");
  const double controller = span_ns(trace, "controller.script");
  totals.ui_ns += ui - synthesis;
  totals.commit_ns += synthesis - controller;
  totals.controller_ns += controller;
  ++totals.requests;
  return script;
}

std::vector<policy::Expression> model_guards(const model::Model& middleware) {
  std::vector<policy::Expression> guards;
  for (const model::ModelObject* object : middleware.objects()) {
    auto it = object->attributes().find("guard");
    if (it == object->attributes().end() || !it->second.is_string()) continue;
    Result<policy::Expression> parsed =
        policy::Expression::parse(it->second.as_string());
    if (parsed.ok()) guards.push_back(std::move(parsed.value()));
  }
  return guards;
}

void time_guards(const std::vector<policy::Expression>& guards,
                 const policy::ContextStore& context, LayerTotals& totals) {
  for (const policy::Expression& guard : guards) {
    const SteadyTime start = now();
    Result<bool> open = guard.evaluate_bool(context);
    totals.guard_ns += ns_between(start, now());
    ++totals.guard_evals;
    (void)open;
  }
}

void report_layer_split(const LayerTotals& totals, Report& report) {
  const double n = std::max<double>(1.0, static_cast<double>(totals.requests));
  const double controller_self = totals.controller_ns - totals.adapter_ns;
  // Every part is measured on its own; nothing is a remainder. The parse
  // is the only work of submit_model_text outside the ui.submit span, so
  // the parts should add up to the whole.
  const double parts = totals.parse_ns + totals.commit_ns + controller_self +
                       totals.adapter_ns + totals.ui_ns;
  report.layer("model.parse_us", totals.parse_ns / n / 1e3);
  report.layer("synthesis.commit_us", totals.commit_ns / n / 1e3);
  report.layer("controller.execute_us", controller_self / n / 1e3);
  report.layer("broker.adapter_us", totals.adapter_ns / n / 1e3);
  report.layer("core.unattributed_us", totals.ui_ns / n / 1e3);
  report.layer("core.request_us", totals.request_ns / n / 1e3);
  report.layer("policy.guard_eval_ns",
               totals.guard_evals == 0
                   ? 0.0
                   : totals.guard_ns / static_cast<double>(totals.guard_evals));
  report.diagnostic("layer_sum_error",
                    ratio(parts - totals.request_ns, totals.request_ns));
}

void Round::close() {
  samples = latency_us.size();
  for (double latency : latency_us) latency_sum_us += latency;
  p50_us = quantile(latency_us, 0.50);
  p99_us = quantile(latency_us, 0.99);
  std::vector<double>().swap(latency_us);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
