#include "domains/comm/scenarios.hpp"

namespace mdsm::comm {

namespace {

using model::Value;

ScenarioStep call(std::string name, broker::Args args) {
  ScenarioStep step;
  step.kind = ScenarioStep::Kind::kCall;
  step.call = {std::move(name), std::move(args)};
  return step;
}

ScenarioStep fault(std::string session, std::string address) {
  ScenarioStep step;
  step.kind = ScenarioStep::Kind::kInjectFault;
  step.session = std::move(session);
  step.address = std::move(address);
  return step;
}

ScenarioStep set_context(std::string key, Value value) {
  ScenarioStep step;
  step.kind = ScenarioStep::Kind::kSetContext;
  step.context_key = std::move(key);
  step.context_value = std::move(value);
  return step;
}

std::vector<ScenarioStep> establish(const std::string& session,
                                    std::vector<std::string> parties) {
  std::vector<ScenarioStep> steps;
  steps.push_back(call("ncb.session.create", {{"id", Value(session)}}));
  for (std::string& party : parties) {
    steps.push_back(call("ncb.party.add", {{"session", Value(session)},
                                           {"address", Value(party)}}));
  }
  return steps;
}

ScenarioStep open_media(const std::string& session, const std::string& id,
                        const std::string& kind, bool live = true) {
  return call("ncb.media.open", {{"session", Value(session)},
                                 {"id", Value(id)},
                                 {"kind", Value(kind)},
                                 {"live", Value(live)}});
}

std::vector<Scenario> build_scenarios() {
  std::vector<Scenario> scenarios;

  {  // 1 — basic two-party audio call
    Scenario s;
    s.name = "s1-basic-call";
    s.description = "two-party audio session establishment";
    s.steps = establish("c1", {"alice", "bob"});
    s.steps.push_back(open_media("c1", "voice", "audio"));
    scenarios.push_back(std::move(s));
  }
  {  // 2 — multi-party audio+video conference
    Scenario s;
    s.name = "s2-conference";
    s.description = "four-party conference with audio and video";
    s.steps = establish("c2", {"alice", "bob", "carol", "dave"});
    s.steps.push_back(open_media("c2", "voice", "audio"));
    s.steps.push_back(open_media("c2", "cam", "video"));
    scenarios.push_back(std::move(s));
  }
  {  // 3 — participant joins mid-session
    Scenario s;
    s.name = "s3-late-join";
    s.description = "participant added to a running session";
    s.steps = establish("c3", {"alice", "bob"});
    s.steps.push_back(open_media("c3", "voice", "audio"));
    s.steps.push_back(call("ncb.party.add", {{"session", Value("c3")},
                                             {"address", Value("carol")}}));
    scenarios.push_back(std::move(s));
  }
  {  // 4 — participant leaves mid-session
    Scenario s;
    s.name = "s4-leave";
    s.description = "participant removed from a running session";
    s.steps = establish("c4", {"alice", "bob", "carol"});
    s.steps.push_back(open_media("c4", "voice", "audio"));
    s.steps.push_back(call("ncb.party.remove",
                           {{"session", Value("c4")},
                            {"address", Value("carol")}}));
    scenarios.push_back(std::move(s));
  }
  {  // 5 — media reconfiguration under bandwidth change
    Scenario s;
    s.name = "s5-reconfigure";
    s.description = "stream retuned after bandwidth drops";
    s.steps = establish("c5", {"alice", "bob"});
    s.steps.push_back(set_context("bandwidth", Value(3.0)));
    s.steps.push_back(open_media("c5", "cam", "video"));  // opens high
    s.steps.push_back(set_context("bandwidth", Value(0.3)));
    s.steps.push_back(call("ncb.media.retune",
                           {{"session", Value("c5")},
                            {"id", Value("cam")},
                            {"quality", Value("low")}}));
    scenarios.push_back(std::move(s));
  }
  {  // 6 — adding a non-live file transfer to a call
    Scenario s;
    s.name = "s6-file-transfer";
    s.description = "file transfer stream alongside audio";
    s.steps = establish("c6", {"alice", "bob"});
    s.steps.push_back(open_media("c6", "voice", "audio"));
    s.steps.push_back(open_media("c6", "report", "file", /*live=*/false));
    s.steps.push_back(call("ncb.media.close", {{"session", Value("c6")},
                                               {"id", Value("report")}}));
    scenarios.push_back(std::move(s));
  }
  {  // 7 — link failure and autonomic recovery
    Scenario s;
    s.name = "s7-failure-recovery";
    s.description = "party link drops; broker recovers the party";
    s.steps = establish("c7", {"alice", "bob"});
    s.steps.push_back(open_media("c7", "voice", "audio"));
    s.steps.push_back(fault("c7", "bob"));
    scenarios.push_back(std::move(s));
  }
  {  // 8 — teardown and re-establishment
    Scenario s;
    s.name = "s8-reestablish";
    s.description = "full teardown followed by a fresh session";
    s.steps = establish("c8", {"alice", "bob"});
    s.steps.push_back(open_media("c8", "voice", "audio"));
    s.steps.push_back(
        call("ncb.session.teardown", {{"id", Value("c8")}}));
    auto again = establish("c8r", {"alice", "bob"});
    s.steps.insert(s.steps.end(), again.begin(), again.end());
    s.steps.push_back(open_media("c8r", "voice", "audio"));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

const std::vector<Scenario>& comm_scenarios() {
  static const std::vector<Scenario> scenarios = build_scenarios();
  return scenarios;
}

Status run_scenario(const Scenario& scenario, broker::BrokerApi& broker,
                    CommSessionService& service,
                    policy::ContextStore& context) {
  for (const ScenarioStep& step : scenario.steps) {
    switch (step.kind) {
      case ScenarioStep::Kind::kCall: {
        Result<model::Value> outcome =
            runtime::run_inline(broker.call(step.call));
        if (!outcome.ok()) {
          return Status(outcome.status().code(),
                        scenario.name + " step '" + step.call.name +
                            "': " + outcome.status().message());
        }
        break;
      }
      case ScenarioStep::Kind::kInjectFault:
        // The service raises link.lost; the broker's recovery path (the
        // autonomic rule or the hand-coded subscription) runs inline.
        service.inject_link_failure(step.session, step.address);
        break;
      case ScenarioStep::Kind::kSetContext:
        context.set(step.context_key, step.context_value);
        break;
    }
  }
  return Status::Ok();
}

}  // namespace mdsm::comm
