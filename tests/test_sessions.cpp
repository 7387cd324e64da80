// A session is a state boundary on a platform: the request's session key
// (the "ingress.session" attribute the ingress stamps from the submit
// route) selects its own runtime model and LTS states, so one session
// never diffs against — or tears down — another. A named session is
// released when its lifecycle ends (every root object in a terminal LTS
// state) or after the engine's idle TTL, after which its key refuses
// further submits; a checkpoint carries one session only.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/strings.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "soak_fixtures.hpp"

namespace mdsm::core {
namespace {

using soak::submit_in_session;

/// The CVM's "comm" resource with no behaviour: the tests look at the
/// synthesized commands, not at a simulated service.
class NullComm final : public broker::ResourceAdapter {
 public:
  NullComm() : ResourceAdapter("comm") {}
  Result<model::Value> execute(const std::string&,
                               const broker::Args&) override {
    return model::Value(true);
  }
};

std::unique_ptr<Platform> make_cml_platform() {
  PlatformConfig config;
  config.dsml = comm::cml_metamodel();
  config.pipeline_threads = 2;
  auto platform = Platform::assemble_from_text(
      comm::cvm_middleware_model_text(), std::move(config));
  if (!platform.ok() ||
      !platform.value()->add_resource_adapter(std::make_unique<NullComm>())
           .ok() ||
      !platform.value()->start().ok()) {
    return nullptr;
  }
  return std::move(platform.value());
}

/// The five CML models one session submits, its objects named after
/// `ids`: open, activate (two parties and a medium), retune, drop a
/// party, close.
std::vector<std::string> session_steps(const std::string& ids) {
  auto model = [&](std::string_view state, bool both, bool retuned) {
    std::string out = "model app conforms cml\nobject Connection " + ids +
                      " {\n  state = " + std::string(state) + "\n";
    if (state == "pending") return out + "}\n";
    out += "  child participants Participant " + ids + "_a { address = \"" +
           ids + "_a\" role = initiator }\n";
    if (both) {
      out += "  child participants Participant " + ids + "_b { address = \"" +
             ids + "_b\" }\n";
    }
    out += "  child media Medium " + ids + "_v { kind = audio";
    out += retuned ? " quality = high }\n}\n" : " }\n}\n";
    return out;
  };
  return {model("pending", false, false), model("active", true, false),
          model("active", true, true), model("active", false, true),
          model("closed", false, true)};
}

using Commands = std::vector<std::string>;

void append(Commands& out, const controller::ControlScript& script) {
  for (const controller::Command& command : script.commands) {
    out.push_back(command.to_text());
  }
}

/// One session's steps on a fresh platform: the reference sequence.
Commands run_alone(const std::string& session,
                   const std::vector<std::string>& steps) {
  std::unique_ptr<Platform> platform = make_cml_platform();
  EXPECT_NE(platform, nullptr);
  Commands out;
  if (platform == nullptr) return out;
  for (const std::string& step : steps) {
    Result<controller::ControlScript> script =
        submit_in_session(*platform, session, step);
    EXPECT_TRUE(script.ok()) << script.status().to_string();
    if (script.ok()) append(out, script.value());
  }
  return out;
}

// Property: any interleaving of N sessions on one staged platform —
// several in flight at once, each session's own requests in order —
// gives every session exactly the command sequence it emits alone. Two
// of the sessions use the same object ids.
TEST(SessionIsolation, RandomInterleavingsMatchSoloRuns) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kMaxInFlight = 3;
  std::vector<std::string> keys;
  std::vector<std::vector<std::string>> steps;
  for (std::size_t i = 0; i < kSessions; ++i) {
    keys.push_back(numbered("s", static_cast<std::int64_t>(i)));
    // s0 and s1 reuse the same object ids.
    steps.push_back(session_steps(
        i < 2 ? "conn" : numbered("c", static_cast<std::int64_t>(i))));
  }
  std::vector<Commands> alone;
  for (std::size_t i = 0; i < kSessions; ++i) {
    alone.push_back(run_alone(keys[i], steps[i]));
  }
  ASSERT_EQ(alone[0], alone[1]);
  ASSERT_FALSE(alone[0].empty());

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::unique_ptr<Platform> platform = make_cml_platform();
    ASSERT_NE(platform, nullptr);
    std::mt19937_64 rng(seed);
    std::mutex mutex;
    std::condition_variable settled;
    std::vector<std::size_t> next(kSessions, 0);
    std::vector<bool> busy(kSessions, false);
    std::vector<Commands> seen(kSessions);
    std::size_t in_flight = 0;
    std::size_t failures = 0;

    std::unique_lock lock(mutex);
    while (true) {
      std::vector<std::size_t> ready;
      bool remaining = false;
      for (std::size_t i = 0; i < kSessions; ++i) {
        remaining = remaining || next[i] < steps[i].size() || busy[i];
        if (!busy[i] && next[i] < steps[i].size()) ready.push_back(i);
      }
      if (!remaining) break;
      if (ready.empty() || in_flight == kMaxInFlight) {
        settled.wait(lock);
        continue;
      }
      const std::size_t i = ready[rng() % ready.size()];
      busy[i] = true;
      ++in_flight;
      SubmitOptions options;
      options.attributes.emplace_back(
          std::string(obs::RequestContext::kSessionAttribute), keys[i]);
      Status door = platform->submit_async(
          steps[i][next[i]++],
          [&, i](Result<controller::ControlScript> outcome) {
            std::lock_guard done(mutex);
            if (outcome.ok()) {
              append(seen[i], outcome.value());
            } else {
              ++failures;
            }
            busy[i] = false;
            --in_flight;
            settled.notify_all();
          },
          std::move(options));
      ASSERT_TRUE(door.ok()) << door.to_string();
    }
    lock.unlock();
    EXPECT_EQ(failures, 0u) << "seed " << seed;
    for (std::size_t i = 0; i < kSessions; ++i) {
      EXPECT_EQ(seen[i], alone[i])
          << "seed " << seed << " session " << keys[i];
    }
    // Every session closed, so none holds state, and the default session
    // never saw any of their objects.
    const obs::MetricsSnapshot metrics = platform->metrics().snapshot();
    EXPECT_EQ(metrics.gauge_value("synthesis.sessions_live"), 0);
    EXPECT_EQ(metrics.counter_value("synthesis.sessions_released"),
              kSessions);
    EXPECT_TRUE(platform->synthesis().runtime_model()->empty());
    ASSERT_TRUE(platform->stop().ok());
  }
}

TEST(SessionIsolation, SameObjectIdsInTwoSessionsDoNotCollide) {
  soak::SoakPlatform soak = soak::make_session_platform();
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  Platform& platform = *soak.platform;
  ASSERT_TRUE(
      submit_in_session(platform, "a", soak::open_session_text("x")).ok());
  // Without keying, b's open would diff against a's model: a no-op.
  Result<controller::ControlScript> opened_b =
      submit_in_session(platform, "b", soak::open_session_text("x"));
  ASSERT_TRUE(opened_b.ok());
  ASSERT_EQ(opened_b->commands.size(), 1u);
  EXPECT_EQ(opened_b->commands[0].name, "session.create");
  EXPECT_EQ(soak.inner->executed(), 4u);  // create + open, twice

  // Closing x in a closes a's x only.
  Result<controller::ControlScript> closed_a =
      submit_in_session(platform, "a", soak::close_session_text("x"));
  ASSERT_TRUE(closed_a.ok());
  ASSERT_EQ(closed_a->commands.size(), 1u);
  EXPECT_EQ(closed_a->commands[0].name, "session.close");
  EXPECT_EQ(platform.synthesis().state_of("x", "b"), "live");
  EXPECT_EQ(platform.synthesis().state_of("x", "a"), "");  // released
  EXPECT_EQ(platform.synthesis().live_sessions(),
            std::vector<std::string>{"b"});
  // The default session saw none of it.
  EXPECT_TRUE(platform.synthesis().runtime_model()->empty());
  EXPECT_EQ(platform.runtime_model_text("b"),
            platform.synthesis().runtime_model_text("b"));
  EXPECT_NE(platform.runtime_model_text("b").find("object Session x"),
            std::string::npos);
}

TEST(SessionLifecycle, TerminalStateReleasesTheSession) {
  soak::SoakPlatform soak = soak::make_session_platform();
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  Platform& platform = *soak.platform;
  auto live = [&] {
    return platform.metrics().snapshot().gauge_value("synthesis.sessions_live");
  };
  ASSERT_TRUE(
      submit_in_session(platform, "k", soak::open_session_text("x")).ok());
  EXPECT_EQ(live(), 1);
  ASSERT_TRUE(
      submit_in_session(platform, "k", soak::close_session_text("x")).ok());
  EXPECT_EQ(live(), 0);
  EXPECT_EQ(platform.metrics().snapshot().counter_value(
                "synthesis.sessions_released"),
            1u);
  EXPECT_TRUE(platform.synthesis().runtime_model("k")->empty());

  // The default session is never released: a closed Session there stays
  // in its runtime model, as the in-process examples expect.
  ASSERT_TRUE(platform.submit_model_text(soak::open_session_text("d")).ok());
  ASSERT_TRUE(platform.submit_model_text(soak::close_session_text("d")).ok());
  EXPECT_EQ(platform.synthesis().state_of("d"), "done");
  EXPECT_EQ(live(), 0);
}

// A closed session's key is retired: re-sending its last model (or a
// retried close, or a fresh open) issues nothing, where a diff against
// the released, empty model would create its resources again.
TEST(SessionLifecycle, ClosedSessionRefusesResubmits) {
  soak::SoakPlatform soak = soak::make_session_platform();
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  Platform& platform = *soak.platform;
  ASSERT_TRUE(
      submit_in_session(platform, "k", soak::open_session_text("x")).ok());
  ASSERT_TRUE(
      submit_in_session(platform, "k", soak::close_session_text("x")).ok());
  const std::uint64_t executed = soak.inner->executed();
  for (const std::string& text :
       {soak::close_session_text("x"), soak::open_session_text("x")}) {
    Result<controller::ControlScript> again =
        submit_in_session(platform, "k", text);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), ErrorCode::kFailedPrecondition);
  }
  EXPECT_EQ(soak.inner->executed(), executed);
  EXPECT_TRUE(platform.synthesis().live_sessions().empty());
  EXPECT_EQ(platform.metrics().snapshot().counter_value(
                "synthesis.rejected_models"),
            2u);
  // Another key is a new session.
  Result<controller::ControlScript> other =
      submit_in_session(platform, "k2", soak::open_session_text("x"));
  ASSERT_TRUE(other.ok()) << other.status().to_string();
  EXPECT_EQ(other->commands.size(), 1u);
}

// The engine remembers only the newest kRetiredSessionCapacity released
// keys, so retired keys cost bounded memory; an older key opens anew.
TEST(SessionLifecycle, OnlyTheNewestReleasedKeysAreRemembered) {
  soak::SoakPlatform soak = soak::make_session_platform();
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  Platform& platform = *soak.platform;
  auto open_and_close = [&](const std::string& session) {
    return submit_in_session(platform, session,
                             soak::open_session_text(session))
               .ok() &&
           submit_in_session(platform, session,
                             soak::close_session_text(session))
               .ok();
  };
  ASSERT_TRUE(open_and_close("first"));
  for (std::size_t i = 0;
       i + 1 < synthesis::SynthesisEngine::kRetiredSessionCapacity; ++i) {
    ASSERT_TRUE(open_and_close(numbered("s", static_cast<std::int64_t>(i))));
  }
  EXPECT_FALSE(
      submit_in_session(platform, "first", soak::open_session_text("first"))
          .ok());
  ASSERT_TRUE(open_and_close("last"));  // pushes "first" out
  EXPECT_TRUE(
      submit_in_session(platform, "first", soak::open_session_text("first"))
          .ok());
}

TEST(SessionLifecycle, IdleTtlReleasesSessionsThatNeverClose) {
  constexpr Duration kTtl = synthesis::SynthesisEngine::kSessionIdleTtl;
  SimClock clock;
  soak::SoakPlatform soak = soak::make_session_platform(&clock);
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  Platform& platform = *soak.platform;
  for (const char* session : {"a", "b", "c"}) {
    ASSERT_TRUE(submit_in_session(platform, session,
                                  soak::open_session_text(session))
                    .ok());
  }
  clock.advance(kTtl * 6 / 10);
  // b stays busy; a and c go idle.
  ASSERT_TRUE(submit_in_session(platform, "b", soak::open_session_text("b"))
                  .ok());
  clock.advance(kTtl * 6 / 10);
  ASSERT_TRUE(platform.submit_model_text(soak::open_session_text("d")).ok());
  EXPECT_EQ(platform.synthesis().live_sessions(),
            std::vector<std::string>{"b"});
  clock.advance(kTtl * 12 / 10);
  ASSERT_TRUE(platform.submit_model_text(soak::open_session_text("d")).ok());
  const obs::MetricsSnapshot metrics = platform.metrics().snapshot();
  EXPECT_EQ(metrics.gauge_value("synthesis.sessions_live"), 0);
  EXPECT_EQ(metrics.counter_value("synthesis.sessions_expired"), 3u);
  EXPECT_EQ(metrics.counter_value("synthesis.sessions_released"), 3u);

  // A late submit in an expired session is refused: its Session object
  // still exists in the resource, and a diff against the empty model
  // would create it a second time.
  const std::uint64_t executed = soak.inner->executed();
  Result<controller::ControlScript> late =
      submit_in_session(platform, "a", soak::close_session_text("a"));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(soak.inner->executed(), executed);
  EXPECT_TRUE(platform.synthesis().live_sessions().empty());
}

// Resuming one session on a replica replaces that session only: the
// replica's other live sessions export byte-equal before and after.
TEST(SessionCheckpoint, ImportLeavesOtherSessionsByteEqual) {
  soak::SoakPlatform source = soak::make_session_platform();
  soak::SoakPlatform replica = soak::make_session_platform();
  ASSERT_TRUE(source.ok() && replica.ok());
  for (const char* session : {"x", "y"}) {
    ASSERT_TRUE(submit_in_session(*replica.platform, session,
                                  soak::open_session_text(session))
                    .ok());
  }
  ASSERT_TRUE(submit_in_session(*source.platform, "z",
                                soak::open_session_text("z"))
                  .ok());
  // The source also holds a diverged "x": shipping z must not carry it.
  ASSERT_TRUE(submit_in_session(*source.platform, "x",
                                soak::open_session_text("other"))
                  .ok());
  auto exported = [&](const std::string& session) {
    Result<model::Value> state =
        replica.platform->export_session_state(session);
    EXPECT_TRUE(state.ok());
    return state.ok() ? state.value().to_text() : std::string();
  };
  const std::string x_before = exported("x");
  const std::string y_before = exported("y");

  Result<model::Value> z = source.platform->export_session_state("z");
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(replica.platform->import_session_state(z.value()).ok());
  EXPECT_EQ(exported("x"), x_before);
  EXPECT_EQ(exported("y"), y_before);
  EXPECT_EQ(replica.platform->synthesis().live_sessions(),
            (std::vector<std::string>{"x", "y", "z"}));
  // z resumes: its close is one command, not a cold replay.
  Result<controller::ControlScript> closed = submit_in_session(
      *replica.platform, "z", soak::close_session_text("z"));
  ASSERT_TRUE(closed.ok());
  ASSERT_EQ(closed->commands.size(), 1u);
  EXPECT_EQ(closed->commands[0].name, "session.close");
}

// A session's checkpoint carries that session's state only, so its size
// does not grow with the other sessions a shard serves; the snapshot,
// which covers every live session, does.
TEST(SessionCheckpoint, BytesScaleWithOneSessionNotTheShard) {
  soak::SoakPlatform soak = soak::make_session_platform();
  ASSERT_TRUE(soak.ok()) << soak.status.to_string();
  Platform& platform = *soak.platform;
  ASSERT_TRUE(submit_in_session(platform, "probe",
                                soak::open_session_text("probe"))
                  .ok());
  auto checkpoint_bytes = [&] {
    Result<model::Value> state = platform.export_session_state("probe");
    EXPECT_TRUE(state.ok());
    return state.ok() ? state.value().to_text().size() : 0u;
  };
  auto snapshot_bytes = [&] {
    Result<std::string> snapshot = platform.snapshot();
    EXPECT_TRUE(snapshot.ok());
    return snapshot.ok() ? snapshot.value().size() : 0u;
  };
  const std::size_t alone = checkpoint_bytes();
  const std::size_t snapshot_alone = snapshot_bytes();
  for (int i = 0; i < 100; ++i) {
    const std::string session = numbered("other", i);
    ASSERT_TRUE(submit_in_session(platform, session,
                                  soak::open_session_text(session))
                    .ok());
  }
  EXPECT_EQ(checkpoint_bytes(), alone);
  EXPECT_GT(snapshot_bytes(), snapshot_alone + 100 * 20);
}

// snapshot()/restore() cover the default session and every live one.
TEST(SessionCheckpoint, SnapshotRoundTripsEverySession) {
  soak::SoakPlatform source = soak::make_session_platform();
  soak::SoakPlatform target = soak::make_session_platform();
  ASSERT_TRUE(source.ok() && target.ok());
  ASSERT_TRUE(
      source.platform->submit_model_text(soak::open_session_text("d")).ok());
  for (const char* session : {"a", "b"}) {
    ASSERT_TRUE(submit_in_session(*source.platform, session,
                                  soak::open_session_text(session))
                    .ok());
  }
  Result<std::string> snapshot = source.platform->snapshot();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(target.platform->restore(snapshot.value()).ok());
  EXPECT_EQ(target.platform->synthesis().live_sessions(),
            (std::vector<std::string>{"a", "b"}));
  for (const char* session : {"", "a", "b"}) {
    EXPECT_EQ(target.platform->runtime_model_text(session),
              source.platform->runtime_model_text(session))
        << "session '" << session << "'";
  }
  Result<std::string> again = target.platform->snapshot();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), snapshot.value());
}

}  // namespace
}  // namespace mdsm::core
