// Unit tests for the simulated network substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "common/strings.hpp"
#include "net/network.hpp"

namespace mdsm::net {
namespace {

NetworkConfig quiet_config() {
  NetworkConfig config;
  config.base_latency = std::chrono::microseconds(100);
  config.jitter = std::chrono::microseconds(0);
  config.drop_rate = 0.0;
  return config;
}

TEST(Network, EndpointLifecycle) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(network.create_endpoint("a").status().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_NE(network.find_endpoint("a"), nullptr);
  EXPECT_TRUE(network.remove_endpoint("a").ok());
  EXPECT_EQ(network.remove_endpoint("a").code(), ErrorCode::kNotFound);
  EXPECT_EQ(network.find_endpoint("a"), nullptr);
}

TEST(Network, DeliversAfterLatency) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  std::vector<Message> received;
  b->set_handler([&](const Message& m) { received.push_back(m); });
  ASSERT_TRUE(a->send("b", "hello", model::Value("payload")).ok());
  EXPECT_EQ(network.deliver_due(), 0u);  // latency not yet elapsed
  clock.advance(std::chrono::microseconds(100));
  EXPECT_EQ(network.deliver_due(), 1u);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, "a");
  EXPECT_EQ(received[0].topic, "hello");
  EXPECT_EQ(received[0].payload, model::Value("payload"));
}

TEST(Network, RunUntilIdleAdvancesClock) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  int count = 0;
  // b replies to each ping once, creating a short causal chain.
  b->set_handler([&](const Message& m) {
    ++count;
    if (m.topic == "ping") b->send("a", "pong");
  });
  a->set_handler([&](const Message&) { ++count; });
  a->send("b", "ping");
  TimePoint before = clock.now();
  EXPECT_EQ(network.run_until_idle(), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_GT(clock.now(), before);
  EXPECT_EQ(network.pending(), 0u);
}

TEST(Network, FifoBetweenSamePairWithoutJitter) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  std::vector<std::string> topics;
  b->set_handler([&](const Message& m) { topics.push_back(m.topic); });
  for (int i = 0; i < 5; ++i) a->send("b", numbered("m", i));
  network.run_until_idle();
  EXPECT_EQ(topics, (std::vector<std::string>{"m0", "m1", "m2", "m3", "m4"}));
}

TEST(Network, DropRateLosesMessages) {
  SimClock clock;
  NetworkConfig config = quiet_config();
  config.drop_rate = 0.5;
  config.seed = 7;
  Network network(clock, config);
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  int received = 0;
  b->set_handler([&](const Message&) { ++received; });
  for (int i = 0; i < 200; ++i) a->send("b", "m");
  network.run_until_idle();
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.sent, 200u);
  EXPECT_EQ(stats.delivered + stats.dropped, 200u);
  // With p=0.5 and n=200, both counts are overwhelmingly within [60,140].
  EXPECT_GT(stats.dropped, 60u);
  EXPECT_LT(stats.dropped, 140u);
  EXPECT_EQ(static_cast<std::uint64_t>(received), stats.delivered);
}

TEST(Network, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](std::uint32_t seed) {
    SimClock clock;
    NetworkConfig config;
    config.jitter = std::chrono::microseconds(300);
    config.drop_rate = 0.2;
    config.seed = seed;
    Network network(clock, config);
    auto a = network.create_endpoint("a").value();
    (void)network.create_endpoint("b");
    std::vector<std::uint64_t> order;
    network.find_endpoint("b")->set_handler(
        [&](const Message& m) { order.push_back(m.id % 1000); });
    for (int i = 0; i < 50; ++i) a->send("b", numbered("m", i));
    network.run_until_idle();
    return std::pair(order.size(), network.stats().dropped);
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // different seed, different trace (w.h.p.)
}

TEST(Network, LinkDownBlocksInFlightTraffic) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  (void)network.create_endpoint("b");
  int received = 0;
  network.find_endpoint("b")->set_handler([&](const Message&) { ++received; });
  a->send("b", "m1");
  network.set_link_down("a", "b", true);  // goes down after send
  network.run_until_idle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().blocked, 1u);
  network.set_link_down("a", "b", false);
  a->send("b", "m2");
  network.run_until_idle();
  EXPECT_EQ(received, 1);
}

TEST(Network, LinkDownIsBidirectional) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  int received = 0;
  a->set_handler([&](const Message&) { ++received; });
  network.set_link_down("a", "b", true);
  b->send("a", "m");
  network.run_until_idle();
  EXPECT_EQ(received, 0);
}

TEST(Network, PartitionSplitsGroups) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  auto c = network.create_endpoint("c").value();
  std::vector<std::string> delivered;
  auto handler = [&](const Message& m) { delivered.push_back(m.to); };
  a->set_handler(handler);
  b->set_handler(handler);
  c->set_handler(handler);
  network.set_partition({"a", "b"});
  a->send("b", "in-group");   // same side: delivered
  a->send("c", "cross");      // crosses partition: blocked
  c->send("a", "cross-back"); // crosses partition: blocked
  network.run_until_idle();
  EXPECT_EQ(delivered, std::vector<std::string>{"b"});
  network.clear_partition();
  a->send("c", "healed");
  network.run_until_idle();
  EXPECT_EQ(delivered.size(), 2u);
}

TEST(Network, UndeliverableCountsWhenNoHandlerOrEndpoint) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  network.create_endpoint("b");  // no handler installed
  a->send("b", "m");
  a->send("ghost", "m");
  network.run_until_idle();
  EXPECT_EQ(network.stats().undeliverable, 2u);
}

TEST(Network, SendFromUnknownEndpointRejected) {
  SimClock clock;
  Network network(clock, quiet_config());
  EXPECT_EQ(network.send("ghost", "b", "m", {}).code(), ErrorCode::kNotFound);
}

// TSan regression (PR 5): two endpoints firing concurrently while a
// third thread drives delivery and a fourth flaps a link and reads
// stats. Before the Network grew its internal mutex this raced on the
// queue, the RNG, the link set and the stats struct.
TEST(Network, ConcurrentSendersAndDeliveryAreRaceFree) {
  SimClock clock;
  NetworkConfig config = quiet_config();
  config.jitter = std::chrono::microseconds(50);  // exercise the RNG
  Network network(clock, config);
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  (void)network.create_endpoint("sink");
  std::atomic<std::uint64_t> received{0};
  network.find_endpoint("sink")->set_handler(
      [&](const Message&) { received.fetch_add(1, std::memory_order_relaxed); });

  constexpr int kPerSender = 500;
  std::thread sender_a([&] {
    for (int i = 0; i < kPerSender; ++i) a->send("sink", "from-a");
  });
  std::thread sender_b([&] {
    for (int i = 0; i < kPerSender; ++i) b->send("sink", "from-b");
  });
  std::thread chaos([&] {
    for (int i = 0; i < 50; ++i) {
      network.set_link_down("a", "sink", i % 2 == 0);
      (void)network.stats();
      (void)network.pending();
    }
    network.set_link_down("a", "sink", false);
  });
  std::thread driver([&] {
    for (int i = 0; i < 200; ++i) {
      clock.advance(std::chrono::microseconds(10));
      network.deliver_due();
    }
  });
  sender_a.join();
  sender_b.join();
  chaos.join();
  driver.join();
  network.run_until_idle();

  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.sent, 2u * kPerSender);
  // Every message is accounted for exactly once; "blocked" depends on
  // how deliveries interleave with the link flapping.
  EXPECT_EQ(stats.delivered + stats.blocked, stats.sent);
  EXPECT_EQ(received.load(), stats.delivered);
  EXPECT_EQ(network.pending(), 0u);
}

// PR-7 lifecycle regressions ------------------------------------------------

// A same-tick reentrant sender (zero latency: every reply is due at the
// delivery tick it was triggered on) must not spin run_until_idle
// forever: the cap bounds the whole pass, including reentrant messages
// drained within one deliver_due sweep.
TEST(Network, RunUntilIdleTerminatesOnSameTickPingPong) {
  SimClock clock;
  NetworkConfig config;
  config.base_latency = Duration(0);
  config.jitter = Duration(0);
  Network network(clock, config);
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  int volleys = 0;
  a->set_handler([&](const Message&) {
    ++volleys;
    a->send("b", "ping");
  });
  b->set_handler([&](const Message&) {
    ++volleys;
    b->send("a", "pong");
  });
  a->send("b", "serve");
  EXPECT_EQ(network.run_until_idle(/*max_messages=*/50), 50u);
  EXPECT_EQ(volleys, 50);
  // The rally is still alive — the cap ended it, not message exhaustion.
  EXPECT_GT(network.pending(), 0u);
}

TEST(Network, LinkDownPairIsNormalized) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  (void)network.create_endpoint("b");
  int received = 0;
  network.find_endpoint("b")->set_handler([&](const Message&) { ++received; });
  // Downed as (b, a), sent as a→b: the same undirected link.
  network.set_link_down("b", "a", true);
  a->send("b", "m");
  network.run_until_idle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().blocked, 1u);
  // Restored with the argument order flipped again.
  network.set_link_down("a", "b", false);
  a->send("b", "m");
  network.run_until_idle();
  EXPECT_EQ(received, 1);
}

// A handle taken before remove_endpoint() stays safe to use afterwards:
// the endpoint survives as a detached shell whose send() reports
// kUnavailable instead of dereferencing the registry's freed entry.
TEST(Network, SendAfterRemoveEndpointReturnsUnavailable) {
  SimClock clock;
  Network network(clock, quiet_config());
  (void)network.create_endpoint("a");
  (void)network.create_endpoint("b");
  std::shared_ptr<Endpoint> handle = network.endpoint_handle("a");
  ASSERT_NE(handle, nullptr);
  EXPECT_FALSE(handle->detached());
  ASSERT_TRUE(network.remove_endpoint("a").ok());
  EXPECT_TRUE(handle->detached());
  EXPECT_EQ(handle->send("b", "m").code(), ErrorCode::kUnavailable);
  EXPECT_EQ(network.endpoint_handle("a"), nullptr);
}

// Same contract when the whole Network goes away first: destruction
// detaches every endpoint, so a surviving handle fails soft.
TEST(Network, SendAfterNetworkDestroyedReturnsUnavailable) {
  SimClock clock;
  std::shared_ptr<Endpoint> handle;
  {
    Network network(clock, quiet_config());
    (void)network.create_endpoint("a");
    handle = network.endpoint_handle("a");
    ASSERT_NE(handle, nullptr);
  }
  EXPECT_TRUE(handle->detached());
  EXPECT_EQ(handle->send("anyone", "m").code(), ErrorCode::kUnavailable);
}

// Messages still queued to an endpoint at its removal count as
// undeliverable at their delivery time instead of silently vanishing
// from the ledger (or worse, reaching a destroyed handler).
TEST(Network, QueuedMessagesToRemovedEndpointCountUndeliverable) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  (void)network.create_endpoint("b");
  int received = 0;
  network.find_endpoint("b")->set_handler([&](const Message&) { ++received; });
  a->send("b", "m1");
  a->send("b", "m2");
  ASSERT_TRUE(network.remove_endpoint("b").ok());
  network.run_until_idle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().undeliverable, 2u);
}

// TSan regression (PR 7): remove_endpoint() racing in-flight delivery.
// The delivering thread pins the target endpoint for the duration of its
// handler, so removal defers destruction until the delivery settles;
// before the fix this was a use-after-free of the Endpoint (and its
// handler state) under load.
TEST(Network, RemoveEndpointDuringDeliveryIsRaceFree) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto sender = network.create_endpoint("sender").value();
  (void)network.create_endpoint("victim");
  std::atomic<std::uint64_t> handled{0};
  network.find_endpoint("victim")->set_handler([&](const Message&) {
    handled.fetch_add(1, std::memory_order_relaxed);
    // Hold the delivery open long enough for removal to overlap it.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  });

  constexpr int kMessages = 400;
  for (int i = 0; i < kMessages; ++i) sender->send("victim", "m");

  std::thread driver([&] {
    for (int i = 0; i < kMessages; ++i) {
      clock.advance(std::chrono::microseconds(10));
      network.deliver_due();
    }
  });
  std::thread remover([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    EXPECT_TRUE(network.remove_endpoint("victim").ok());
  });
  driver.join();
  remover.join();
  network.run_until_idle();

  // Every message is accounted for: delivered before the removal, or
  // undeliverable after it — none lost, none crashed.
  const NetworkStats stats = network.stats();
  EXPECT_EQ(stats.sent, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(stats.delivered + stats.undeliverable,
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(handled.load(), stats.delivered);
  EXPECT_EQ(network.pending(), 0u);
}


// A handler may replace itself while it runs: the delivery finishes on the
// handler it snapshotted (whose captured state stays alive until it
// returns), and the next message reaches the replacement.
TEST(Network, HandlerReplacingItselfFinishesOnItsSnapshot) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  std::vector<std::string> seen;
  const std::string label = "first handler, long enough to live on the heap";
  b->set_handler([&seen, b, label](const Message& m) {
    b->set_handler(
        [&seen](const Message& next) { seen.push_back("second:" + next.topic); });
    seen.push_back(label + ":" + m.topic);  // reads its own captured state
  });
  a->send("b", "m1");
  a->send("b", "m2");
  EXPECT_EQ(network.run_until_idle(), 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{label + ":m1", "second:m2"}));
}

// The handler is looked up at delivery time, not at send time: a message
// already queued when its handler is replaced reaches the new handler.
TEST(Network, QueuedMessageReachesReplacementHandler) {
  SimClock clock;
  Network network(clock, quiet_config());
  auto a = network.create_endpoint("a").value();
  auto b = network.create_endpoint("b").value();
  int first = 0;
  int second = 0;
  b->set_handler([&](const Message&) { ++first; });
  a->send("b", "m");
  b->set_handler([&](const Message&) { ++second; });
  EXPECT_EQ(network.run_until_idle(), 1u);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// Delivery order is exactly (deliver_at, seq): several senders, jitter,
// and handlers that fan out reentrantly — with zero base latency, a zero
// jitter draw makes a reply due on the tick that sent it. The reference
// replays the network's one jitter draw per send from the same seed and
// sorts the send log.
TEST(Network, DeliveryOrderIsDeliverAtThenSequence) {
  SimClock clock;
  NetworkConfig config;
  config.base_latency = Duration(0);
  config.jitter = Duration(3);
  config.seed = 5;
  Network network(clock, config);
  std::mt19937 reference(config.seed);
  struct Sent {
    TimePoint deliver_at;
    std::size_t seq;
  };
  std::vector<Sent> log;
  std::size_t same_tick = 0;
  auto send = [&](Endpoint* from, const std::string& to, std::int64_t hops) {
    std::uniform_int_distribution<std::int64_t> draw(0, config.jitter.count());
    const Duration latency = config.base_latency + Duration(draw(reference));
    if (latency.count() == 0) ++same_tick;
    log.push_back({clock.now() + latency, log.size()});
    EXPECT_TRUE(
        from->send(to, numbered("m", static_cast<std::int64_t>(log.back().seq)),
                   model::Value(hops))
            .ok());
  };
  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<Endpoint*> nodes;
  for (const std::string& name : names) {
    nodes.push_back(network.create_endpoint(name).value());
  }
  std::vector<std::size_t> delivered;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->set_handler([&, i](const Message& m) {
      delivered.push_back(std::stoul(m.topic.substr(1)));
      const std::int64_t hops = m.payload.as_int();
      if (hops == 0) return;
      send(nodes[i], names[(i + 1) % 3], hops - 1);
      send(nodes[i], names[(i + 2) % 3], hops - 1);
    });
  }
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      send(nodes[i], names[(i + 1) % 3], 3);
    }
  }
  network.run_until_idle();

  std::vector<Sent> expected = log;
  std::sort(expected.begin(), expected.end(), [](const Sent& x, const Sent& y) {
    return std::tie(x.deliver_at, x.seq) < std::tie(y.deliver_at, y.seq);
  });
  std::vector<std::size_t> expected_order;
  for (const Sent& sent : expected) expected_order.push_back(sent.seq);
  ASSERT_EQ(log.size(), 12u * (1 + 2 + 4 + 8));
  EXPECT_EQ(delivered, expected_order);
  EXPECT_GT(same_tick, 0u);
}

}  // namespace
}  // namespace mdsm::net
