// Allocation pin for the simulated network's message path. It replaces
// the global operator new to count heap allocations, so it is its own
// binary rather than a case in a shared test program.
//
// A warmed 24-party media retune is one offer/answer round: 23 offers and
// 23 answers. A message lives in a queue slot whose strings keep their
// capacity, so once warmed only the handshake's offer topic
// ("offer.retune.voice", longer than the small-string buffer) allocates;
// queueing, delivery, the answers and the handler calls allocate nothing.
//
// The same binary pins the executor's stage hop, the platform's message
// between layers on the staged path: a warmed hop allocates only for its
// closure.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/strings.hpp"
#include "domains/comm/comm_services.hpp"
#include "runtime/executor.hpp"

namespace {
std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
}  // namespace

// The replacements are never inlined: GCC would otherwise see free() or
// operator delete meet a pointer from malloc() at an inlined call site and
// warn of a mismatched pair. The nothrow forms (std::stable_sort's buffer)
// are replaced too, so that every form meets the replaced delete.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* memory = operator new(size, std::nothrow)) return memory;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory,
                                       const std::nothrow_t&) noexcept {
  std::free(memory);
}

namespace mdsm::comm {
namespace {

TEST(NetworkAllocations, WarmedConferenceRetuneAllocatesOncePerMessage) {
  SimClock clock;
  net::Network network(clock);
  CommSessionService service(network);
  ASSERT_TRUE(service.create_session("conf").ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(service.add_party("conf", numbered("p", i)).ok());
  }
  ASSERT_TRUE(service.open_stream("conf", "voice", "audio", "standard", true)
                  .ok());
  ASSERT_TRUE(service.retune_stream("conf", "voice", "low").ok());  // warm

  const std::uint64_t delivered_before = network.stats().delivered;
  allocations = 0;
  counting = true;
  const Status status = service.retune_stream("conf", "voice", "high");
  counting = false;
  ASSERT_TRUE(status.ok());
  const std::uint64_t messages = network.stats().delivered - delivered_before;
  EXPECT_EQ(messages, 46u);
  EXPECT_LE(allocations.load(), messages);
}

// The same round, pinned to what is left: the handshake builds its offer
// topic once and every message reuses a warmed slot.
TEST(NetworkAllocations, WarmedConferenceRetuneAllocatesOncePerHandshake) {
  SimClock clock;
  net::Network network(clock);
  CommSessionService service(network);
  ASSERT_TRUE(service.create_session("conf").ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(service.add_party("conf", numbered("p", i)).ok());
  }
  ASSERT_TRUE(service.open_stream("conf", "voice", "audio", "standard", true)
                  .ok());
  ASSERT_TRUE(service.retune_stream("conf", "voice", "low").ok());  // warm

  const std::uint64_t delivered_before = network.stats().delivered;
  allocations = 0;
  counting = true;
  const Status status = service.retune_stream("conf", "voice", "high");
  counting = false;
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(network.stats().delivered - delivered_before, 46u);
  EXPECT_LE(allocations.load(), 2u);
}

}  // namespace
}  // namespace mdsm::comm

namespace mdsm::runtime {
namespace {

/// One continuation hop on `stage`; it submits the next until `left`
/// runs out. The closure (a reference, an index and a shared_ptr, like
/// the platform's [this, request] hops) is past std::function's local
/// buffer, so it is the hop's one allocation.
void hop(Executor& executor, std::uint32_t stage,
         std::shared_ptr<int> left) {
  if (--*left <= 0) return;
  ASSERT_TRUE(executor
                  .submit({.run = [&executor, stage, left] {
                             hop(executor, stage, left);
                           },
                           .continuation = true,
                           .stage = stage})
                  .ok());
}

TEST(ExecutorAllocations, WarmedStageHopAllocatesOnlyItsClosure) {
  obs::MetricsRegistry metrics;
  Executor executor(ExecutorConfig{.thread_count = 1}, metrics);
  const std::uint32_t stage = executor.add_stage("hop");
  constexpr int kHops = 1'000;
  hop(executor, stage, std::make_shared<int>(kHops + 1));  // warm
  executor.drain();

  auto left = std::make_shared<int>(kHops + 1);
  allocations = 0;
  counting = true;
  hop(executor, stage, left);
  executor.drain();
  counting = false;
  ASSERT_EQ(*left, 0);
  EXPECT_EQ(executor.stage_stats()[0].entered, 2u * kHops);
  // One closure per hop plus the queue's deque blocks (one per six
  // tasks); a wrapper that re-boxes the closure costs two more per hop.
  std::printf("allocations per warmed stage hop: %.2f\n",
              static_cast<double>(allocations.load()) / kHops);
  EXPECT_LE(allocations.load(), kHops * 5 / 4);
}

}  // namespace
}  // namespace mdsm::runtime
