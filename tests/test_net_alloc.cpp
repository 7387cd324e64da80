// Allocation pin for the simulated network's message path. It replaces
// the global operator new to count heap allocations, so it is its own
// binary rather than a case in a shared test program.
//
// A warmed 24-party media retune is one offer/answer round: 23 offers and
// 23 answers. Each message may allocate once, for the topic string it
// owns ("offer.retune.voice" is longer than the small-string buffer);
// queueing, delivery and the handler call allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/strings.hpp"
#include "domains/comm/comm_services.hpp"

namespace {
std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
}  // namespace

// The replacements are never inlined: GCC would otherwise see free() or
// operator delete meet a pointer from malloc() at an inlined call site and
// warn of a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
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

}  // namespace
}  // namespace mdsm::comm
