// Allocation pins for the model layer. Like test_net_alloc, it replaces
// the global operator new to count heap allocations, so it is its own
// binary rather than a case in a shared test program.
//
// The model text is the 24-party conference of perfbench's
// conference_edits workload: one Connection with 24 Participants and two
// Media. A model keeps its objects and their slots in one chunked store,
// so a parse allocates a few times per model, not a few times per object.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/strings.hpp"
#include "domains/comm/cvm.hpp"
#include "model/text_format.hpp"

namespace {
std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
}  // namespace

// The replacements are never inlined: GCC would otherwise see free() or
// operator delete meet a pointer from malloc() at an inlined call site and
// warn of a mismatched pair. The nothrow form (std::stable_sort's buffer)
// is replaced too, so that every form meets the replaced delete.
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

namespace mdsm::comm {
namespace {

/// The conference with both media at `voice` and `cam` quality.
std::string conference_text(const char* voice, const char* cam) {
  std::string out =
      "model conf conforms cml\nobject Connection conf {\n"
      "  state = active\n  topology = conference\n";
  for (int i = 0; i < 24; ++i) {
    const std::string id = numbered("p", i);
    out += "  child participants Participant " + id + " { address = \"" + id +
           "\" }\n";
  }
  out += "  child media Medium voice { kind = audio quality = ";
  out += voice;
  out += " }\n  child media Medium cam { kind = video quality = ";
  out += cam;
  out += " }\n}\n";
  return out;
}

TEST(ModelAllocations, ConferenceParseAllocatesPerModelNotPerObject) {
  const std::string text = conference_text("standard", "standard");
  const model::MetamodelPtr cml = cml_metamodel();
  ASSERT_TRUE(model::parse_model(text, cml).ok());  // warm statics
  allocations = 0;
  counting = true;
  Result<model::Model> parsed = model::parse_model(text, cml);
  counting = false;
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().size(), 27u);
  std::printf("allocations per conference parse: %zu\n", allocations.load());
  EXPECT_LE(allocations.load(), 25u);
}

TEST(ModelAllocations, WarmedConferenceRetuneSubmit) {
  Result<std::unique_ptr<Cvm>> cvm = make_cvm();
  ASSERT_TRUE(cvm.ok()) << cvm.status().to_string();
  core::Platform& platform = *cvm.value()->platform;
  ASSERT_TRUE(
      platform.submit_model_text(conference_text("standard", "standard"))
          .ok());
  // Warm: the same single-medium retune shape, in both directions.
  ASSERT_TRUE(
      platform.submit_model_text(conference_text("low", "standard")).ok());
  ASSERT_TRUE(
      platform.submit_model_text(conference_text("standard", "standard"))
          .ok());
  const std::string text = conference_text("high", "standard");
  allocations = 0;
  counting = true;
  Result<controller::ControlScript> script = platform.submit_model_text(text);
  counting = false;
  ASSERT_TRUE(script.ok()) << script.status().to_string();
  // 46 of these are the offer/answer messages' topic strings, which
  // test_net_alloc pins on their own.
  std::printf("allocations per retune submit: %zu\n", allocations.load());
  EXPECT_LE(allocations.load(), 120u);
}

}  // namespace
}  // namespace mdsm::comm
