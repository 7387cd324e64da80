// Randomized property sweeps over the model facility and the weaver:
// serialize⇄parse round-trips, diff/apply inverse, weave identity — the
// algebraic invariants every layer of the platform silently relies on.
#include <gtest/gtest.h>

#include <functional>
#include <random>

#include "common/strings.hpp"
#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "model_fixtures.hpp"
#include "synthesis/weaver.hpp"

namespace mdsm::model {
namespace {

using testing::make_test_metamodel;

/// Deterministic random model over the shared test metamodel.
Model random_model(const MetamodelPtr& mm, unsigned seed,
                   const std::string& prefix = "r") {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> sessions(1, 3);
  std::uniform_int_distribution<int> children(0, 4);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_real_distribution<double> bandwidth(0.0, 10.0);
  const char* states[] = {"idle", "open", "closed"};
  const char* kinds[] = {"audio", "video", "file"};
  Model model(numbered("rand", seed), mm);
  int uid = 0;
  int session_count = sessions(rng);
  for (int s = 0; s < session_count; ++s) {
    std::string sid = prefix + numbered("s", s);
    model.create("Session", sid);
    model.set_attribute(sid, "state", Value(states[seed % 3]));
    if (coin(rng) == 1) {
      model.set_attribute(sid, "bandwidth", Value(bandwidth(rng)));
    }
    if (coin(rng) == 1) {
      ValueList tags;
      for (int t = 0; t <= coin(rng); ++t) {
        tags.push_back(Value(numbered("tag", t)));
      }
      model.set_attribute(sid, "tags", Value(std::move(tags)));
    }
    int participant_count = children(rng);
    std::vector<std::string> participant_ids;
    for (int p = 0; p < participant_count; ++p) {
      std::string pid = prefix + numbered("p", uid++);
      model.create_child(sid, "participants", "Participant", pid);
      model.set_attribute(pid, "address", Value(pid + "@host"));
      if (coin(rng) == 1) {
        model.set_attribute(pid, "priority",
                            Value(static_cast<std::int64_t>(p)));
      }
      participant_ids.push_back(pid);
    }
    int media_count = children(rng) / 2;
    for (int m = 0; m < media_count; ++m) {
      std::string mid = prefix + numbered("m", uid++);
      const char* cls = coin(rng) == 1 ? "StreamMedia" : "Media";
      model.create_child(sid, "media", cls, mid);
      model.set_attribute(mid, "kind", Value(kinds[uid % 3]));
      if (coin(rng) == 1) model.set_attribute(mid, "live", Value(true));
    }
    if (!participant_ids.empty() && coin(rng) == 1) {
      model.add_reference(sid, "initiator", participant_ids.front());
    }
  }
  EXPECT_TRUE(model.validate().ok());
  return model;
}

class ModelProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ModelProperty, SerializeParseRoundTrip) {
  MetamodelPtr mm = make_test_metamodel();
  Model original = random_model(mm, GetParam());
  std::string text = serialize_model(original);
  auto reparsed = parse_model(text, mm);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string() << "\n" << text;
  EXPECT_TRUE(diff(original, *reparsed).empty()) << text;
  // Serialization is a fixed point.
  EXPECT_EQ(serialize_model(*reparsed), text);
}

TEST_P(ModelProperty, DiffApplyIsInverse) {
  MetamodelPtr mm = make_test_metamodel();
  Model a = random_model(mm, GetParam(), "a");
  Model b = random_model(mm, GetParam() * 31 + 7, "b");
  ChangeList forward = diff(a, b);
  Model replay = a.clone();
  Status applied = model::apply(forward, replay);
  ASSERT_TRUE(applied.ok()) << applied.to_string() << "\n"
                            << summarize(forward);
  EXPECT_TRUE(diff(replay, b).empty()) << summarize(diff(replay, b));
  // And the reverse direction.
  ChangeList backward = diff(b, a);
  Model back = b.clone();
  ASSERT_TRUE(model::apply(backward, back).ok());
  EXPECT_TRUE(diff(back, a).empty());
}

TEST_P(ModelProperty, DiffIsEmptyOnlyForEquivalentModels) {
  MetamodelPtr mm = make_test_metamodel();
  Model a = random_model(mm, GetParam(), "a");
  EXPECT_TRUE(diff(a, a).empty());
  Model mutated = a.clone();
  // Any mutation must surface in the diff.
  auto all_sessions = mutated.objects_of("Session");
  ASSERT_FALSE(all_sessions.empty());
  mutated.set_attribute(all_sessions[0]->id(), "label", Value("changed"));
  EXPECT_FALSE(diff(a, mutated).empty());
}

/// 64-bit FNV-1a: a fixed, platform-independent digest of a diff listing.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// summarize(diff(...)) over random pairs that share ids (so objects
/// survive, move between parents or change class) and over single-slot
/// edits of one model: set, unset, list-valued set, add and remove a
/// cross-reference, and all of them on one object at once.
std::string diff_listings(const MetamodelPtr& mm, unsigned seed) {
  Model a = random_model(mm, seed, "r");
  Model b = random_model(mm, seed * 31 + 7, "r");
  std::string out = summarize(diff(a, b)) + "\n" + summarize(diff(b, a));
  auto edited = [&](const std::function<void(Model&)>& edit) {
    Model copy = a.clone();
    edit(copy);
    out += '\n';
    out += summarize(diff(a, copy));
  };
  // Edit a session with participants where there is one, so that the
  // cross-reference edits have a target.
  std::string sid = a.objects_of("Session").front()->id();
  for (const ModelObject* candidate : a.objects_of("Session")) {
    if (!a.children(candidate->id(), "participants").empty()) {
      sid = candidate->id();
      break;
    }
  }
  const ModelObject* session = a.find(sid);
  const auto participants = a.children(sid, "participants");
  auto set = [&](Model& m) {
    EXPECT_TRUE(m.set_attribute(sid, "label", Value("changed")).ok());
    EXPECT_TRUE(m.set_attribute(sid, "state", Value("closed")).ok());
  };
  auto unset = [&](Model& m) {
    EXPECT_TRUE(m.unset_attribute(sid, "state").ok());
  };
  auto set_list = [&](Model& m) {
    EXPECT_TRUE(
        m.set_attribute(sid, "tags", Value(ValueList{"x", "y", "z"})).ok());
  };
  auto relink = [&](Model& m) {
    if (!session->targets("initiator").empty()) {
      EXPECT_TRUE(m.remove_reference(sid, "initiator",
                                     session->targets("initiator").front())
                      .ok());
    } else if (!participants.empty()) {
      EXPECT_TRUE(
          m.add_reference(sid, "initiator", participants.back()->id()).ok());
    }
  };
  edited(set);
  edited(unset);
  edited(set_list);
  edited(relink);
  edited([&](Model& m) {
    relink(m);
    set_list(m);
    unset(m);
    set(m);
    if (!participants.empty()) {
      EXPECT_TRUE(m.set_attribute(participants.front()->id(), "priority",
                                  Value(99))
                      .ok());
    }
  });
  return out;
}

// The change interpreter fires the first transition that matches, so the
// order of a ChangeList is part of its contract. These digests pin the
// listings the diff produced when they were first recorded.
TEST_P(ModelProperty, DiffOrderIsPinned) {
  static const std::uint64_t kExpected[] = {
      0x2c1ad0589ccf35e7ull, 0x7d1736dea3f88b25ull, 0xae63feeaa2c8abefull,
      0x7780e150572c1d38ull, 0xbdd237390a8180a8ull, 0x31e12da4443391d4ull,
      0xa01460620368f36eull, 0xcce1ef2724500c07ull, 0x11b27e61c0992287ull,
      0x16543e79a993effcull, 0xec8c347ded0218e5ull, 0x6c189328dc6e66daull,
      0x91a79f2ab45b07c3ull, 0xffd5d124941b07d3ull, 0x2ebd032a23b69e3aull,
  };
  MetamodelPtr mm = make_test_metamodel();
  const std::string listings = diff_listings(mm, GetParam());
  EXPECT_EQ(fnv1a(listings), kExpected[GetParam() - 1]) << listings;
}

TEST_P(ModelProperty, WeaveIdentityAndDisjointUnion) {
  MetamodelPtr mm = make_test_metamodel();
  Model a = random_model(mm, GetParam(), "a");
  // weave({a}) ≡ a
  auto identity = synthesis::weave({&a});
  ASSERT_TRUE(identity.ok()) << identity.status().to_string();
  EXPECT_TRUE(diff(a, *identity).empty());
  // Disjoint concerns (different id prefixes) weave to their union.
  Model b = random_model(mm, GetParam() + 1000, "b");
  auto unioned = synthesis::weave({&a, &b});
  ASSERT_TRUE(unioned.ok()) << unioned.status().to_string();
  EXPECT_EQ(unioned->size(), a.size() + b.size());
  EXPECT_TRUE(unioned->validate().ok());
}

TEST_P(ModelProperty, CloneIsDeepEquivalentAndIndependent) {
  MetamodelPtr mm = make_test_metamodel();
  Model a = random_model(mm, GetParam(), "a");
  Model copy = a.clone();
  EXPECT_TRUE(diff(a, copy).empty());
  auto roots = copy.roots();
  ASSERT_FALSE(roots.empty());
  copy.remove(roots[0]->id());
  EXPECT_FALSE(diff(a, copy).empty());
  EXPECT_TRUE(a.validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty,
                         ::testing::Range(1u, 16u));

}  // namespace
}  // namespace mdsm::model
