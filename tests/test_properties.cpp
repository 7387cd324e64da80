// Randomized property sweeps over the model facility and the weaver:
// serialize⇄parse round-trips, diff/apply inverse, weave identity — the
// algebraic invariants every layer of the platform silently relies on.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <random>

#include "common/strings.hpp"
#include "conference_fixture.hpp"
#include "core/middleware_metamodel.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "model_fixtures.hpp"
#include "soak_fixtures.hpp"
#include "synthesis/weaver.hpp"

namespace mdsm::model {
namespace {

using comm::testing::conference_text;
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

/// One seeded edit of a model text: an attribute changed, unset or set
/// twice, a cross-reference or child block cut, an id renamed, a class
/// swapped, the header renamed, or whitespace or a comment inserted.
/// The cuts, run backwards, are the additions.
std::string seeded_edit(const std::string& text, std::mt19937& rng) {
  auto all = [&](std::string_view needle) {
    std::vector<std::size_t> at;
    for (std::size_t i = text.find(needle); i != std::string::npos;
         i = text.find(needle, i + 1)) {
      at.push_back(i);
    }
    return at;
  };
  auto pick = [&](const std::vector<std::size_t>& at) {
    return at[std::uniform_int_distribution<std::size_t>(0, at.size() - 1)(
        rng)];
  };
  auto word_end = [&](std::size_t i) {
    if (text[i] == '"') return text.find('"', i + 1) + 1;
    return text.find_first_of(" \n}", i);
  };
  auto word_start = [&](std::size_t i) {
    return text.find_last_of(" \n{", i - 1) + 1;
  };
  std::string out = text;
  const std::vector<std::size_t> sets = all(" = ");
  const std::vector<std::size_t> refs = all(" -> ");
  const std::vector<std::size_t> children = all("child ");
  const std::vector<std::size_t> headers = all(" {");
  switch (rng() % 10) {
    case 0:  // attribute change, to a value seen elsewhere or a literal
      if (!sets.empty()) {
        const std::size_t at = pick(sets) + 3;
        const char* literals[] = {"open", "closed", "7", "2.5", "true",
                                  "\"s\"", "[\"t\"]", "none", "high"};
        std::string value;
        if (rng() % 2 == 0) {
          const std::size_t from = pick(sets) + 3;
          value = text.substr(from, word_end(from) - from);
        } else {
          value = literals[rng() % std::size(literals)];
        }
        out.replace(at, word_end(at) - at, value);
      }
      break;
    case 1:  // attribute unset
      if (!sets.empty()) {
        const std::size_t at = pick(sets);
        const std::size_t begin = word_start(at);
        out.erase(begin, word_end(at + 3) - begin);
      }
      break;
    case 2:  // attribute set twice
      if (!sets.empty()) {
        const std::size_t at = pick(sets);
        const std::size_t begin = word_start(at);
        out.insert(begin, text.substr(begin, word_end(at + 3) - begin) + " ");
      }
      break;
    case 3:  // cross-reference cut
      if (!refs.empty()) {
        const std::size_t begin = word_start(pick(refs));
        out.erase(begin, text.find_first_of("\n}", begin) - begin);
      }
      break;
    case 4:  // child block cut
      if (!children.empty()) {
        const std::size_t begin = pick(children);
        std::size_t end = text.find('{', begin);
        for (int depth = 0; end < text.size(); ++end) {
          if (text[end] == '{') ++depth;
          if (text[end] == '}' && --depth == 0) break;
        }
        out.erase(begin, end + 1 - begin);
      }
      break;
    case 5:  // id rename
      if (!headers.empty()) out.insert(pick(headers), "x");
      break;
    case 6:  // class swap: one header's class to another's
      if (headers.size() > 1) {
        auto class_at = [&](std::size_t header) {
          const std::size_t id = word_start(header);
          return word_start(id - 1);
        };
        const std::size_t to = class_at(pick(headers));
        const std::size_t from = class_at(pick(headers));
        out.replace(to, word_end(to) - to,
                    text.substr(from, word_end(from) - from));
      }
      break;
    case 7:  // header rename
      out.insert(text.find(" conforms"), "2");
      break;
    case 8:  // whitespace
      out.insert(rng() % text.size(), rng() % 2 == 0 ? " " : "\n ");
      break;
    default: {  // comment
      const std::vector<std::size_t> lines = all("\n");
      out.insert(pick(lines) + 1, "  # note\n");
    }
  }
  return out;
}

struct EditTally {
  int incremental = 0;
  int fallback = 0;
};

/// Read `to` as an edit of `from`: when the incremental path takes it,
/// its model, changes and spans must be the full parse's.
void expect_edit_equals_full_parse(const std::string& from,
                                   const std::string& to,
                                   const MetamodelPtr& mm, EditTally& tally) {
  ModelText base_text{from, {}};
  Result<Model> base = parse_model(from, mm, &base_text.spans);
  if (!base.ok()) return;
  std::optional<Edit> edit = read_edit(*base, base_text, to);
  if (!edit.has_value()) {
    ++tally.fallback;
    return;
  }
  ++tally.incremental;
  std::vector<ObjectSpan> spans;
  Result<Model> full = parse_model(to, mm, &spans);
  ASSERT_TRUE(full.ok()) << full.status().to_string() << "\n" << to;
  EXPECT_EQ(edit->changes, diff(*base, *full))
      << summarize(edit->changes) << " vs " << summarize(diff(*base, *full))
      << "\n" << from << "---\n" << to;
  EXPECT_EQ(serialize_model(edit->model), serialize_model(*full)) << to;
  EXPECT_EQ(edit->spans, spans) << to;
  ASSERT_EQ(edit->model.size(), full->size());
  for (std::size_t i = 0; i < full->size(); ++i) {
    EXPECT_EQ(edit->model.objects()[i]->id(), full->objects()[i]->id());
  }
}

// The incremental read of an edit is the full parse plus diff, byte for
// byte, over random models and the fixture texts, in both directions.
TEST_P(ModelProperty, IncrementalEditEqualsFullParseAndDiff) {
  MetamodelPtr mm = make_test_metamodel();
  const MetamodelPtr middleware = core::middleware_metamodel();
  const std::pair<std::string, MetamodelPtr> bases[] = {
      {serialize_model(random_model(mm, GetParam())), mm},
      {conference_text("standard", "low"), comm::cml_metamodel()},
      {std::string(comm::cvm_middleware_model_text()), middleware},
      {soak::open_session_text("x"), mm},
      {std::string(soak::kSoakMiddlewareModel), middleware},
  };
  std::mt19937 rng(GetParam());
  EditTally tally;
  for (const auto& [text, metamodel] : bases) {
    for (int i = 0; i < 60; ++i) {
      const std::string edited = seeded_edit(text, rng);
      expect_edit_equals_full_parse(text, edited, metamodel, tally);
      expect_edit_equals_full_parse(edited, text, metamodel, tally);
    }
  }
  expect_edit_equals_full_parse(conference_text("standard", "low"),
                                conference_text("high", "low"),
                                comm::cml_metamodel(), tally);
  EXPECT_GT(tally.incremental, 0);
  EXPECT_GT(tally.fallback, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperty,
                         ::testing::Range(1u, 16u));

}  // namespace
}  // namespace mdsm::model
