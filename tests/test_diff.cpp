// Tests for model comparison (the Synthesis layer's model comparator).
#include <gtest/gtest.h>

#include <random>

#include "common/strings.hpp"
#include "model/diff.hpp"
#include "model_fixtures.hpp"

namespace mdsm::model {
namespace {

using testing::make_test_metamodel;
using testing::make_test_model;

TEST(Diff, IdenticalModelsProduceNoChanges) {
  MetamodelPtr mm = make_test_metamodel();
  Model a = make_test_model(mm);
  Model b = a.clone();
  EXPECT_TRUE(diff(a, b).empty());
}

TEST(Diff, EmptyToModelIsAllAdds) {
  MetamodelPtr mm = make_test_metamodel();
  Model empty("empty", mm);
  Model full = make_test_model(mm);
  ChangeList changes = diff(empty, full);
  int adds = 0;
  for (const Change& c : changes) {
    EXPECT_NE(c.kind, ChangeKind::kRemoveObject);
    if (c.kind == ChangeKind::kAddObject) ++adds;
  }
  EXPECT_EQ(adds, 4);
  // Parents appear before their children.
  auto index_of = [&](std::string_view id) {
    for (std::size_t i = 0; i < changes.size(); ++i) {
      if (changes[i].kind == ChangeKind::kAddObject &&
          changes[i].object_id == id) {
        return i;
      }
    }
    return changes.size();
  };
  EXPECT_LT(index_of("s1"), index_of("alice"));
  EXPECT_LT(index_of("s1"), index_of("cam"));
}

TEST(Diff, AddObjectCarriesContainmentContextAndState) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  after.create_child("s1", "participants", "Participant", "carol");
  after.set_attribute("carol", "address", Value("carol@host"));
  ChangeList changes = diff(before, after);
  ASSERT_GE(changes.size(), 2u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kAddObject);
  EXPECT_EQ(changes[0].object_id, "carol");
  EXPECT_EQ(changes[0].class_name, "Participant");
  EXPECT_EQ(changes[0].parent_id, "s1");
  EXPECT_EQ(changes[0].containment, "participants");
  // The new object's attribute state follows as SetAttribute changes.
  bool saw_address = false;
  for (const Change& c : changes) {
    if (c.kind == ChangeKind::kSetAttribute && c.object_id == "carol" &&
        c.feature == "address") {
      saw_address = true;
      EXPECT_EQ(c.new_value, Value("carol@host"));
      EXPECT_TRUE(c.old_value.is_none());
    }
  }
  EXPECT_TRUE(saw_address);
}

TEST(Diff, RemovalsComeChildrenFirst) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after("after", mm);  // everything removed
  ChangeList changes = diff(before, after);
  ASSERT_EQ(changes.size(), 4u);
  for (const Change& c : changes) {
    EXPECT_EQ(c.kind, ChangeKind::kRemoveObject);
  }
  // s1 (the parent) must be last.
  EXPECT_EQ(changes.back().object_id, "s1");
}

TEST(Diff, AttributeChangeCarriesOldAndNew) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  after.set_attribute("s1", "state", Value("closed"));
  ChangeList changes = diff(before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kSetAttribute);
  EXPECT_EQ(changes[0].feature, "state");
  EXPECT_EQ(changes[0].old_value, Value("open"));
  EXPECT_EQ(changes[0].new_value, Value("closed"));
}

TEST(Diff, UnsetAttributeShowsAsNoneNewValue) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  after.unset_attribute("s1", "bandwidth");
  ChangeList changes = diff(before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].old_value, Value(2.5));
  EXPECT_TRUE(changes[0].new_value.is_none());
}

TEST(Diff, ReferenceRetarget) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  after.add_reference("s1", "initiator", "bob");  // replaces alice
  ChangeList changes = diff(before, after);
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kRemoveReference);
  EXPECT_EQ(changes[0].target_id, "alice");
  EXPECT_EQ(changes[1].kind, ChangeKind::kAddReference);
  EXPECT_EQ(changes[1].target_id, "bob");
}

TEST(Diff, ContainmentIsNotReportedAsReferenceChange) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  after.remove("bob");
  ChangeList changes = diff(before, after);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, ChangeKind::kRemoveObject);
  EXPECT_EQ(changes[0].object_id, "bob");
}

// An id that keeps its name but changes class is diffed feature by
// feature name: the shared `label` is compared, the old class's slots
// read as cleared and the new class's as set, each run in name order.
TEST(Diff, ClassChangeUnderOneIdIsDiffedByFeatureName) {
  MetamodelPtr mm = make_test_metamodel();
  Model before("before", mm);
  ASSERT_TRUE(before.create("Session", "s1").ok());
  ASSERT_TRUE(before.create_child("s1", "media", "Media", "x").ok());
  ASSERT_TRUE(before.set_attribute("x", "kind", Value("video")).ok());
  ASSERT_TRUE(before.set_attribute("x", "live", Value(true)).ok());
  ASSERT_TRUE(before.set_attribute("x", "label", Value("old")).ok());
  Model after("after", mm);
  ASSERT_TRUE(after.create("Session", "s1").ok());
  ASSERT_TRUE(
      after.create_child("s1", "participants", "Participant", "x").ok());
  ASSERT_TRUE(after.set_attribute("x", "address", Value("x@host")).ok());
  ASSERT_TRUE(after.set_attribute("x", "priority", Value(2)).ok());
  ASSERT_TRUE(after.set_attribute("x", "label", Value("new")).ok());
  EXPECT_EQ(summarize(diff(before, after)),
            "5 change(s)\n"
            "  set-attribute x.kind \"video\" => none\n"
            "  set-attribute x.label \"old\" => \"new\"\n"
            "  set-attribute x.live true => none\n"
            "  set-attribute x.address none => \"x@host\"\n"
            "  set-attribute x.priority none => 2");
}

TEST(Diff, SummarizeAndToText) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  after.set_attribute("s1", "state", Value("closed"));
  ChangeList changes = diff(before, after);
  std::string summary = summarize(changes);
  EXPECT_NE(summary.find("1 change(s)"), std::string::npos);
  EXPECT_NE(summary.find("set-attribute s1.state"), std::string::npos);
}

// Property: applying a random sequence of edits and diffing against the
// original yields a change list whose add/remove counts match the object
// count delta, and diff(m, m) is empty for every intermediate state.
class DiffPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DiffPropertyTest, ObjectCountDeltaMatchesAddRemoveBalance) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> op(0, 3);
  int created = 0;
  for (int step = 0; step < 20; ++step) {
    switch (op(rng)) {
      case 0: {  // add participant
        std::string id = numbered("gen", ++created) + "x" +
                         std::to_string(GetParam());
        if (after.contains("s1")) {
          after.create_child("s1", "participants", "Participant", id);
          after.set_attribute(id, "address", Value(id + "@host"));
        }
        break;
      }
      case 1: {  // mutate an attribute
        if (after.contains("s1")) {
          after.set_attribute("s1", "bandwidth",
                              Value(static_cast<double>(step)));
        }
        break;
      }
      case 2: {  // remove some leaf participant if any
        auto participants = after.objects_of("Participant");
        if (!participants.empty()) {
          after.remove(participants.front()->id());
        }
        break;
      }
      case 3: {  // toggle a tag list
        if (after.contains("s1")) {
          after.set_attribute(
              "s1", "tags",
              Value(ValueList{Value(numbered("t", step))}));
        }
        break;
      }
    }
    // Self-diff must always be empty.
    EXPECT_TRUE(diff(after, after).empty());
  }
  ChangeList changes = diff(before, after);
  int adds = 0;
  int removes = 0;
  for (const Change& c : changes) {
    if (c.kind == ChangeKind::kAddObject) ++adds;
    if (c.kind == ChangeKind::kRemoveObject) ++removes;
  }
  EXPECT_EQ(static_cast<int>(after.size()) - static_cast<int>(before.size()),
            adds - removes);
  EXPECT_TRUE(after.validate().ok());
}

// ---- wire form (PR 8): the cluster's replication payload -------------------

TEST(DiffWire, EveryChangeKindRoundTrips) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  // One edit script covering adds (with containment context), attribute
  // sets, reference retargets and removals.
  after.create_child("s1", "participants", "Participant", "carol");
  after.set_attribute("carol", "address", Value("carol@host"));
  after.set_attribute("s1", "state", Value("closed"));
  after.add_reference("s1", "initiator", "bob");
  after.remove("cam");
  const ChangeList changes = diff(before, after);
  ASSERT_FALSE(changes.empty());

  auto decoded = decode_changes(encode_changes(changes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().size(), changes.size());
  for (std::size_t i = 0; i < changes.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].kind, changes[i].kind) << i;
    EXPECT_EQ(decoded.value()[i].object_id, changes[i].object_id) << i;
    EXPECT_EQ(decoded.value()[i].class_name, changes[i].class_name) << i;
    EXPECT_EQ(decoded.value()[i].feature, changes[i].feature) << i;
    EXPECT_EQ(decoded.value()[i].old_value, changes[i].old_value) << i;
    EXPECT_EQ(decoded.value()[i].new_value, changes[i].new_value) << i;
    EXPECT_EQ(decoded.value()[i].target_id, changes[i].target_id) << i;
    EXPECT_EQ(decoded.value()[i].parent_id, changes[i].parent_id) << i;
    EXPECT_EQ(decoded.value()[i].containment, changes[i].containment) << i;
  }

  // The decoded list is as applicable as the original.
  Model replica = before.clone();
  ASSERT_TRUE(model::apply(decoded.value(), replica).ok());
  EXPECT_TRUE(diff(replica, after).empty());
}

TEST(DiffWire, DecodeRejectsMalformedPayloads) {
  // Not a list at all.
  EXPECT_FALSE(decode_changes(Value("garbage")).ok());
  EXPECT_FALSE(decode_changes(Value(7.0)).ok());
  // A non-list element.
  EXPECT_FALSE(decode_changes(Value(ValueList{Value(1.0)})).ok());
  // Wrong slot count.
  EXPECT_FALSE(
      decode_changes(Value(ValueList{Value(ValueList{Value("short")})})).ok());
  // A valid 9-slot shape with an out-of-range kind.
  ValueList slots(9, Value(std::string{}));
  slots[0] = Value(std::int64_t{99});
  EXPECT_FALSE(decode_changes(Value(ValueList{Value(slots)})).ok());
  // A non-string object id.
  slots[0] = Value(std::int64_t{0});
  slots[1] = Value(3.5);
  EXPECT_FALSE(decode_changes(Value(ValueList{Value(slots)})).ok());
  // The empty change list is legal.
  EXPECT_TRUE(decode_changes(Value(ValueList{})).ok());
}

// Property: whatever edit script the fuzz loop produced, its diff
// survives encode/decode byte-identically in effect — applying the
// decoded list to a clone of `before` reproduces `after`.
TEST_P(DiffPropertyTest, EncodedChangeListsSurviveTheWire) {
  MetamodelPtr mm = make_test_metamodel();
  Model before = make_test_model(mm);
  Model after = before.clone();
  std::mt19937 rng(GetParam() * 7919u);
  std::uniform_int_distribution<int> op(0, 3);
  int created = 0;
  for (int step = 0; step < 20; ++step) {
    switch (op(rng)) {
      case 0: {
        std::string id = numbered("wire", ++created) + "x" +
                         std::to_string(GetParam());
        if (after.contains("s1")) {
          after.create_child("s1", "participants", "Participant", id);
          after.set_attribute(id, "address", Value(id + "@host"));
        }
        break;
      }
      case 1: {
        if (after.contains("s1")) {
          after.set_attribute("s1", "bandwidth",
                              Value(static_cast<double>(step) + 0.25));
        }
        break;
      }
      case 2: {
        auto participants = after.objects_of("Participant");
        if (!participants.empty()) {
          after.remove(participants.front()->id());
        }
        break;
      }
      case 3: {
        if (after.contains("s1")) {
          after.set_attribute(
              "s1", "tags",
              Value(ValueList{Value(numbered("t", step)),
                              Value(static_cast<std::int64_t>(step))}));
        }
        break;
      }
    }
  }
  const ChangeList changes = diff(before, after);
  auto decoded = decode_changes(encode_changes(changes));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  Model replica = before.clone();
  const auto applied = model::apply(decoded.value(), replica);
  ASSERT_TRUE(applied.ok()) << applied.to_string();
  EXPECT_TRUE(diff(replica, after).empty());
  EXPECT_TRUE(replica.validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace mdsm::model
