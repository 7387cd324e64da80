// Unit tests for the metamodeling facility: Value, Metamodel, Model.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "model/metamodel.hpp"
#include "model/model.hpp"
#include "model/text_format.hpp"
#include "model_fixtures.hpp"

namespace mdsm::model {
namespace {

using testing::make_test_metamodel;
using testing::make_test_model;

// ---------------------------------------------------------------- Value

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_none());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(7).is_int());
  EXPECT_TRUE(Value(3.5).is_real());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(ValueList{Value(1)}).is_list());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(3.5).as_real(), 3.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_DOUBLE_EQ(Value(7).as_number(), 7.0);
  EXPECT_TRUE(Value(7).is_number());
  EXPECT_TRUE(Value(7.0).is_number());
  EXPECT_FALSE(Value("7").is_number());
}

TEST(Value, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(1.0));  // kinds differ
  EXPECT_NE(Value(1), Value(2));
  EXPECT_EQ(Value(ValueList{Value("a")}), Value(ValueList{Value("a")}));
  EXPECT_EQ(Value(), Value());
}

TEST(Value, TextForm) {
  EXPECT_EQ(Value().to_text(), "none");
  EXPECT_EQ(Value(true).to_text(), "true");
  EXPECT_EQ(Value(false).to_text(), "false");
  EXPECT_EQ(Value(42).to_text(), "42");
  EXPECT_EQ(Value(2.5).to_text(), "2.5");
  EXPECT_EQ(Value(2.0).to_text(), "2.0");  // real marker preserved
  EXPECT_EQ(Value("a\"b").to_text(), "\"a\\\"b\"");
  EXPECT_EQ(Value(ValueList{Value(1), Value("x")}).to_text(), "[1, \"x\"]");
}

// ------------------------------------------------------------ Metamodel

TEST(Metamodel, FinalizeAcceptsValidStructure) {
  MetamodelPtr mm = make_test_metamodel();
  EXPECT_TRUE(mm->finalized());
  EXPECT_NE(mm->find_class("Session"), nullptr);
  EXPECT_EQ(mm->find_class("Nope"), nullptr);
}

TEST(Metamodel, InheritanceFlattening) {
  MetamodelPtr mm = make_test_metamodel();
  const MetaClass* stream = mm->find_class("StreamMedia");
  ASSERT_NE(stream, nullptr);
  // Inherits label (NamedElement), kind/live (Media), owns fps.
  EXPECT_NE(stream->find_attribute("label"), nullptr);
  EXPECT_NE(stream->find_attribute("kind"), nullptr);
  EXPECT_NE(stream->find_attribute("fps"), nullptr);
  EXPECT_EQ(stream->find_attribute("bandwidth"), nullptr);
}

TEST(Metamodel, IsKindOfWalksAncestry) {
  MetamodelPtr mm = make_test_metamodel();
  EXPECT_TRUE(mm->is_kind_of("StreamMedia", "Media"));
  EXPECT_TRUE(mm->is_kind_of("StreamMedia", "NamedElement"));
  EXPECT_TRUE(mm->is_kind_of("Media", "Media"));
  EXPECT_FALSE(mm->is_kind_of("Media", "StreamMedia"));
  EXPECT_FALSE(mm->is_kind_of("Ghost", "Media"));
}

TEST(Metamodel, RejectsUnknownParent) {
  Metamodel mm("bad");
  mm.add_class("A", "Missing");
  EXPECT_EQ(mm.finalize().code(), ErrorCode::kInvalidArgument);
}

TEST(Metamodel, RejectsInheritanceCycle) {
  Metamodel mm("bad");
  mm.add_class("A", "B");
  mm.add_class("B", "A");
  EXPECT_EQ(mm.finalize().code(), ErrorCode::kInvalidArgument);
}

TEST(Metamodel, RejectsDuplicateFeature) {
  Metamodel mm("bad");
  auto& a = mm.add_class("A");
  a.add_attribute({.name = "x"});
  a.add_attribute({.name = "x"});
  EXPECT_EQ(mm.finalize().code(), ErrorCode::kInvalidArgument);
}

TEST(Metamodel, RejectsAttributeShadowingParent) {
  Metamodel mm("bad");
  mm.add_class("Base").add_attribute({.name = "x"});
  mm.add_class("Derived", "Base").add_attribute({.name = "x"});
  EXPECT_EQ(mm.finalize().code(), ErrorCode::kInvalidArgument);
}

TEST(Metamodel, RejectsEnumWithoutLiterals) {
  Metamodel mm("bad");
  mm.add_class("A").add_attribute({.name = "e", .type = AttrType::kEnum});
  EXPECT_EQ(mm.finalize().code(), ErrorCode::kInvalidArgument);
}

TEST(Metamodel, RejectsReferenceToUnknownClass) {
  Metamodel mm("bad");
  mm.add_class("A").add_reference({.name = "r", .target_class = "Ghost"});
  EXPECT_EQ(mm.finalize().code(), ErrorCode::kInvalidArgument);
}

TEST(Metamodel, ParentDeclaredAfterChildResolves) {
  Metamodel mm("ok");
  mm.add_class("Derived", "Base");
  mm.add_class("Base").add_attribute({.name = "x"});
  ASSERT_TRUE(mm.finalize().ok());
  EXPECT_NE(mm.find_class("Derived")->find_attribute("x"), nullptr);
}

// ---------------------------------------------------------------- Model

TEST(Model, CreateAppliesDefaults) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  auto session = model.create("Session", "s1");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->get_string("state"), "idle");  // default applied
}

TEST(Model, CreateRejectsAbstractUnknownAndDuplicate) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  EXPECT_EQ(model.create("NamedElement", "x").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(model.create("Ghost", "x").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(model.create("Session", "s1").ok());
  EXPECT_EQ(model.create("Session", "s1").status().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(model.create("Session", "not an id").status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(Model, SetAttributeTypeChecks) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  model.create("Session", "s1");
  EXPECT_TRUE(model.set_attribute("s1", "state", Value("open")).ok());
  EXPECT_EQ(model.set_attribute("s1", "state", Value(3)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(model.set_attribute("s1", "ghost", Value(1)).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(model.set_attribute("ghost", "state", Value("x")).code(),
            ErrorCode::kNotFound);
  // Real slot accepts int and coerces.
  EXPECT_TRUE(model.set_attribute("s1", "bandwidth", Value(3)).ok());
  EXPECT_TRUE(model.find("s1")->get("bandwidth").is_real());
}

TEST(Model, ManyValuedAttributeRequiresList) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  model.create("Session", "s1");
  EXPECT_EQ(model.set_attribute("s1", "tags", Value("solo")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(model
                  .set_attribute("s1", "tags",
                                 Value(ValueList{Value("a"), Value("b")}))
                  .ok());
  EXPECT_EQ(model
                .set_attribute("s1", "tags",
                               Value(ValueList{Value(1)}))  // wrong item type
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST(Model, ContainmentCreatesTree) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  const ModelObject* alice = model.find("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->parent_id(), "s1");
  EXPECT_EQ(alice->containing_reference(), "participants");
  EXPECT_EQ(model.children("s1", "participants").size(), 2u);
  EXPECT_EQ(model.roots().size(), 1u);
}

TEST(Model, CreateChildChecksContainmentRules) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  model.create("Session", "s1");
  // Not a containment reference:
  EXPECT_EQ(model.create_child("s1", "initiator", "Participant", "p")
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  // Wrong target class:
  EXPECT_EQ(
      model.create_child("s1", "participants", "Media", "m").status().code(),
      ErrorCode::kInvalidArgument);
  // Unknown parent:
  EXPECT_EQ(model.create_child("ghost", "participants", "Participant", "p")
                .status()
                .code(),
            ErrorCode::kNotFound);
}

TEST(Model, CrossReferenceChecksAndSingleValuedReplace) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  // initiator is single-valued: adding bob replaces alice.
  EXPECT_TRUE(model.add_reference("s1", "initiator", "bob").ok());
  ASSERT_EQ(model.find("s1")->targets("initiator").size(), 1u);
  EXPECT_EQ(model.find("s1")->targets("initiator")[0], "bob");
  // Wrong class target:
  EXPECT_EQ(model.add_reference("s1", "initiator", "cam").code(),
            ErrorCode::kInvalidArgument);
  // Missing target:
  EXPECT_EQ(model.add_reference("s1", "initiator", "ghost").code(),
            ErrorCode::kNotFound);
  // Duplicate add:
  EXPECT_EQ(model.add_reference("s1", "initiator", "bob").code(),
            ErrorCode::kAlreadyExists);
  // Containment refs are not settable this way:
  EXPECT_EQ(model.add_reference("s1", "participants", "bob").code(),
            ErrorCode::kInvalidArgument);
}

TEST(Model, RemoveReferenceAndMissingCases) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  EXPECT_TRUE(model.remove_reference("s1", "initiator", "alice").ok());
  EXPECT_TRUE(model.find("s1")->targets("initiator").empty());
  EXPECT_EQ(model.remove_reference("s1", "initiator", "alice").code(),
            ErrorCode::kNotFound);
}

TEST(Model, RemoveCascadesAndScrubsDanglingRefs) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  ASSERT_TRUE(model.remove("s1").ok());  // removes whole tree
  EXPECT_TRUE(model.empty());
}

TEST(Model, RemoveChildDetachesFromParentAndScrubsCrossRefs) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  ASSERT_TRUE(model.remove("alice").ok());
  EXPECT_EQ(model.children("s1", "participants").size(), 1u);
  // s1.initiator pointed at alice — must have been scrubbed.
  EXPECT_TRUE(model.find("s1")->targets("initiator").empty());
  EXPECT_TRUE(model.validate().ok());
}

TEST(Model, ObjectsOfIncludesSubclasses) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  EXPECT_EQ(model.objects_of("Media").size(), 1u);  // StreamMedia counts
  EXPECT_EQ(model.objects_of("NamedElement").size(), model.size());
}

TEST(Model, ValidateCatchesMissingRequiredAttribute) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  model.create("Participant", "p");  // address required, unset
  EXPECT_EQ(model.validate().code(), ErrorCode::kConformanceError);
  model.set_attribute("p", "address", Value("p@host"));
  EXPECT_TRUE(model.validate().ok());
}

TEST(Model, ValidateCatchesIllegalEnumLiteral) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("m", mm);
  model.create("Session", "s1");
  model.set_attribute("s1", "state", Value("weird"));
  EXPECT_EQ(model.validate().code(), ErrorCode::kConformanceError);
}

TEST(Model, CloneIsDeepAndEqualShape) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  Model copy = model.clone();
  EXPECT_EQ(copy.size(), model.size());
  EXPECT_TRUE(copy.validate().ok());
  // Mutating the copy leaves the original untouched.
  copy.set_attribute("s1", "state", Value("closed"));
  EXPECT_EQ(model.find("s1")->get_string("state"), "open");
  EXPECT_EQ(copy.find("s1")->get_string("state"), "closed");
}

TEST(Model, ObjectsStayPutWhenTheModelMoves) {
  MetamodelPtr mm = make_test_metamodel();
  Result<Model> parsed = parse_model(
      "model m conforms testlang\n"
      "object Session s1 { state = open\n"
      "  child participants Participant alice { address = \"a@host\" } }\n",
      mm);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const ModelObject* s1 = parsed.value().find("s1");
  const ModelObject* alice = parsed.value().find("alice");
  const std::string& id = alice->id();
  const Value& state = s1->get("state");
  const std::string& parent = alice->parent_id();
  auto shared = std::make_shared<const Model>(std::move(parsed.value()));
  EXPECT_EQ(shared->find("s1"), s1);
  EXPECT_EQ(shared->find("alice"), alice);
  EXPECT_EQ(&shared->find("alice")->id(), &id);
  EXPECT_EQ(id, "alice");
  EXPECT_EQ(state, Value("open"));
  EXPECT_EQ(parent, "s1");
  EXPECT_EQ(alice->containing_reference(), "participants");
  EXPECT_TRUE(shared->validate().ok());
  // Move assignment drops the target's objects and keeps the source's.
  Model target = make_test_model(mm);
  Model moved = shared->clone();
  const ModelObject* moved_s1 = moved.find("s1");
  target = std::move(moved);
  EXPECT_EQ(target.find("s1"), moved_s1);
  EXPECT_EQ(target.find("bob"), nullptr);
  EXPECT_EQ(serialize_model(target), serialize_model(*shared));
}

TEST(Model, MutatingACloneLeavesTheSourceTextUnchanged) {
  MetamodelPtr mm = make_test_metamodel();
  const Model source = make_test_model(mm);
  const std::string text = serialize_model(source);
  Model copy = source.clone();
  ASSERT_TRUE(copy.set_attribute("s1", "state", Value("closed")).ok());
  ASSERT_TRUE(copy.unset_attribute("s1", "bandwidth").ok());
  ASSERT_TRUE(copy.add_reference("s1", "initiator", "bob").ok());
  ASSERT_TRUE(copy.remove("alice").ok());
  ASSERT_TRUE(
      copy.create_child("s1", "participants", "Participant", "carol").ok());
  ASSERT_TRUE(copy.set_attribute("carol", "address", Value("c@host")).ok());
  EXPECT_EQ(serialize_model(source), text);
  EXPECT_NE(serialize_model(copy), text);
  EXPECT_TRUE(source.validate().ok());
  EXPECT_TRUE(copy.validate().ok());
}

TEST(Model, RemovedObjectsFreeTheirSlotsForReuse) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  for (int round = 0; round < 50; ++round) {
    const std::string id = "guest" + std::to_string(round);
    ASSERT_TRUE(
        model.create_child("s1", "participants", "Participant", id).ok());
    ASSERT_TRUE(model.set_attribute(id, "address", Value(id + "@host")).ok());
    ASSERT_TRUE(model.add_reference("s1", "initiator", id).ok());
    ASSERT_TRUE(model.remove(id).ok());
  }
  EXPECT_EQ(model.size(), 4u);
  EXPECT_EQ(model.children("s1", "participants").size(), 2u);
  EXPECT_TRUE(model.find("s1")->targets("initiator").empty());
  EXPECT_TRUE(model.validate().ok());
}

TEST(Model, AttributeAndReferenceViewsReadLikeNameOrderedMaps) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  const ModelObject* s1 = model.find("s1");
  std::vector<std::string> names;
  for (const auto& [name, value] : s1->attributes()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"bandwidth", "state"}));
  names.clear();
  for (const auto& [name, targets] : s1->references()) {
    names.push_back(name + ":" + std::to_string(targets.size()));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"initiator:1", "media:1",
                                             "participants:2"}));
  auto it = s1->attributes().find("state");
  ASSERT_TRUE(it != s1->attributes().end());
  EXPECT_EQ(it->first, "state");
  EXPECT_EQ(it->second, Value("open"));
  EXPECT_TRUE(s1->attributes().find("label") == s1->attributes().end());
  EXPECT_TRUE(s1->attributes().find("ghost") == s1->attributes().end());
  // Slots follow the names: bandwidth, label, state, tags.
  EXPECT_EQ(s1->meta().attribute_slot("state"), 2);
  EXPECT_EQ(s1->meta().attribute_slot("ghost"), -1);
}

TEST(Model, TypedGettersWithFallbacks) {
  MetamodelPtr mm = make_test_metamodel();
  Model model = make_test_model(mm);
  const ModelObject* s1 = model.find("s1");
  EXPECT_EQ(s1->get_string("state"), "open");
  EXPECT_EQ(s1->get_string("label", "unnamed"), "unnamed");
  EXPECT_DOUBLE_EQ(s1->get_real("bandwidth"), 2.5);
  EXPECT_EQ(model.find("cam")->get_int("fps"), 30);
  EXPECT_FALSE(model.find("cam")->get_bool("live", false));
}

}  // namespace
}  // namespace mdsm::model
