// Tests for the textual model format: parsing, serialization, round-trips.
#include <gtest/gtest.h>

#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "model_fixtures.hpp"

namespace mdsm::model {
namespace {

using testing::make_test_metamodel;
using testing::make_test_model;

constexpr std::string_view kSample = R"(
# A communication session
model demo conforms testlang

object Session s1 {
  state = open
  bandwidth = 2.5
  tags = ["a", "b"]
  initiator -> alice
  child participants Participant alice {
    address = "alice@host"
    priority = 2
  }
  child participants Participant bob {
    address = "bob@host"
  }
  child media StreamMedia cam {
    kind = video
    fps = 30
    live = true
  }
}
)";

TEST(TextFormat, ParsesSampleModel) {
  auto model = parse_model(kSample, make_test_metamodel());
  ASSERT_TRUE(model.ok()) << model.status().to_string();
  EXPECT_EQ(model->name(), "demo");
  EXPECT_EQ(model->size(), 4u);
  EXPECT_TRUE(model->validate().ok());
  const ModelObject* s1 = model->find("s1");
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->get_string("state"), "open");
  EXPECT_DOUBLE_EQ(s1->get_real("bandwidth"), 2.5);
  ASSERT_EQ(s1->targets("initiator").size(), 1u);
  EXPECT_EQ(s1->targets("initiator")[0], "alice");
  ASSERT_TRUE(s1->get("tags").is_list());
  EXPECT_EQ(s1->get("tags").as_list().size(), 2u);
  EXPECT_EQ(model->find("cam")->get_int("fps"), 30);
  EXPECT_TRUE(model->find("cam")->get_bool("live"));
}

TEST(TextFormat, ForwardReferencesResolve) {
  constexpr std::string_view text = R"(
model fwd conforms testlang
object Session s1 {
  state = open
  initiator -> late
  child participants Participant late { address = "x@y" }
}
)";
  auto model = parse_model(text, make_test_metamodel());
  ASSERT_TRUE(model.ok()) << model.status().to_string();
  EXPECT_EQ(model->find("s1")->targets("initiator")[0], "late");
}

TEST(TextFormat, RoundTripPreservesModel) {
  MetamodelPtr mm = make_test_metamodel();
  Model original = make_test_model(mm);
  std::string text = serialize_model(original);
  auto reparsed = parse_model(text, mm);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  // Same shape and a fixed-point serialization.
  EXPECT_EQ(reparsed->size(), original.size());
  EXPECT_EQ(serialize_model(*reparsed), text);
  EXPECT_TRUE(diff(original, *reparsed).empty());
}

TEST(TextFormat, StringEscapesRoundTrip) {
  MetamodelPtr mm = make_test_metamodel();
  Model model("esc", mm);
  model.create("Participant", "p");
  model.set_attribute("p", "address", Value("line1\nline2\t\"q\"\\"));
  auto reparsed = parse_model(serialize_model(model), mm);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(reparsed->find("p")->get_string("address"),
            "line1\nline2\t\"q\"\\");
}

TEST(TextFormat, NegativeNumbersAndScientific) {
  constexpr std::string_view text = R"(
model n conforms testlang
object Session s { state = idle bandwidth = -1.5e2 }
object Participant p { address = "a" priority = -3 }
)";
  auto model = parse_model(text, make_test_metamodel());
  ASSERT_TRUE(model.ok()) << model.status().to_string();
  EXPECT_DOUBLE_EQ(model->find("s")->get_real("bandwidth"), -150.0);
  EXPECT_EQ(model->find("p")->get_int("priority"), -3);
}

TEST(TextFormat, ErrorsAreParseErrorsWithLineNumbers) {
  MetamodelPtr mm = make_test_metamodel();
  struct Case {
    std::string_view text;
    std::string_view needle;
  };
  const Case cases[] = {
      {"object Session s {}", "expected 'model'"},
      {"model x conformz testlang", "expected 'conforms'"},
      {"model x conforms other", "metamodel"},
      {"model x conforms testlang\nobject Ghost g {}", "class 'Ghost'"},
      {"model x conforms testlang\nobject Session s { state = }",
       "expected value"},
      {"model x conforms testlang\nobject Session s { state = \"unterm",
       "unterminated"},
      {"model x conforms testlang\nobject Session s { initiator -> ghost }",
       "ghost"},
      {"model x conforms testlang\nobject Session s {", "unexpected EOF"},
      {"model x conforms testlang\nobject Session s { ghost = 1 }",
       "no attribute"},
  };
  for (const Case& c : cases) {
    auto model = parse_model(c.text, mm);
    ASSERT_FALSE(model.ok()) << c.text;
    EXPECT_EQ(model.status().code(), ErrorCode::kParseError) << c.text;
    EXPECT_NE(model.status().message().find(c.needle), std::string::npos)
        << "message '" << model.status().message() << "' lacks '" << c.needle
        << "'";
  }
}

// Exact error text for one malformed input per failure mode. A line
// number names the line of the token the parser was looking at when it
// failed: for a rejected object that is the token after its id, for a
// rejected slot the token after its value, for a bad cross-reference
// the token after its target.
TEST(TextFormat, MalformedInputErrorTable) {
  MetamodelPtr mm = make_test_metamodel();
  struct Case {
    std::string_view text;
    std::string_view message;
  };
  const Case model_cases[] = {
      {"model x conforms testlang\nobject Participant p {\n  address = \"abc",
       "line 3: unterminated string"},
      {"model x conforms testlang\nobject Participant p {\n"
       "  address = \"ab\ncd\"\n}",
       "line 3: unterminated string"},
      {"model x conforms testlang\nobject Participant p {\n"
       "  address = \"a\"\n  priority = +5\n}",
       "line 4: bad number '+5'"},
      {"model x conforms testlang\nobject Participant p {\n"
       "  address = \"a\"\n  priority = 99999999999999999999\n}",
       "line 4: bad number '99999999999999999999'"},
      {"model x conforms testlang\nobject Participant p {\n  address = @\n}",
       "line 3: unexpected character '@'"},
      {"model x conforms testlang\nobject Session s\n  state = idle\n}",
       "line 3: expected '{', got 'state'"},
      {"model x conforms testlang\nobject Ghost g\n{}",
       "line 3: class 'Ghost' not in metamodel 'testlang'"},
      {"model x conforms testlang\nobject NamedElement n {}",
       "line 2: class 'NamedElement' is abstract"},
      {"model x conforms testlang\nobject Session s {}\nobject Session s {}",
       "line 3: object 's' already in model"},
      {"model x conforms testlang\nobject Session s {\n  initiator -> ghost\n}",
       "line 4: reference target 'ghost' not in model"},
      {"model x conforms testlang\nobject Session s {\n"
       "  participants -> p\n"
       "  child participants Participant p { address = \"a\" }\n}",
       "line 4: containment reference 'participants' is populated via "
       "create_child"},
      {"model x conforms other\nobject Session s {}",
       "line 2: model conforms to 'other' but metamodel is 'testlang'"},
      {"model x conformz testlang", "line 1: expected 'conforms'"},
      {"model x\n", "line 2: expected identifier, got ''"},
      {"model x conforms testlang\nobject Session s {",
       "line 2: unexpected EOF"},
      {"model x conforms testlang\nobject Session s { state = }",
       "line 2: expected value, got '}'"},
      {"model x conforms testlang\nobject Session s {\n  ghost = 1\n}",
       "line 4: class 'Session' has no attribute 'ghost'"},
      {"model x conforms testlang\nobject Session s { state idle }",
       "line 2: expected '=' or '->' after 'state'"},
  };
  for (const Case& c : model_cases) {
    auto model = parse_model(c.text, mm);
    ASSERT_FALSE(model.ok()) << c.text;
    EXPECT_EQ(model.status().code(), ErrorCode::kParseError) << c.text;
    EXPECT_EQ(model.status().message(), c.message) << c.text;
  }
  const Case value_cases[] = {
      {"1 2", "line 1: trailing input after value, got '2'"},
      {"[1, 2]\n\"s\"", "line 2: trailing input after value, got 's'"},
      {"[1, 2", "line 1: expected ']', got ''"},
      {"\"open", "line 1: unterminated string"},
      {"", "line 1: expected value, got ''"},
  };
  for (const Case& c : value_cases) {
    auto value = parse_value(c.text);
    ASSERT_FALSE(value.ok()) << c.text;
    EXPECT_EQ(value.status().code(), ErrorCode::kParseError) << c.text;
    EXPECT_EQ(value.status().message(), c.message) << c.text;
  }
}

TEST(TextFormat, EmptyListAndNoneValues) {
  constexpr std::string_view text = R"(
model n conforms testlang
object Session s { state = idle tags = [] }
)";
  auto model = parse_model(text, make_test_metamodel());
  ASSERT_TRUE(model.ok()) << model.status().to_string();
  EXPECT_TRUE(model->find("s")->get("tags").is_list());
  EXPECT_TRUE(model->find("s")->get("tags").as_list().empty());
}

TEST(TextFormat, CommentsAndWhitespaceIgnored) {
  constexpr std::string_view text =
      "model c conforms testlang # trailing\n"
      "# full line\n"
      "object Session s {\n#inner\n state = idle }\n";
  auto model = parse_model(text, make_test_metamodel());
  ASSERT_TRUE(model.ok()) << model.status().to_string();
}

TEST(TextFormat, RequiresFinalizedMetamodel) {
  auto result = parse_model("model x conforms y", nullptr);
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace mdsm::model
