#include <gtest/gtest.h>

#include "oracle/xml.h"

namespace mscope::transform {
namespace {

TEST(Xml, SerializeParseRoundTrip) {
  XmlNode root;
  root.name = "logfile";
  root.set_attribute("source", "apache");
  root.set_attribute("nasty", R"(a<b>&"c'd)");
  XmlNode& entry = root.add_child("log");
  entry.set_attribute("n", "1");
  XmlNode& f = entry.add_child("field");
  f.set_attribute("name", "url");
  f.set_attribute("value", "/rubbos/ViewStory?ID=1&x=<y>");

  const std::string text = xml_serialize(root);
  const auto parsed = xml_parse(text);
  EXPECT_EQ(parsed->name, "logfile");
  EXPECT_EQ(*parsed->attribute("source"), "apache");
  EXPECT_EQ(*parsed->attribute("nasty"), R"(a<b>&"c'd)");
  const XmlNode* log = parsed->child("log");
  ASSERT_NE(log, nullptr);
  const XmlNode* field = log->child("field");
  ASSERT_NE(field, nullptr);
  EXPECT_EQ(*field->attribute("value"), "/rubbos/ViewStory?ID=1&x=<y>");
}

TEST(Xml, ParsesSelfClosingDeclarationsAndComments) {
  const auto doc = xml_parse(
      "<?xml version=\"1.0\"?>\n<!-- banner -->\n"
      "<a x='1'><!-- inner --><b/><c>text</c></a>");
  EXPECT_EQ(doc->name, "a");
  EXPECT_EQ(*doc->attribute("x"), "1");
  EXPECT_NE(doc->child("b"), nullptr);
  EXPECT_EQ(doc->child("c")->text, "text");
}

TEST(Xml, TextEntitiesUnescaped) {
  const auto doc = xml_parse("<a>&lt;hello&gt; &amp; bye</a>");
  EXPECT_EQ(doc->text, "<hello> & bye");
}

TEST(Xml, MalformedInputsThrow) {
  EXPECT_THROW((void)xml_parse("<a><b></a>"), std::runtime_error);
  EXPECT_THROW((void)xml_parse("<a>"), std::runtime_error);
  EXPECT_THROW((void)xml_parse("<a/>junk"), std::runtime_error);
  EXPECT_THROW((void)xml_parse("<a x=1/>"), std::runtime_error);
  EXPECT_THROW((void)xml_parse("<!-- only a comment -->"),
               std::runtime_error);
}

TEST(Xml, ChildrenNamedReturnsAllInOrder) {
  const auto doc = xml_parse("<r><e i='0'/><x/><e i='1'/><e i='2'/></r>");
  const auto es = doc->children_named("e");
  ASSERT_EQ(es.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(*es[static_cast<std::size_t>(i)]->attribute("i"),
              std::to_string(i));
  }
}

}  // namespace
}  // namespace mscope::transform
