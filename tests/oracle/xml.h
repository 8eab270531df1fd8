#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mscope::transform {

/// A minimal XML element tree — the interchange format between the
/// reference mScopeParsers (which *add semantics* to raw log text by
/// wrapping it in tags, paper Section III-B.2) and the reference XMLtoCSV
/// Converter (which infers a relational schema from those tags, Section
/// III-B.3). Test oracle only: the compiled scanners in
/// src/transform/fastparse must match what this chain produces.
///
/// Supports elements, attributes, text content, self-closing tags, XML
/// declarations and comments (skipped on parse), and the five standard
/// entities.
struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string text;  ///< concatenated direct text content
  std::vector<std::unique_ptr<XmlNode>> children;

  [[nodiscard]] const std::string* attribute(std::string_view key) const;

  /// First direct child with the given element name (nullptr if none).
  [[nodiscard]] const XmlNode* child(std::string_view name) const;

  /// All direct children with the given element name.
  [[nodiscard]] std::vector<const XmlNode*> children_named(
      std::string_view name) const;

  XmlNode& add_child(std::string child_name);
  void set_attribute(std::string key, std::string value);
};

/// Serializes a tree (UTF-8, 1-space indent per depth, stable attribute
/// order), so an annotated log can be inspected or round-tripped through
/// xml_parse.
[[nodiscard]] std::string xml_serialize(const XmlNode& root,
                                        bool declaration = true);

/// Parses a document; throws std::runtime_error with line context on
/// malformed input.
[[nodiscard]] std::unique_ptr<XmlNode> xml_parse(std::string_view text);

}  // namespace mscope::transform
