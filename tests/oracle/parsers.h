#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "oracle/conversion.h"
#include "oracle/xml.h"
#include "transform/declaration.h"
#include "transform/fastparse/fast_parser.h"

namespace mscope::transform {

/// A reference mScopeParser: raw log content -> annotated XML (stage 2 of
/// the transformer, paper Section III-B.2). The output tree has the shape
///   <logfile source=".." node=".." file="..">
///     <log n="1"> <field name=".." value=".."/> ... </log>
///   </logfile>
/// i.e. each native line wrapped in a <log> tag with semantics injected as
/// <field> children — exactly the paper's description of the Apache parser.
using ParserFn =
    std::function<std::unique_ptr<XmlNode>(std::string_view, const ParseContext&)>;

/// Registry of the reference parser implementations keyed by
/// Declaration::parser_id.
///
/// Built-ins:
///  - "token_lines"    generic regex-instruction parser (Apache/CJDBC/MySQL)
///  - "tomcat"         token head + variable-width (dsN, drN) tail
///  - "sar_text"       customized two-pass SAR parser
///  - "sar_xml"        adapter for SAR's native XML output
///  - "iostat"         block parser (timestamp line + device table)
///  - "collectl_csv"   header-driven CSV parser
///  - "collectl_plain" fixed-column brief-mode parser
class ParserRegistry {
 public:
  /// Looks up a parser; throws std::out_of_range for unknown ids.
  [[nodiscard]] static ParserFn get(const std::string& parser_id);

  /// True if the id is known.
  [[nodiscard]] static bool knows(const std::string& parser_id);
};

/// The paper's parse chain on `content`: the declaration's reference
/// mScopeParser, then XmlToCsvConverter::convert. Throws what the parser
/// throws (a malformed sar XML document, an unknown parser id).
[[nodiscard]] Conversion reference_parse(std::string_view content,
                                         const ParseContext& ctx);

}  // namespace mscope::transform
