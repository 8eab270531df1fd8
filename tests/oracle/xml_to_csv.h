#pragma once

#include "oracle/conversion.h"
#include "oracle/xml.h"

namespace mscope::transform {

/// The reference mScope XMLtoCSV Converter (paper Section III-B.3), kept as
/// a test oracle.
///
/// Separates the parsers' data annotation from warehouse schema creation:
///  * columns  = the *union* of all <field> names across <log> entries,
///    in first-appearance order;
///  * datatype = the "best match principle": the narrowest type
///    (Int < Double < Text) that can store every value of that field;
///  * missing fields in an entry become NULL.
class XmlToCsvConverter {
 public:
  /// Converts an annotated <logfile> tree.
  [[nodiscard]] static Conversion convert(const XmlNode& logfile_root);
};

}  // namespace mscope::transform
