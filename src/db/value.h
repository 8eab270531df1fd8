#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace mscope::db {

/// Column datatypes, ordered from narrowest to widest. mScopeDataTransformer
/// picks "the narrowest data type that can store all of the values for the
/// same XML tag" (paper Section III-B.3); `widen` below implements exactly
/// that lattice: Int < Double < Text, with Null below everything.
enum class DataType : std::uint8_t { kNull = 0, kInt, kDouble, kText };

[[nodiscard]] std::string_view to_string(DataType t);

/// An interned, immutable text cell. Monitoring warehouses repeat the same
/// short strings millions of times (node names, tiers, servlet URLs), so
/// Text values share one heap string per distinct content: copying a cell
/// is a refcount bump, equality starts with a pointer compare, and a
/// million-row URL column holds a handful of strings instead of a million.
///
/// Interning policy: strings up to an implementation length cap are pooled
/// (the pool itself is bounded — once full, new distinct strings simply stop
/// being shared, so unbounded-cardinality columns such as request ids cannot
/// grow it without limit); longer strings get private storage.
class TextRef {
 public:
  TextRef() : TextRef(std::string_view{}) {}
  TextRef(std::string s) : s_(intern(std::move(s))) {}          // NOLINT
  TextRef(std::string_view s) : TextRef(std::string(s)) {}      // NOLINT
  TextRef(const char* s) : TextRef(std::string_view(s)) {}      // NOLINT

  /// Private storage without a pool lookup: ingest shares repeated cells
  /// through its own caches instead of the process-wide lock.
  struct Unpooled {};
  TextRef(Unpooled, std::string_view s)
      : s_(std::make_shared<const std::string>(s)) {}

  [[nodiscard]] const std::string& str() const { return *s_; }
  operator const std::string&() const { return *s_; }  // NOLINT

  /// True when both sides share the same pooled string (equality certain).
  [[nodiscard]] bool same_ref(const TextRef& o) const { return s_ == o.s_; }

  friend bool operator==(const TextRef& a, const TextRef& b) {
    return a.s_ == b.s_ || *a.s_ == *b.s_;
  }
  friend bool operator==(const TextRef& a, std::string_view b) {
    return *a.s_ == b;
  }

 private:
  static std::shared_ptr<const std::string> intern(std::string s);

  std::shared_ptr<const std::string> s_;
};

/// A single cell. monostate = SQL NULL. The alternative order mirrors
/// DataType so type_of() is just the variant index.
using Value = std::variant<std::monostate, std::int64_t, double, TextRef>;

[[nodiscard]] DataType type_of(const Value& v);

[[nodiscard]] bool is_null(const Value& v);

/// Renders a value for CSV/debug output (NULL -> empty string).
[[nodiscard]] std::string value_to_string(const Value& v);

/// Least upper bound in the type lattice.
[[nodiscard]] DataType widen(DataType a, DataType b);

/// Narrowest type that can represent the literal `s` (empty -> Null,
/// "42" -> Int, "4.2" -> Double, anything else -> Text).
[[nodiscard]] DataType infer_type(std::string_view s);

/// Parses `s` as the given type; Null type or empty string yields NULL.
/// Returns nullopt only if `s` cannot be represented as `t` (caller should
/// have widened first).
[[nodiscard]] std::optional<Value> parse_as(std::string_view s, DataType t);

/// Numeric view of a value for aggregation (Int/Double only).
[[nodiscard]] std::optional<double> as_double(const Value& v);
[[nodiscard]] std::optional<std::int64_t> as_int(const Value& v);

/// Borrowed text view of a Text value ("" for every other type) — the
/// zero-copy counterpart of value_to_string for hot paths.
[[nodiscard]] const std::string& as_text(const Value& v);

/// Total order used by ORDER BY and joins: NULL < numbers < text; numbers
/// compare numerically across Int/Double.
[[nodiscard]] int compare(const Value& a, const Value& b);

}  // namespace mscope::db
