#include "db/sqlengine/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "db/sqlengine/expr_eval.h"

namespace mscope::db::sqlengine {

namespace {

enum class Cmp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

Cmp cmp_of(const std::string& op) {
  if (op == "=") return Cmp::kEq;
  if (op == "!=") return Cmp::kNe;
  if (op == "<") return Cmp::kLt;
  if (op == "<=") return Cmp::kLe;
  if (op == ">") return Cmp::kGt;
  return Cmp::kGe;
}

const char* cmp_text(Cmp c) {
  switch (c) {
    case Cmp::kEq: return "=";
    case Cmp::kNe: return "!=";
    case Cmp::kLt: return "<";
    case Cmp::kLe: return "<=";
    case Cmp::kGt: return ">";
    case Cmp::kGe: return ">=";
  }
  return "?";
}

bool cmp_apply(Cmp c, int sign) {
  switch (c) {
    case Cmp::kEq: return sign == 0;
    case Cmp::kNe: return sign != 0;
    case Cmp::kLt: return sign < 0;
    case Cmp::kLe: return sign <= 0;
    case Cmp::kGt: return sign > 0;
    case Cmp::kGe: return sign >= 0;
  }
  return false;
}

/// mask[i] = hit(row i's string) over a Text column's `rows` rows; NULL
/// rows get `null_hit`. A dictionary no larger than the batch is tested
/// once per entry and the rows scan 4-byte codes; a larger one (an owned
/// column that shares a join's whole build-side dictionary) is tested once
/// per row. Either way a batch costs at most its rows in tests.
template <class Hit>
void text_mask(const ColumnVec& c, std::size_t rows, bool null_hit,
               const Hit& hit, std::vector<std::uint8_t>& mask) {
  constexpr std::uint32_t kNull = segment::TextChunk::kNullCode;
  const auto dict = c.dict();
  const auto codes = c.codes();
  if (dict.size() > rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      mask[i] = static_cast<std::uint8_t>(
          codes[i] == kNull ? null_hit : hit(dict[codes[i]].str()));
    }
    return;
  }
  std::vector<std::uint8_t> dm(dict.size());
  for (std::size_t k = 0; k < dict.size(); ++k) {
    dm[k] = static_cast<std::uint8_t>(hit(dict[k].str()));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    mask[i] = codes[i] == kNull ? static_cast<std::uint8_t>(null_hit)
                                : dm[codes[i]];
  }
}

/// `column CMP literal` — the workhorse. Dispatches once per batch on
/// (column type, literal type) into a tight loop over the typed span; the
/// exact comparison matches db::compare (numerics compared as double,
/// numbers order before text).
class CmpKernel final : public Kernel {
 public:
  CmpKernel(int col, int orig_col, Cmp cmp, Value lit, std::string col_name)
      : col_(col), orig_(orig_col), cmp_(cmp), lit_(std::move(lit)),
        name_(std::move(col_name)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    const ColumnVec& c = b.cols[static_cast<std::size_t>(col_)];
    mask.assign(b.rows, 0);

    if (is_null(lit_)) {
      // `= NULL` is an is-NULL test, `!= NULL` is-not-NULL, ordered: none.
      if (cmp_ == Cmp::kEq) {
        for (std::size_t i = 0; i < b.rows; ++i) {
          mask[i] = static_cast<std::uint8_t>(!c.valid(i));
        }
      } else if (cmp_ == Cmp::kNe) {
        for (std::size_t i = 0; i < b.rows; ++i) {
          mask[i] = static_cast<std::uint8_t>(c.valid(i));
        }
      }
      return;
    }

    const auto litd = as_double(lit_);
    if (litd) {  // numeric literal
      switch (c.type()) {
        case DataType::kInt: {
          const double k = *litd;
          const auto vals = c.ints();
          for (std::size_t i = 0; i < b.rows; ++i) {
            const double v = static_cast<double>(vals[i]);
            const int s = v < k ? -1 : (v > k ? 1 : 0);
            mask[i] = static_cast<std::uint8_t>(c.valid(i) && cmp_apply(cmp_, s));
          }
          return;
        }
        case DataType::kDouble: {
          const double k = *litd;
          const auto vals = c.doubles();
          for (std::size_t i = 0; i < b.rows; ++i) {
            const double v = vals[i];
            const int s = v < k ? -1 : (v > k ? 1 : 0);
            mask[i] = static_cast<std::uint8_t>(c.valid(i) && cmp_apply(cmp_, s));
          }
          return;
        }
        case DataType::kText: {
          // Text cells order after numbers: the comparison result is the
          // same for every valid row.
          const bool hit = cmp_apply(cmp_, 1);
          if (!hit) return;
          const auto codes = c.codes();
          for (std::size_t i = 0; i < b.rows; ++i) {
            mask[i] = static_cast<std::uint8_t>(
                codes[i] != segment::TextChunk::kNullCode);
          }
          return;
        }
        default:
          return;  // all-NULL column: nothing matches a non-NULL literal
      }
    }

    // Text literal.
    const std::string& ls = as_text(lit_);
    switch (c.type()) {
      case DataType::kText: {
        // Equality: where at most one dictionary entry equals the literal
        // (always in a sealed chunk; an owned column's dictionary may
        // repeat a string), the rows are one integer compare each. The
        // search stops at a second match, and runs only where text_mask
        // would test every entry anyway. kNullCode never equals a real
        // code, so `=` excludes NULLs; `!=` excludes them explicitly
        // (dialect: NULLs never match).
        const auto dict = c.dict();
        if ((cmp_ == Cmp::kEq || cmp_ == Cmp::kNe) && dict.size() <= b.rows) {
          constexpr std::uint32_t kNull = segment::TextChunk::kNullCode;
          std::uint32_t target = kNull;
          std::size_t equal = 0;
          for (std::size_t k = 0; k < dict.size() && equal < 2; ++k) {
            if (dict[k].str() == ls) {
              target = static_cast<std::uint32_t>(k);
              ++equal;
            }
          }
          if (equal < 2) {
            const auto codes = c.codes();
            if (cmp_ == Cmp::kEq) {
              if (equal == 0) return;
              for (std::size_t i = 0; i < b.rows; ++i) {
                mask[i] = static_cast<std::uint8_t>(codes[i] == target);
              }
            } else {
              for (std::size_t i = 0; i < b.rows; ++i) {
                mask[i] = static_cast<std::uint8_t>(codes[i] != kNull &&
                                                    codes[i] != target);
              }
            }
            return;
          }
        }
        text_mask(
            c, b.rows, false,
            [&](const std::string& s) {
              const int cmp3 = s.compare(ls);
              return cmp_apply(cmp_, cmp3 < 0 ? -1 : (cmp3 > 0 ? 1 : 0));
            },
            mask);
        return;
      }
      case DataType::kInt:
      case DataType::kDouble: {
        // Numbers order before text: constant verdict for valid rows.
        const bool hit = cmp_apply(cmp_, -1);
        if (!hit) return;
        for (std::size_t i = 0; i < b.rows; ++i) {
          mask[i] = static_cast<std::uint8_t>(c.valid(i));
        }
        return;
      }
      default:
        return;
    }
  }

  bool may_match(const segment::Segment& seg) const override {
    if (orig_ < 0) return true;
    const auto litd = as_double(lit_);
    if (!litd) return true;  // text / NULL literals: no numeric zone to prune
    const segment::ZoneMap& z =
        seg.column(static_cast<std::size_t>(orig_)).zone();
    if (!z.has_value) {
      // No numeric cell in the chunk; only `!= NULL`-style shapes (handled
      // above) or text cells could match — a Text chunk has no zone values
      // either, so only prune chunks that are numeric-typed-but-all-NULL.
      const auto& data = seg.column(static_cast<std::size_t>(orig_)).data();
      const bool numeric_chunk =
          std::holds_alternative<segment::IntChunk>(data) ||
          std::holds_alternative<segment::DoubleChunk>(data);
      return !numeric_chunk;
    }
    // Zone min/max go through llround; widen by 1 to stay conservative
    // against this engine's exact double comparisons.
    const double zmin = static_cast<double>(z.min) - 1.0;
    const double zmax = static_cast<double>(z.max) + 1.0;
    switch (cmp_) {
      case Cmp::kEq: return *litd >= zmin && *litd <= zmax;
      case Cmp::kNe: return true;
      case Cmp::kLt: return zmin < *litd;
      case Cmp::kLe: return zmin <= *litd;
      case Cmp::kGt: return zmax > *litd;
      case Cmp::kGe: return zmax >= *litd;
    }
    return true;
  }

  bool index_range(std::int64_t& lo, std::int64_t& hi) const override {
    const auto litd = as_double(lit_);
    if (!litd || orig_ < 0) return false;
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    switch (cmp_) {
      case Cmp::kEq:
        lo = static_cast<std::int64_t>(std::floor(*litd)) - 1;
        hi = static_cast<std::int64_t>(std::ceil(*litd)) + 2;
        return true;
      case Cmp::kGt:
      case Cmp::kGe:
        lo = static_cast<std::int64_t>(std::floor(*litd)) - 1;
        hi = kMax;
        return true;
      case Cmp::kLt:
      case Cmp::kLe:
        lo = kMin;
        hi = static_cast<std::int64_t>(std::ceil(*litd)) + 2;
        return true;
      default:
        return false;
    }
  }

  int index_col() const override {
    return as_double(lit_) ? orig_ : -1;
  }

  std::string describe() const override {
    return name_ + " " + cmp_text(cmp_) + " " +
           (is_null(lit_) ? "NULL"
            : type_of(lit_) == DataType::kText
                ? "'" + value_to_string(lit_) + "'"
                : value_to_string(lit_));
  }

 private:
  int col_;
  int orig_;
  Cmp cmp_;
  Value lit_;
  std::string name_;
};

/// `column [NOT] BETWEEN lo AND hi` with literal numeric bounds.
class BetweenKernel final : public Kernel {
 public:
  BetweenKernel(int col, int orig_col, double lo, double hi, bool negated,
                std::string col_name)
      : col_(col), orig_(orig_col), lo_(lo), hi_(hi), negated_(negated),
        name_(std::move(col_name)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    const ColumnVec& c = b.cols[static_cast<std::size_t>(col_)];
    mask.assign(b.rows, 0);
    switch (c.type()) {
      case DataType::kInt: {
        const auto vals = c.ints();
        for (std::size_t i = 0; i < b.rows; ++i) {
          const double v = static_cast<double>(vals[i]);
          const bool in = v >= lo_ && v <= hi_;
          mask[i] = static_cast<std::uint8_t>(c.valid(i) &&
                                              (negated_ ? !in : in));
        }
        return;
      }
      case DataType::kDouble: {
        const auto vals = c.doubles();
        for (std::size_t i = 0; i < b.rows; ++i) {
          const bool in = vals[i] >= lo_ && vals[i] <= hi_;
          mask[i] = static_cast<std::uint8_t>(c.valid(i) &&
                                              (negated_ ? !in : in));
        }
        return;
      }
      case DataType::kText: {
        // Text orders after numbers: never inside a numeric band.
        if (!negated_) return;
        const auto codes = c.codes();
        for (std::size_t i = 0; i < b.rows; ++i) {
          mask[i] = static_cast<std::uint8_t>(
              codes[i] != segment::TextChunk::kNullCode);
        }
        return;
      }
      default:
        return;
    }
  }

  bool may_match(const segment::Segment& seg) const override {
    if (orig_ < 0 || negated_) return true;
    const segment::ZoneMap& z =
        seg.column(static_cast<std::size_t>(orig_)).zone();
    if (!z.has_value) {
      const auto& data = seg.column(static_cast<std::size_t>(orig_)).data();
      const bool numeric_chunk =
          std::holds_alternative<segment::IntChunk>(data) ||
          std::holds_alternative<segment::DoubleChunk>(data);
      return !numeric_chunk;
    }
    return static_cast<double>(z.max) + 1.0 >= lo_ &&
           static_cast<double>(z.min) - 1.0 <= hi_;
  }

  bool index_range(std::int64_t& lo, std::int64_t& hi) const override {
    if (orig_ < 0 || negated_) return false;
    lo = static_cast<std::int64_t>(std::floor(lo_)) - 1;
    hi = static_cast<std::int64_t>(std::ceil(hi_)) + 2;
    return true;
  }

  int index_col() const override { return negated_ ? -1 : orig_; }

  std::string describe() const override {
    return name_ + (negated_ ? " NOT BETWEEN " : " BETWEEN ") +
           value_to_string(Value{lo_}) + " AND " + value_to_string(Value{hi_});
  }

 private:
  int col_;
  int orig_;
  double lo_, hi_;
  bool negated_;
  std::string name_;
};

/// `column [NOT] LIKE 'pattern'` on a Text column: the pattern runs once
/// per dictionary entry or once per row (text_mask).
class LikeKernel final : public Kernel {
 public:
  LikeKernel(int col, std::string pattern, bool negated, std::string col_name)
      : col_(col), pattern_(std::move(pattern)), negated_(negated),
        name_(std::move(col_name)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    const ColumnVec& c = b.cols[static_cast<std::size_t>(col_)];
    mask.assign(b.rows, 0);
    if (c.type() != DataType::kText) {
      // Numeric cells stringify through value_to_string (old dialect).
      for (std::size_t i = 0; i < b.rows; ++i) {
        if (!c.valid(i)) continue;
        const bool ok = like_match(value_to_string(c.get(i)), pattern_);
        mask[i] = static_cast<std::uint8_t>(negated_ ? !ok : ok);
      }
      return;
    }
    text_mask(
        c, b.rows, false,
        [&](const std::string& s) {
          return like_match(s, pattern_) != negated_;
        },
        mask);
  }

  std::string describe() const override {
    return name_ + (negated_ ? " NOT LIKE '" : " LIKE '") + pattern_ + "'";
  }

 private:
  int col_;
  std::string pattern_;
  bool negated_;
  std::string name_;
};

/// `column [NOT] IN (literals...)`: dictionary probe for text, small linear
/// set for numerics (IN lists are short).
class InKernel final : public Kernel {
 public:
  InKernel(int col, std::vector<Value> items, bool negated,
           std::string col_name)
      : col_(col), items_(std::move(items)), negated_(negated),
        name_(std::move(col_name)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    const ColumnVec& c = b.cols[static_cast<std::size_t>(col_)];
    mask.assign(b.rows, 0);
    bool null_in_list = false;
    std::vector<double> nums;
    std::vector<const std::string*> texts;
    for (const Value& v : items_) {
      if (is_null(v)) {
        null_in_list = true;
      } else if (const auto d = as_double(v)) {
        nums.push_back(*d);
      } else {
        texts.push_back(&as_text(v));
      }
    }
    const auto match_null = [&](std::size_t i) {
      return !c.valid(i) && null_in_list;
    };
    switch (c.type()) {
      case DataType::kInt:
      case DataType::kDouble: {
        for (std::size_t i = 0; i < b.rows; ++i) {
          bool hit;
          if (!c.valid(i)) {
            hit = match_null(i);
          } else {
            const double v = c.num(i);
            hit = false;
            for (const double k : nums) {
              if (v == k) {
                hit = true;
                break;
              }
            }
          }
          mask[i] = static_cast<std::uint8_t>(negated_ ? !hit : hit);
        }
        return;
      }
      case DataType::kText: {
        text_mask(
            c, b.rows, null_in_list != negated_,
            [&](const std::string& s) {
              const bool hit = std::any_of(
                  texts.begin(), texts.end(),
                  [&](const std::string* t) { return *t == s; });
              return hit != negated_;
            },
            mask);
        return;
      }
      default: {
        for (std::size_t i = 0; i < b.rows; ++i) {
          const bool hit = null_in_list;
          mask[i] = static_cast<std::uint8_t>(negated_ ? !hit : hit);
        }
        return;
      }
    }
  }

  std::string describe() const override {
    std::string out = name_ + (negated_ ? " NOT IN (" : " IN (");
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += is_null(items_[i]) ? "NULL" : value_to_string(items_[i]);
    }
    return out + ")";
  }

 private:
  int col_;
  std::vector<Value> items_;
  bool negated_;
  std::string name_;
};

/// AND of two kernels: both pruning hints compose (a segment survives only
/// if both sides allow it).
class AndKernel final : public Kernel {
 public:
  AndKernel(KernelPtr l, KernelPtr r) : l_(std::move(l)), r_(std::move(r)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    l_->eval(b, mask);
    std::vector<std::uint8_t> rm;
    r_->eval(b, rm);
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] &= rm[i];
  }

  bool may_match(const segment::Segment& seg) const override {
    return l_->may_match(seg) && r_->may_match(seg);
  }

  std::string describe() const override {
    return l_->describe() + " AND " + r_->describe();
  }

 private:
  KernelPtr l_, r_;
};

/// OR of two kernels: prune only when *both* sides prune.
class OrKernel final : public Kernel {
 public:
  OrKernel(KernelPtr l, KernelPtr r) : l_(std::move(l)), r_(std::move(r)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    l_->eval(b, mask);
    std::vector<std::uint8_t> rm;
    r_->eval(b, rm);
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] |= rm[i];
  }

  bool may_match(const segment::Segment& seg) const override {
    return l_->may_match(seg) || r_->may_match(seg);
  }

  std::string describe() const override {
    return "(" + l_->describe() + " OR " + r_->describe() + ")";
  }

 private:
  KernelPtr l_, r_;
};

class NotKernel final : public Kernel {
 public:
  explicit NotKernel(KernelPtr k) : k_(std::move(k)) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    k_->eval(b, mask);
    for (auto& m : mask) m = static_cast<std::uint8_t>(!m);
  }

  std::string describe() const override { return "NOT (" + k_->describe() + ")"; }

 private:
  KernelPtr k_;
};

/// Fallback: row-at-a-time evaluation of an arbitrary predicate expression.
class RowExprKernel final : public Kernel {
 public:
  explicit RowExprKernel(const Expr& e) : e_(&e) {}

  void eval(const Batch& b, std::vector<std::uint8_t>& mask) const override {
    mask.assign(b.rows, 0);
    for (std::size_t i = 0; i < b.rows; ++i) {
      mask[i] = static_cast<std::uint8_t>(eval_pred(*e_, b, i));
    }
  }

  std::string describe() const override { return render_expr(*e_); }

 private:
  const Expr* e_;
};

/// A bare column in predicate position (truthiness) or another value shape.
bool is_bare_column(const Expr& e) {
  return e.kind == ExprKind::kColumn && e.col >= 0;
}

bool is_literal(const Expr& e) { return e.kind == ExprKind::kLiteral; }

int orig_of(const std::vector<int>& orig_cols, int col) {
  if (col < 0 || static_cast<std::size_t>(col) >= orig_cols.size()) return -1;
  return orig_cols[static_cast<std::size_t>(col)];
}

std::string colname(const Expr& e) {
  return e.table.empty() ? e.column : e.table + "." + e.column;
}

std::string flip_op(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;  // = and != are symmetric
}

}  // namespace

KernelPtr compile_kernel(const Expr& e, const std::vector<int>& orig_cols) {
  switch (e.kind) {
    case ExprKind::kBinary: {
      if (e.op == "AND") {
        return std::make_unique<AndKernel>(compile_kernel(*e.lhs, orig_cols),
                                           compile_kernel(*e.rhs, orig_cols));
      }
      if (e.op == "OR") {
        return std::make_unique<OrKernel>(compile_kernel(*e.lhs, orig_cols),
                                          compile_kernel(*e.rhs, orig_cols));
      }
      if (e.op == "=" || e.op == "!=" || e.op == "<" || e.op == "<=" ||
          e.op == ">" || e.op == ">=") {
        if (is_bare_column(*e.lhs) && is_literal(*e.rhs)) {
          return std::make_unique<CmpKernel>(
              e.lhs->col, orig_of(orig_cols, e.lhs->col), cmp_of(e.op),
              e.rhs->literal, colname(*e.lhs));
        }
        if (is_literal(*e.lhs) && is_bare_column(*e.rhs)) {
          // `lit OP col` == `col flip(OP) lit` — except the NULL-literal
          // special casing is right-operand-specific, so only flip when the
          // literal is non-NULL.
          if (!is_null(e.lhs->literal)) {
            return std::make_unique<CmpKernel>(
                e.rhs->col, orig_of(orig_cols, e.rhs->col),
                cmp_of(flip_op(e.op)), e.lhs->literal, colname(*e.rhs));
          }
        }
      }
      break;
    }
    case ExprKind::kBetween: {
      if (is_bare_column(*e.lhs) && is_literal(*e.args[0]) &&
          is_literal(*e.args[1])) {
        const auto lo = as_double(e.args[0]->literal);
        const auto hi = as_double(e.args[1]->literal);
        if (lo && hi) {
          return std::make_unique<BetweenKernel>(
              e.lhs->col, orig_of(orig_cols, e.lhs->col), *lo, *hi, e.negated,
              colname(*e.lhs));
        }
      }
      break;
    }
    case ExprKind::kLike: {
      if (is_bare_column(*e.lhs)) {
        return std::make_unique<LikeKernel>(e.lhs->col, e.pattern, e.negated,
                                            colname(*e.lhs));
      }
      break;
    }
    case ExprKind::kIn: {
      if (is_bare_column(*e.lhs)) {
        std::vector<Value> items;
        bool all_literal = true;
        for (const auto& a : e.args) {
          if (!is_literal(*a)) {
            all_literal = false;
            break;
          }
          items.push_back(a->literal);
        }
        if (all_literal) {
          return std::make_unique<InKernel>(e.lhs->col, std::move(items),
                                            e.negated, colname(*e.lhs));
        }
      }
      break;
    }
    case ExprKind::kUnary: {
      if (e.op == "NOT") {
        return std::make_unique<NotKernel>(compile_kernel(*e.lhs, orig_cols));
      }
      break;
    }
    default:
      break;
  }
  return std::make_unique<RowExprKernel>(e);
}

}  // namespace mscope::db::sqlengine
