#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/simtime.h"
#include "util/time_format.h"

namespace mscope::transform::fastparse {

// Byte-scanning primitives for the fast parse path. Everything here is
// strict about layout: a decoder returns false the moment the input deviates
// from the fixed format, and the caller falls back to the reference
// (util::TimeFormat / std::regex) implementation. Falling back is NOT a
// reject — it guarantees the fast path agrees with the oracle on inputs the
// fixed-layout scanners don't cover.

inline bool is_digit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

/// Parses [b, e) as an unsigned decimal run. Returns false on empty input,
/// any non-digit, or more than 18 digits (a 19-digit value can overflow
/// int64 — let util::parse_int decide with full overflow semantics).
inline bool scan_u64(const char* b, const char* e, std::int64_t& out) {
  if (b == e || e - b > 18) return false;
  std::int64_t v = 0;
  for (const char* p = b; p != e; ++p) {
    if (!is_digit(*p)) return false;
    v = v * 10 + (*p - '0');
  }
  out = v;
  return true;
}

/// Two-digit decimal at p (caller guarantees 2 readable bytes).
inline bool scan_2d(const char* p, std::int64_t& out) {
  if (!is_digit(p[0]) || !is_digit(p[1])) return false;
  out = (p[0] - '0') * 10 + (p[1] - '0');
  return true;
}

/// HH:MM:SS with optional .1-6 digit fraction, consuming exactly [b, e).
/// Mirrors util::TimeFormat::parse_hms for the canonical two-digit layout;
/// anything else (one-digit hours, stray spaces, 7-digit fractions) returns
/// false so the caller can defer to util::TimeFormat.
inline bool scan_hms(const char* b, const char* e, std::int64_t& usec) {
  if (e - b < 8) return false;
  std::int64_t h, m, s;
  if (!scan_2d(b, h) || b[2] != ':' || !scan_2d(b + 3, m) || b[5] != ':' ||
      !scan_2d(b + 6, s))
    return false;
  std::int64_t t = (h * 3600 + m * 60 + s) * util::kSec;
  const char* p = b + 8;
  if (p == e) {
    usec = t;
    return true;
  }
  if (*p != '.') return false;
  ++p;
  const std::ptrdiff_t nfrac = e - p;
  if (nfrac < 1 || nfrac > 6) return false;
  std::int64_t frac = 0;
  for (; p != e; ++p) {
    if (!is_digit(*p)) return false;
    frac = frac * 10 + (*p - '0');
  }
  for (std::ptrdiff_t i = nfrac; i < 6; ++i) frac *= 10;
  usec = t + frac;
  return true;
}

/// Apache CLF bracket timestamp: "[DD/Mon/YYYY:HH:MM:SS(.frac)? zone]".
/// Like the reference decoder, only the day-of-month and time contribute to
/// the relative timestamp (runs are assumed not to span months).
inline bool scan_apache_clf(const char* b, const char* e, std::int64_t& usec) {
  if (e - b < 4 || *b != '[' || *(e - 1) != ']') return false;
  const char* p = b + 1;
  const char* inner_end = e - 1;
  // Day: 1-2 digits up to '/'.
  const char* day_end = p;
  while (day_end != inner_end && is_digit(*day_end)) ++day_end;
  if (day_end == p || day_end - p > 2 || day_end == inner_end ||
      *day_end != '/')
    return false;
  std::int64_t day;
  if (!scan_u64(p, day_end, day)) return false;
  // Month name (ignored) then '/', then 4-digit year, then ':'.
  p = day_end + 1;
  while (p != inner_end && *p != '/' && *p != ':') ++p;
  if (p == inner_end || *p != '/') return false;
  ++p;
  const char* year_end = p;
  while (year_end != inner_end && is_digit(*year_end)) ++year_end;
  if (year_end == p || year_end == inner_end || *year_end != ':') return false;
  p = year_end + 1;
  // Time runs to the first space (zone suffix) or to the bracket.
  const char* time_end =
      static_cast<const char*>(std::memchr(p, ' ', inner_end - p));
  if (time_end == nullptr) time_end = inner_end;
  std::int64_t t;
  if (!scan_hms(p, time_end, t)) return false;
  usec = (day - 1) * 86400 * util::kSec + t;
  return true;
}

/// MySQL datetime: "YYYY-MM-DD HH:MM:SS(.frac)?" consuming exactly [b, e).
/// As in the reference, only the day-of-month and time matter.
inline bool scan_mysql_datetime(const char* b, const char* e,
                                std::int64_t& usec) {
  if (e - b < 19) return false;
  for (int i : {0, 1, 2, 3, 5, 6, 8, 9}) {
    if (!is_digit(b[i])) return false;
  }
  if (b[4] != '-' || b[7] != '-' || b[10] != ' ') return false;
  std::int64_t day;
  if (!scan_2d(b + 8, day)) return false;
  std::int64_t t;
  if (!scan_hms(b + 11, e, t)) return false;
  usec = (day - 1) * 86400 * util::kSec + t;
  return true;
}

/// Absolute epoch microseconds (all digits), rebased onto the run-relative
/// epoch exactly like util::TimeFormat::parse(kEpochUsec).
inline bool scan_epoch_usec(const char* b, const char* e, std::int64_t& usec) {
  std::int64_t v;
  if (!scan_u64(b, e, v)) return false;
  usec = v - util::TimeFormat::kEpochUnixSec * util::kSec;
  return true;
}

}  // namespace mscope::transform::fastparse
