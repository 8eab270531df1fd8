#include "util/time_format.h"

#include <charconv>
#include <cstdio>

#include "util/strings.h"

namespace mscope::util {

namespace {

constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

struct Hms {
  int h, m, s;
  SimTime sub_usec;
};

Hms break_time(SimTime t) {
  const std::int64_t total_sec = t / kSec;
  const SimTime sub = t % kSec;
  return {static_cast<int>((total_sec / 3600) % 24),
          static_cast<int>((total_sec / 60) % 60),
          static_cast<int>(total_sec % 60), sub};
}

// Days since epoch -> (day-of-month, month index). The experiments run for
// minutes, so staying in January 2017 is guaranteed, but handle a few days.
void break_date(SimTime t, int& day, int& month) {
  const std::int64_t days = t / kSec / 86400;
  day = static_cast<int>(1 + days);
  month = 0;  // January
}

}  // namespace

std::string TimeFormat::hms(SimTime t) {
  const Hms x = break_time(t);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", x.h, x.m, x.s);
  return buf;
}

std::string TimeFormat::hms_milli(SimTime t) {
  const Hms x = break_time(t);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%03d", x.h, x.m, x.s,
                static_cast<int>(x.sub_usec / kMsec));
  return buf;
}

std::string TimeFormat::apache_clf(SimTime t) {
  const Hms x = break_time(t);
  int day = 1, month = 0;
  break_date(t, day, month);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "[%02d/%s/2017:%02d:%02d:%02d.%03d +0000]",
                day, kMonths[month], x.h, x.m, x.s,
                static_cast<int>(x.sub_usec / kMsec));
  return buf;
}

std::string TimeFormat::mysql(SimTime t) {
  const Hms x = break_time(t);
  int day = 1, month = 0;
  break_date(t, day, month);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "2017-%02d-%02d %02d:%02d:%02d.%06d",
                month + 1, day, x.h, x.m, x.s, static_cast<int>(x.sub_usec));
  return buf;
}

std::string TimeFormat::usec_string(SimTime t) {
  std::string s;
  append_usec(s, t);
  return s;
}

void TimeFormat::append_usec(std::string& out, SimTime t) {
  char buf[24];
  const auto end =
      std::to_chars(buf, buf + sizeof buf, (kEpochUnixSec * kSec) + t).ptr;
  out.append(buf, end);
}

std::optional<SimTime> TimeFormat::parse_hms(std::string_view s) {
  s = trim(s);
  // "HH:MM:SS" possibly followed by ".mmm"
  const auto parts = split(s, ':');
  if (parts.size() != 3) return std::nullopt;
  const auto h = parse_int(parts[0]);
  const auto m = parse_int(parts[1]);
  if (!h || !m) return std::nullopt;
  const auto sec_parts = split(parts[2], '.');
  if (sec_parts.empty() || sec_parts.size() > 2) return std::nullopt;
  const auto sc = parse_int(sec_parts[0]);
  if (!sc) return std::nullopt;
  SimTime t = (*h * 3600 + *m * 60 + *sc) * kSec;
  if (sec_parts.size() == 2) {
    std::string frac(sec_parts[1]);
    if (frac.empty() || frac.size() > 6) return std::nullopt;
    frac.resize(6, '0');
    const auto us = parse_int(frac);
    if (!us) return std::nullopt;
    t += *us;
  }
  return t;
}

std::optional<SimTime> TimeFormat::parse_apache_clf(std::string_view s) {
  s = trim(s);
  if (s.size() >= 2 && s.front() == '[' && s.back() == ']')
    s = s.substr(1, s.size() - 2);
  // "02/Jan/2017:HH:MM:SS.mmm +0000"
  const auto ws = split_ws(s);
  if (ws.empty()) return std::nullopt;
  const auto colon = ws[0].find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::string_view date = ws[0].substr(0, colon);
  const std::string_view time = ws[0].substr(colon + 1);
  const auto dparts = split(date, '/');
  if (dparts.size() != 3) return std::nullopt;
  const auto day = parse_int(dparts[0]);
  if (!day) return std::nullopt;
  const auto t = parse_hms(time);
  if (!t) return std::nullopt;
  return (*day - 1) * 86400 * kSec + *t;
}

std::optional<SimTime> TimeFormat::parse_mysql(std::string_view s) {
  s = trim(s);
  const auto ws = split_ws(s);
  if (ws.size() != 2) return std::nullopt;
  const auto dparts = split(ws[0], '-');
  if (dparts.size() != 3) return std::nullopt;
  const auto day = parse_int(dparts[2]);
  if (!day) return std::nullopt;
  const auto t = parse_hms(ws[1]);
  if (!t) return std::nullopt;
  return (*day - 1) * 86400 * kSec + *t;
}

}  // namespace mscope::util
