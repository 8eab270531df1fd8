#pragma once

#include <string>
#include <string_view>
#include <optional>

#include "util/simtime.h"

namespace mscope::util {

/// Formats SimTime the way the various native monitoring tools do.
///
/// Every monitor's log carries wall-clock-looking timestamps anchored at an
/// arbitrary experiment epoch (we use 2017-01-01 00:00:00 UTC, matching the
/// paper's publication year); parsers must round-trip all of these formats.
class TimeFormat {
 public:
  /// Experiment epoch expressed as a Unix timestamp (seconds).
  static constexpr std::int64_t kEpochUnixSec = 1483228800;  // 2017-01-01

  /// "HH:MM:SS" — classic sar text.
  [[nodiscard]] static std::string hms(SimTime t);

  /// "HH:MM:SS.mmm" — sub-second variant used by our fine-grained monitors.
  [[nodiscard]] static std::string hms_milli(SimTime t);

  /// "[02/Jan/2017:00:00:12.345 +0000]" — Apache access-log %t with ms.
  [[nodiscard]] static std::string apache_clf(SimTime t);

  /// "2017-01-01 00:00:12.345678" — MySQL general-log style.
  [[nodiscard]] static std::string mysql(SimTime t);

  /// Absolute microseconds since the experiment epoch as a decimal string —
  /// the raw form emitted by the event monitors (paper Fig. 5 timestamps).
  [[nodiscard]] static std::string usec_string(SimTime t);

  /// Appends usec_string(t) to `out` in place. The 16 digits overflow a
  /// std::string's inline buffer, so building usec_string(t) first would
  /// allocate once per timestamp.
  static void append_usec(std::string& out, SimTime t);

  /// Parses "HH:MM:SS" or "HH:MM:SS.mmm" back to SimTime.
  [[nodiscard]] static std::optional<SimTime> parse_hms(std::string_view s);

  /// Parses the apache_clf form back to SimTime.
  [[nodiscard]] static std::optional<SimTime> parse_apache_clf(
      std::string_view s);

  /// Parses the mysql form back to SimTime.
  [[nodiscard]] static std::optional<SimTime> parse_mysql(std::string_view s);
};

}  // namespace mscope::util
