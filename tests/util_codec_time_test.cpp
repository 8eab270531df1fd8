#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/crc32c.h"
#include "util/id_codec.h"
#include "util/rng.h"
#include "util/time_format.h"

namespace mscope::util {
namespace {

TEST(IdCodec, EncodeFixedWidth) {
  EXPECT_EQ(IdCodec::encode(0), "000000000000");
  EXPECT_EQ(IdCodec::encode(0x1A2B), "000000001A2B");
  EXPECT_EQ(IdCodec::encode(0xFFFFFFFFFFFFULL), "FFFFFFFFFFFF");
}

TEST(IdCodec, DecodeRejectsBadInput) {
  EXPECT_FALSE(IdCodec::decode("123"));               // wrong width
  EXPECT_FALSE(IdCodec::decode("00000000000G"));      // bad digit
  EXPECT_EQ(IdCodec::decode("000000001a2b"), 0x1A2Bu);  // lowercase ok
}

TEST(IdCodec, RoundTripSweep) {
  Rng r(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t id = r.next_u64() & 0xFFFFFFFFFFFFULL;
    EXPECT_EQ(IdCodec::decode(IdCodec::encode(id)), id);
  }
}

TEST(IdCodec, TagUrlHandlesExistingQuery) {
  EXPECT_EQ(IdCodec::tag_url("/rubbos/StoriesOfTheDay", 0x2A),
            "/rubbos/StoriesOfTheDay?ID=00000000002A");
  EXPECT_EQ(IdCodec::tag_url("/x?a=1", 0x2A), "/x?a=1&ID=00000000002A");
}

TEST(IdCodec, TagSqlAsComment) {
  EXPECT_EQ(IdCodec::tag_sql("SELECT 1", 0x2A),
            "SELECT 1 /*ID=00000000002A*/");
}

TEST(IdCodec, ExtractFindsIdAnywhere) {
  EXPECT_EQ(IdCodec::extract("GET /x?ID=00000000002A HTTP/1.1"), 0x2Au);
  EXPECT_EQ(IdCodec::extract("SELECT 1 /*ID=0000000000FF*/"), 0xFFu);
  EXPECT_FALSE(IdCodec::extract("no id here"));
  // A broken candidate is skipped; a later valid one is found.
  EXPECT_EQ(IdCodec::extract("ID=xyz then ID=000000000001"), 1u);
}

TEST(TimeFormat, HmsBasics) {
  EXPECT_EQ(TimeFormat::hms(0), "00:00:00");
  EXPECT_EQ(TimeFormat::hms(sec(3661)), "01:01:01");
  EXPECT_EQ(TimeFormat::hms_milli(msec(1234)), "00:00:01.234");
}

TEST(TimeFormat, ParseHmsRoundTrip) {
  for (const SimTime t : {SimTime{0}, msec(1), msec(999), sec(59),
                          sec(3600) + msec(250), sec(86399)}) {
    const SimTime ms_trunc = (t / kMsec) * kMsec;
    EXPECT_EQ(TimeFormat::parse_hms(TimeFormat::hms_milli(t)), ms_trunc);
  }
  EXPECT_FALSE(TimeFormat::parse_hms("1:2"));
  EXPECT_FALSE(TimeFormat::parse_hms("aa:bb:cc"));
}

TEST(TimeFormat, ApacheClfRoundTrip) {
  const SimTime t = sec(12) + msec(345);
  const auto s = TimeFormat::apache_clf(t);
  EXPECT_EQ(s, "[01/Jan/2017:00:00:12.345 +0000]");
  EXPECT_EQ(TimeFormat::parse_apache_clf(s), t);
}

TEST(TimeFormat, ApacheClfAcrossDays) {
  const SimTime t = sec(86400 + 3600);
  const auto s = TimeFormat::apache_clf(t);
  EXPECT_EQ(TimeFormat::parse_apache_clf(s), t);
}

TEST(TimeFormat, MysqlRoundTripMicroseconds) {
  const SimTime t = sec(42) + usec(123456);
  const auto s = TimeFormat::mysql(t);
  EXPECT_EQ(s, "2017-01-01 00:00:42.123456");
  EXPECT_EQ(TimeFormat::parse_mysql(s), t);
}

TEST(TimeFormat, UsecStringIsAbsolute) {
  EXPECT_EQ(TimeFormat::usec_string(0),
            std::to_string(TimeFormat::kEpochUnixSec * kSec));
}

/// CRC32C straight from its definition: one bit at a time.
std::uint32_t crc32c_bitwise(std::uint32_t crc, const std::string& s) {
  std::uint32_t c = ~crc;
  for (const char ch : s) {
    c ^= static_cast<std::uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
  }
  return ~c;
}

TEST(Crc32c, SlicedMatchesTheBitwiseDefinition) {
  EXPECT_EQ(Crc32c::of("123456789"), 0xE3069283u);  // the standard check
  EXPECT_EQ(Crc32c::of(""), 0u);
  std::string bytes;
  for (int i = 0; i < 80; ++i) bytes.push_back(static_cast<char>(i * 37 + 11));
  // Every length at every alignment, so the 8-byte loop and the byte tail
  // both run from every offset; extend() across every split point.
  for (std::size_t at = 0; at < 8; ++at) {
    for (std::size_t n = 0; at + n <= bytes.size(); ++n) {
      const std::string s = bytes.substr(at, n);
      ASSERT_EQ(Crc32c::of(s), crc32c_bitwise(0, s)) << at << "+" << n;
    }
  }
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::uint32_t head = Crc32c::of(bytes.data(), cut);
    ASSERT_EQ(Crc32c::extend(head, bytes.data() + cut, bytes.size() - cut),
              Crc32c::of(bytes));
  }
}

}  // namespace
}  // namespace mscope::util
