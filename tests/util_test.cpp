#include <gtest/gtest.h>

#include <stdexcept>

#include "util/bytes.h"
#include "util/ids.h"
#include "util/time.h"
#include "util/wire.h"

namespace p2pdrm::util {
namespace {

TEST(BytesTest, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(BytesTest, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(BytesTest, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(BytesTest, HexRejectsNonHex) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(BytesTest, ConstantTimeEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(constant_time_equal(a, b));
  EXPECT_FALSE(constant_time_equal(a, c));
  EXPECT_FALSE(constant_time_equal(a, d));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

TEST(BytesTest, StringConversions) {
  EXPECT_EQ(string_of(bytes_of("hello")), "hello");
  EXPECT_EQ(bytes_of("").size(), 0u);
}

TEST(BytesTest, Concat) {
  EXPECT_EQ(concat(bytes_of("ab"), bytes_of("cd")), bytes_of("abcd"));
}

TEST(BytesTest, XorInto) {
  Bytes a = {0xff, 0x00, 0x55};
  const Bytes b = {0x0f, 0xf0, 0x55};
  xor_into(a, b);
  EXPECT_EQ(a, (Bytes{0xf0, 0xf0, 0x00}));
  Bytes short_buf = {1};
  EXPECT_THROW(xor_into(short_buf, b), std::invalid_argument);
}

TEST(BytesTest, EndianHelpers) {
  std::uint8_t buf[8];
  store_be32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
  EXPECT_EQ(load_be32(buf), 0x01020304u);
  store_be64(buf, 0x0102030405060708ull);
  EXPECT_EQ(load_be64(buf), 0x0102030405060708ull);
  store_le32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(load_le32(buf), 0x01020304u);
}

TEST(WireTest, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.at_end());
}

TEST(WireTest, BytesAndStrings) {
  WireWriter w;
  w.bytes(Bytes{1, 2, 3});
  w.str("channel-a");
  w.bytes({});

  WireReader r(w.data());
  EXPECT_EQ(r.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "channel-a");
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(WireTest, TruncatedScalarThrows) {
  WireWriter w;
  w.u32(7);
  WireReader r(w.data());
  EXPECT_THROW(r.u64(), WireError);
}

TEST(WireTest, TruncatedBytesThrows) {
  WireWriter w;
  w.u32(100);  // length prefix promising 100 bytes that are not there
  w.u8(1);
  WireReader r(w.data());
  EXPECT_THROW(r.bytes(), WireError);
}

TEST(WireTest, ConsumedTracksPrefix) {
  WireWriter w;
  w.u32(7);
  w.str("abc");
  WireReader r(w.data());
  r.u32();
  EXPECT_EQ(r.consumed().size(), 4u);
  r.str();
  EXPECT_EQ(r.consumed().size(), w.size());
}

TEST(WireTest, RawRoundTrip) {
  WireWriter w;
  w.raw(Bytes{9, 8, 7});
  WireReader r(w.data());
  EXPECT_EQ(r.raw(3), (Bytes{9, 8, 7}));
  EXPECT_THROW(r.raw(1), WireError);
}

TEST(TimeTest, Units) {
  EXPECT_EQ(kSecond, 1'000'000);
  EXPECT_EQ(kDay, 86'400'000'000LL);
  EXPECT_EQ(seconds(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond + 500 * kMillisecond), 2.5);
}

TEST(TimeTest, HourOfDayAndDay) {
  EXPECT_EQ(hour_of_day(0), 0);
  EXPECT_EQ(hour_of_day(13 * kHour + 59 * kMinute), 13);
  EXPECT_EQ(hour_of_day(2 * kDay + 5 * kHour), 5);
  EXPECT_EQ(day_of(3 * kDay + kHour), 3);
}

TEST(TimeTest, Format) {
  EXPECT_EQ(format_time(kNullTime), "null");
  EXPECT_EQ(format_time(0), "d0 00:00:00.000");
  EXPECT_EQ(format_time(kDay + 2 * kHour + 3 * kMinute + 4 * kSecond + 5 * kMillisecond),
            "d1 02:03:04.005");
}

TEST(TimeTest, ManualClock) {
  ManualClock clock(10);
  EXPECT_EQ(clock.now(), 10);
  clock.advance(5);
  EXPECT_EQ(clock.now(), 15);
  clock.set(100);
  EXPECT_EQ(clock.now(), 100);
}

TEST(NetAddrTest, RoundTrip) {
  const NetAddr a{0x0a010203};
  EXPECT_EQ(to_string(a), "10.1.2.3");
  EXPECT_EQ(parse_netaddr("10.1.2.3"), a);
  EXPECT_EQ(parse_netaddr("255.255.255.255").ip, 0xffffffffu);
  EXPECT_EQ(parse_netaddr("0.0.0.0").ip, 0u);
}

TEST(NetAddrTest, RejectsMalformed) {
  EXPECT_THROW(parse_netaddr("10.1.2"), std::invalid_argument);
  EXPECT_THROW(parse_netaddr("256.1.2.3"), std::invalid_argument);
  EXPECT_THROW(parse_netaddr("a.b.c.d"), std::invalid_argument);
  EXPECT_THROW(parse_netaddr("1.2.3.4.5"), std::invalid_argument);
}

TEST(NetAddrTest, Ordering) {
  EXPECT_LT(NetAddr{1}, NetAddr{2});
  EXPECT_EQ(NetAddr{7}, NetAddr{7});
}

}  // namespace
}  // namespace p2pdrm::util
