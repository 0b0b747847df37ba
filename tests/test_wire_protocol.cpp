// The poolnetd wire protocol: frame encode/decode under arbitrary
// fragmentation, the canonical event byte encoding, and the query
// language grammar.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "server/query_language.h"
#include "server/wire.h"

namespace poolnet::server {
namespace {

storage::Event make_event(std::uint64_t id, std::initializer_list<double> vs) {
  storage::Event e;
  e.id = id;
  e.source = static_cast<net::NodeId>(id * 7 % 100);
  for (double v : vs) e.values.push_back(v);
  e.detected_at = static_cast<double>(id) * 0.5;
  return e;
}

TEST(WireTest, RequestRoundTrip) {
  const auto bytes =
      encode_request(FrameType::Query, 42, "SELECT WHERE a0 IN [0.1, 0.9]");
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_TRUE(dec.next(&frame));
  EXPECT_EQ(frame.type, FrameType::Query);
  PayloadReader r(frame.payload);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_EQ(r.rest_text(), "SELECT WHERE a0 IN [0.1, 0.9]");
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(dec.next(&frame));
  EXPECT_FALSE(dec.corrupt());
}

TEST(WireTest, ByteAtATimeFragmentation) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto f = encode_request(FrameType::Insert, id,
                                  "INSERT VALUES (0.1, 0.2, 0.3)");
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder dec;
  std::vector<std::uint64_t> seen;
  for (const std::uint8_t b : stream) {
    dec.feed(&b, 1);
    Frame frame;
    while (dec.next(&frame)) {
      PayloadReader r(frame.payload);
      seen.push_back(r.u64());
    }
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(dec.corrupt());
}

TEST(WireTest, CoalescedFramesDecodeIndividually) {
  std::vector<std::uint8_t> stream;
  const auto a = encode_result(7, ResultKind::Insert, {1, 2, 3, 4});
  const auto b = encode_error(8, ErrorCode::ServerBusy, "busy");
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  Frame frame;
  ASSERT_TRUE(dec.next(&frame));
  EXPECT_EQ(frame.type, FrameType::Result);
  ASSERT_TRUE(dec.next(&frame));
  EXPECT_EQ(frame.type, FrameType::Error);
  PayloadReader r(frame.payload);
  EXPECT_EQ(r.u64(), 8u);
  EXPECT_EQ(static_cast<ErrorCode>(r.u16()), ErrorCode::ServerBusy);
  EXPECT_EQ(r.rest_text(), "busy");
}

TEST(WireTest, ZeroLengthFrameIsCorrupt) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  FrameDecoder dec;
  dec.feed(zeros, sizeof(zeros));
  Frame frame;
  EXPECT_FALSE(dec.next(&frame));
  EXPECT_TRUE(dec.corrupt());
}

TEST(WireTest, OversizedFrameIsCorrupt) {
  std::vector<std::uint8_t> header;
  put_u32(header, kMaxFrameBytes + 1);
  FrameDecoder dec;
  dec.feed(header.data(), header.size());
  Frame frame;
  EXPECT_FALSE(dec.next(&frame));
  EXPECT_TRUE(dec.corrupt());
}

TEST(WireTest, PayloadReaderShortReadSticks) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  PayloadReader r(three);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // still zero after the sticky error
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, EventsRoundTripExactly) {
  std::vector<storage::Event> events;
  events.push_back(make_event(1, {0.25, 0.5, 0.75}));
  events.push_back(make_event(999, {0.0, 1.0, 0.3333333333333333}));
  const auto bytes = encode_events(events);
  std::vector<storage::Event> back;
  ASSERT_TRUE(decode_events(bytes, &back));
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(back[i].id, events[i].id);
    EXPECT_EQ(back[i].source, events[i].source);
    EXPECT_EQ(back[i].values, events[i].values);
    EXPECT_EQ(back[i].detected_at, events[i].detected_at);
  }
  // Deterministic bytes: re-encoding is identical.
  EXPECT_EQ(encode_events(back), bytes);
}

// Golden bytes: the answer layout written out by hand, so any change to
// field order, width or endianness fails here even when encode and
// decode change together.
double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

TEST(WireTest, EncodeEventsGoldenBytes) {
  EXPECT_EQ(encode_events({}), (std::vector<std::uint8_t>{0, 0, 0, 0}));

  storage::Event one;
  one.id = 0x0102030405060708ULL;
  one.source = 0x0A0B0C0D;
  one.values.push_back(1.0);
  one.detected_at = from_bits(0x0123456789ABCDEFULL);
  const std::vector<std::uint8_t> one_bytes = {
      0x01, 0x00, 0x00, 0x00,                          // count
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
      0x0D, 0x0C, 0x0B, 0x0A,                          // source
      0x01,                                            // dims
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // 1.0
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // detected_at bits
  };
  EXPECT_EQ(encode_events({one}), one_bytes);

  storage::Event eight;
  eight.id = 7;
  eight.source = 300;
  for (const std::uint64_t bits :
       {0x8000000000000000ULL,    // -0.0
        0x0000000000000001ULL,    // smallest subnormal
        0x7FF8000000000ABCULL,    // quiet NaN with a payload
        0x3FE0000000000000ULL,    // 0.5
        0x3FB999999999999AULL,    // 0.1
        0x7FEFFFFFFFFFFFFFULL,    // largest finite
        0xFFF0000000000000ULL,    // -inf
        0x000FFFFFFFFFFFFFULL})   // largest subnormal
    eight.values.push_back(from_bits(bits));
  eight.detected_at = from_bits(0xC08F400000000000ULL);  // -1000.0
  const std::vector<std::uint8_t> eight_bytes = {
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // id
      0x2C, 0x01, 0x00, 0x00,                          // source
      0x08,                                            // dims
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // subnormal
      0xBC, 0x0A, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // NaN payload
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // 0.5
      0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xB9, 0x3F,  // 0.1
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0x7F,  // largest finite
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xFF,  // -inf
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00,  // largest subnormal
      0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x8F, 0xC0,  // detected_at
  };
  std::vector<std::uint8_t> both = {0x02, 0x00, 0x00, 0x00};
  both.insert(both.end(), one_bytes.begin() + 4, one_bytes.end());
  both.insert(both.end(), eight_bytes.begin(), eight_bytes.end());
  EXPECT_EQ(encode_events({one, eight}), both);
}

TEST(WireTest, EncodeResultGoldenBytes) {
  const std::vector<std::uint8_t> empty_answer = {
      0x0E, 0x00, 0x00, 0x00,                          // length: 1 + 13
      0x04,                                            // FrameType::Result
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // request id
      0x01,                                            // ResultKind::Query
      0x00, 0x00, 0x00, 0x00,                          // zero events
  };
  EXPECT_EQ(encode_result(0x1122334455667788ULL, ResultKind::Query,
                          encode_events({})),
            empty_answer);
  EXPECT_EQ(encode_query_result(0x1122334455667788ULL, {}), empty_answer);

  const std::vector<std::uint8_t> insert_ack = {
      0x0E, 0x00, 0x00, 0x00, 0x04,                    // length, Result
      0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request id 42
      0x02,                                            // ResultKind::Insert
      0xD2, 0x04, 0x00, 0x00,                          // node 1234
  };
  EXPECT_EQ(encode_result(42, ResultKind::Insert, {0xD2, 0x04, 0x00, 0x00}),
            insert_ack);

  // A body of 300 bytes: the length field crosses its first byte.
  const std::vector<std::uint8_t> body(300, 0x5A);
  const auto frame = encode_result(1, ResultKind::Metrics, body);
  ASSERT_EQ(frame.size(), 4u + 1 + 8 + 1 + 300);
  EXPECT_EQ((std::vector<std::uint8_t>(frame.begin(), frame.begin() + 14)),
            (std::vector<std::uint8_t>{0x36, 0x01, 0x00, 0x00, 0x04, 0x01,
                                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                       0x00, 0x03}));
  EXPECT_TRUE(std::equal(body.begin(), body.end(), frame.begin() + 14));
}

TEST(WireTest, QueryResultFrameEqualsEncodedBody) {
  std::vector<storage::Event> events;
  events.push_back(make_event(1, {0.25}));
  events.push_back(make_event(2, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}));
  events.push_back(make_event(3, {0.0, 1.0, 0.5}));
  EXPECT_EQ(encode_query_result(99, events),
            encode_result(99, ResultKind::Query, encode_events(events)));
}

TEST(WireTest, DecodeEventsRejectsTruncation) {
  const auto bytes = encode_events({make_event(5, {0.1, 0.2})});
  std::vector<storage::Event> back;
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_events(prefix, &back)) << "cut=" << cut;
  }
}

// --- query language -------------------------------------------------------

TEST(QueryLanguageTest, ParsesFullAndPartialSelects) {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery q{one};
  std::string error;
  ASSERT_TRUE(parse_select(
      "SELECT WHERE a0 IN [0.1, 0.4] AND a2 IN [0.5, 0.5]", 3, &q, &error))
      << error;
  EXPECT_EQ(q.dims(), 3u);
  EXPECT_TRUE(q.specified(0));
  EXPECT_FALSE(q.specified(1));
  EXPECT_TRUE(q.specified(2));
  EXPECT_DOUBLE_EQ(q.bound(0).lo, 0.1);
  EXPECT_DOUBLE_EQ(q.bound(0).hi, 0.4);
  EXPECT_DOUBLE_EQ(q.bound(1).lo, 0.0);  // don't-care rewritten to [0,1]
  EXPECT_DOUBLE_EQ(q.bound(1).hi, 1.0);

  // Bare SELECT: every dimension is a don't-care.
  ASSERT_TRUE(parse_select("select", 3, &q, &error)) << error;
  EXPECT_EQ(q.specified_count(), 0u);
}

TEST(QueryLanguageTest, IsCaseInsensitive) {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery q{one};
  std::string error;
  EXPECT_TRUE(parse_select("select where A1 in [ 0.2 , 0.8 ]", 2, &q, &error))
      << error;
  EXPECT_TRUE(q.specified(1));
}

TEST(QueryLanguageTest, RejectsBadSelects) {
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery q{one};
  std::string error;
  const char* bad[] = {
      "",                                          // no verb
      "DROP TABLE events",                         // wrong verb
      "SELECT WHERE",                              // empty clause list
      "SELECT WHERE a0 IN [0.1, 0.9] AND",         // dangling AND
      "SELECT WHERE a9 IN [0.1, 0.9]",             // attribute out of range
      "SELECT WHERE a0 IN [0.9, 0.1]",             // hi < lo
      "SELECT WHERE a0 IN [0.1, 1.5]",             // out of unit range
      "SELECT WHERE a0 IN [0.1, 0.9] AND a0 IN [0.2, 0.3]",  // duplicate
      "SELECT WHERE a0 IN [0.1 0.9]",              // missing comma
      "SELECT WHERE a0 IN 0.1, 0.9",               // missing brackets
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_select(text, 3, &q, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(QueryLanguageTest, SelectTextRoundTrips) {
  storage::RangeQuery::Bounds bounds;
  FixedVec<bool, storage::kMaxDims> specified;
  bounds.push_back(ClosedInterval{1.0 / 3.0, 2.0 / 3.0});
  specified.push_back(true);
  bounds.push_back(ClosedInterval{0.0, 1.0});
  specified.push_back(false);
  bounds.push_back(ClosedInterval{0.123456789012345, 0.9});
  specified.push_back(true);
  const storage::RangeQuery q(bounds, specified);

  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::RangeQuery back{one};
  std::string error;
  ASSERT_TRUE(parse_select(to_select_text(q), 3, &back, &error)) << error;
  EXPECT_EQ(back, q);
}

TEST(QueryLanguageTest, ParsesAndRejectsInserts) {
  storage::Values values;
  std::string error;
  ASSERT_TRUE(parse_insert("INSERT VALUES (0.1, 0.2, 0.3)", 3, &values,
                           &error))
      << error;
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], 0.2);

  const char* bad[] = {
      "INSERT VALUES (0.1, 0.2)",         // too few for dims=3
      "INSERT VALUES (0.1, 0.2, 0.3, 0.4)",  // too many
      "INSERT VALUES (0.1, 0.2, 1.5)",    // out of unit range
      "INSERT VALUES 0.1, 0.2, 0.3",      // missing parens
      "INSERT VALUES (0.1, 0.2, 0.3) x",  // trailing tokens
      "INSERT (0.1, 0.2, 0.3)",           // missing VALUES
  };
  for (const char* text : bad)
    EXPECT_FALSE(parse_insert(text, 3, &values, &error)) << text;
}

}  // namespace
}  // namespace poolnet::server
