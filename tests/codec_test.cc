#include "pubsub/codec.h"

#include <gtest/gtest.h>

#include <random>

#include "obs/provenance.h"
#include "pubsub/workload.h"

namespace tmps {
namespace {

Message round_trip(Message m) {
  const std::string bytes = encode_message(m);
  auto back = decode_message(bytes);
  EXPECT_TRUE(back.has_value());
  return back.value_or(Message{});
}

TEST(Codec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.str("");

  Reader r(w.bytes());
  std::uint8_t a;
  std::uint32_t b;
  std::uint64_t c;
  std::int64_t d;
  double e;
  std::string s1, s2;
  ASSERT_TRUE(r.u8(a));
  ASSERT_TRUE(r.u32(b));
  ASSERT_TRUE(r.u64(c));
  ASSERT_TRUE(r.i64(d));
  ASSERT_TRUE(r.f64(e));
  ASSERT_TRUE(r.str(s1));
  ASSERT_TRUE(r.str(s2));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, -42);
  EXPECT_DOUBLE_EQ(e, 3.14159);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
}

TEST(Codec, ReaderStopsAtTruncation) {
  Writer w;
  w.u64(7);
  Reader r(std::string_view(w.bytes()).substr(0, 5));
  std::uint64_t v;
  EXPECT_FALSE(r.u64(v));
  EXPECT_FALSE(r.ok());
  std::uint8_t b;
  EXPECT_FALSE(r.u8(b)) << "errors must be sticky";
}

TEST(Codec, ValueRoundTrip) {
  for (const Value& v :
       {Value{std::int64_t{-123456789}}, Value{2.71828}, Value{"str"},
        Value{""}, Value{std::int64_t{0}}}) {
    Writer w;
    encode(w, v);
    Reader r(w.bytes());
    Value back;
    ASSERT_TRUE(decode(r, back));
    EXPECT_EQ(back.kind(), v.kind());
    EXPECT_TRUE(back.equals(v) || (v.is_string() && back.is_string() &&
                                   back.as_string() == v.as_string()));
  }
}

TEST(Codec, FilterRoundTripPreservesSemantics) {
  const Filter f = workload_filter(WorkloadKind::Tree, 4, 17);
  Writer w;
  encode(w, f);
  Reader r(w.bytes());
  Filter back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_TRUE(f == back);
  EXPECT_TRUE(f.covers(back) && back.covers(f));
  const Publication p = make_publication({1, 1}, 7000, 17);
  EXPECT_EQ(f.matches(p), back.matches(p));
}

TEST(Codec, PublicationRoundTrip) {
  Publication p({42, 7}, {{"class", "STOCK"},
                          {"x", std::int64_t{123}},
                          {"price", 9.5},
                          {"sym", "ACME"}});
  Writer w;
  encode(w, p);
  Reader r(w.bytes());
  Publication back;
  ASSERT_TRUE(decode(r, back));
  EXPECT_TRUE(p == back);
}

TEST(Codec, RoutingMessagesRoundTrip) {
  Message m;
  m.id = 77;
  m.cause = 5;
  m.payload = SubscribeMsg{{{9, 2}, workload_filter(WorkloadKind::Covered, 1)}};
  const Message back = round_trip(m);
  EXPECT_EQ(back.id, 77u);
  EXPECT_EQ(back.cause, 5u);
  const auto* sub = std::get_if<SubscribeMsg>(&back.payload);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->sub.id, (SubscriptionId{9, 2}));
}

TEST(Codec, EveryPayloadAlternativeRoundTrips) {
  const Subscription sub{{3, 1}, workload_filter(WorkloadKind::Chained, 2)};
  const Advertisement adv{{3, 2}, full_space_advertisement()};
  const Publication pub = make_publication({3, 3}, 100, 0);

  std::vector<Payload> payloads = {
      AdvertiseMsg{adv},
      UnadvertiseMsg{adv.id},
      SubscribeMsg{sub},
      UnsubscribeMsg{sub.id},
      PublishMsg{pub},
      MoveNegotiateMsg{11, 3, 1, 5, {sub}, {adv}, 9},
      MoveApproveMsg{11, 3, 1, 5, {sub}, {adv}},
      MoveRejectMsg{11, 3, "no capacity"},
      MoveStateMsg{11, 3, 1, 5, {pub}, {pub}, {sub.id}, {adv.id}},
      MoveAckMsg{11, 3},
      MoveAbortMsg{11, 3, 1, 5, {sub.id}, {adv.id}},
      BufferedStateMsg{11, 3, {pub}, {}},
      TradMoveRequestMsg{11, 3, 1, 5, {sub}, {adv}, 9},
      TradReadyMsg{11, 3},
      TradRejectMsg{11, 3, "nope"},
      RepairDigestMsg{4, 2, {sub.id}, {adv.id}, {sub.id}, {adv.id}},
      RepairRequestMsg{4, 2, {sub.id}, {adv.id}},
      RepairProbeMsg{11, 2},
      RepairVerdictMsg{11, RepairVerdict::Committed, 1, 5, 3},
      SessionOpenMsg{9, 2, true, pub},
      SessionResumeMsg{0x0200000000000007ull, 9, 3},
      SessionAckMsg{0x0200000000000007ull, 9, SessionVerdict::Moving, 11, 2,
                    true, pub},
      SessionHeartbeatMsg{0x0200000000000007ull, 9},
      SessionCloseMsg{0x0200000000000007ull, 9, true},
      SessionForwardMsg{0x0200000000000007ull, 9, 2, {pub, pub}},
  };
  for (auto& p : payloads) {
    Message m;
    m.id = 1;
    m.unicast_dest = 5;
    m.payload = p;
    const std::string bytes = encode_message(m);
    const auto back = decode_message(bytes);
    ASSERT_TRUE(back.has_value()) << m.type_name();
    EXPECT_EQ(back->type_name(), m.type_name());
    EXPECT_EQ(back->unicast_dest, m.unicast_dest);
  }
}

TEST(Codec, SessionMessagesRoundTripFieldForField) {
  const Publication will = make_publication({0, 0}, 250, 3);
  const std::uint64_t tok = (std::uint64_t{3} << 40) | 17;

  {
    Message m;
    m.id = 2;
    m.payload = SessionOpenMsg{42, 3, true, will};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionOpenMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->at, 3u);
    ASSERT_TRUE(b->has_will);
    EXPECT_TRUE(b->will == will);
  }
  {
    // Absent will stays absent — no phantom publication on decode.
    Message m;
    m.id = 2;
    m.payload = SessionOpenMsg{42, 3, false, {}};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionOpenMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->has_will);
  }
  {
    Message m;
    m.id = 3;
    m.unicast_dest = 3;
    m.payload = SessionResumeMsg{tok, 42, 5};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionResumeMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->at, 5u);
  }
  {
    // The Moving ack carries the movement txn and the travelling will.
    Message m;
    m.id = 4;
    m.payload = SessionAckMsg{tok, 42, SessionVerdict::Moving, 77, 3, true,
                              will};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionAckMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->verdict, SessionVerdict::Moving);
    EXPECT_EQ(b->txn, 77u);
    EXPECT_EQ(b->home, 3u);
    ASSERT_TRUE(b->has_will);
    EXPECT_TRUE(b->will == will);
  }
  {
    Message m;
    m.id = 5;
    m.payload = SessionHeartbeatMsg{tok, 42};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionHeartbeatMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
  }
  {
    Message m;
    m.id = 6;
    m.payload = SessionCloseMsg{tok, 42, true};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionCloseMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_TRUE(b->fire_will);
  }
  {
    const Publication p1 = make_publication({9, 1}, 100, 0);
    const Publication p2 = make_publication({9, 2}, 200, 1);
    Message m;
    m.id = 7;
    m.unicast_dest = 5;
    m.payload = SessionForwardMsg{tok, 42, 3, {p1, p2}};
    const Message back = round_trip(m);
    const auto* b = std::get_if<SessionForwardMsg>(&back.payload);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->token, tok);
    EXPECT_EQ(b->client, 42u);
    EXPECT_EQ(b->origin, 3u);
    ASSERT_EQ(b->pubs.size(), 2u);
    EXPECT_TRUE(b->pubs[0] == p1);
    EXPECT_TRUE(b->pubs[1] == p2);
  }
}

TEST(Codec, TruncatedSessionForwardRejected) {
  Message m;
  m.id = 1;
  m.unicast_dest = 2;
  m.payload = SessionForwardMsg{(std::uint64_t{1} << 40) | 5,
                                42,
                                1,
                                {make_publication({9, 1}, 100, 0),
                                 make_publication({9, 2}, 200, 1)}};
  const std::string bytes = encode_message(m);
  ASSERT_TRUE(decode_message(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_message(std::string_view(bytes).substr(0, cut)),
              std::nullopt)
        << "prefix of length " << cut << " must not decode";
  }
}

TEST(Codec, SessionAckBadVerdictRejected) {
  // Hand-rolled frame: header (id, cause, no-dest flag), SessionAck tag,
  // then a verdict byte past the last enumerator. Must reject, not alias.
  Writer w;
  w.u64(1);   // id
  w.u64(0);   // cause
  w.u8(0);    // flags: no dest, no provenance
  w.u8(22);   // SessionAck tag
  w.u64(7);   // token
  w.u64(42);  // client
  w.u8(5);    // verdict: out of range (Unknown == 4)
  w.u64(0);   // txn
  w.u32(1);   // home
  w.u8(0);    // has_will
  EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
}

TEST(Codec, SessionBoolBytesMustBeZeroOrOne) {
  {
    Writer w;  // SessionOpen with has_will = 2
    w.u64(1);
    w.u64(0);
    w.u8(0);
    w.u8(20);  // SessionOpen tag
    w.u64(42);
    w.u32(1);
    w.u8(2);
    EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
  }
  {
    Writer w;  // SessionClose with fire_will = 0xFF
    w.u64(1);
    w.u64(0);
    w.u8(0);
    w.u8(24);  // SessionClose tag
    w.u64(7);
    w.u64(42);
    w.u8(0xFF);
    EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
  }
}

TEST(Codec, ProvenanceTagRoundTrips) {
  Message m;
  m.id = 12;
  m.payload = PublishMsg{make_publication({42, 7}, 100, 0)};
  obs::ProvenanceTag tag;
  tag.trace = obs::pub_trace_id({42, 7});
  tag.origin_time = 1.5;
  tag.last_hop_time = 1.75;
  tag.hops = 3;
  tag.sampled = true;
  m.prov = tag;
  const Message back = round_trip(m);
  ASSERT_TRUE(back.prov.has_value());
  EXPECT_EQ(*back.prov, tag);
  // Absent stays absent — no phantom tag on the decode side.
  m.prov.reset();
  EXPECT_FALSE(round_trip(m).prov.has_value());
}

TEST(Codec, UnknownHeaderFlagBitsRejected) {
  Message m;
  m.id = 1;
  m.payload = PublishMsg{make_publication({1, 1}, 5, 0)};
  std::string bytes = encode_message(m);
  // The flag byte follows the two u64 header fields; setting a bit the
  // decoder doesn't know must reject the frame, not silently misparse.
  bytes[16] = static_cast<char>(bytes[16] | 0x40);
  EXPECT_EQ(decode_message(bytes), std::nullopt);
}

TEST(Codec, TruncatedProvenanceRejected) {
  Message m;
  m.id = 1;
  m.payload = PublishMsg{make_publication({1, 1}, 5, 0)};
  m.prov = obs::make_provenance({1, 1}, 2.0, 1);
  const std::string bytes = encode_message(m);
  ASSERT_TRUE(decode_message(bytes).has_value());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_message(std::string_view(bytes).substr(0, cut)),
              std::nullopt)
        << "prefix of length " << cut << " must not decode";
  }
}

TEST(Codec, TruncatedMessagesRejected) {
  Message m;
  m.id = 1;
  m.payload = PublishMsg{make_publication({1, 1}, 5, 0)};
  const std::string bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(decode_message(std::string_view(bytes).substr(0, cut)),
              std::nullopt)
        << "prefix of length " << cut << " must not decode";
  }
}

TEST(Codec, TrailingGarbageRejected) {
  Message m;
  m.id = 1;
  m.payload = MoveAckMsg{2, 3};
  std::string bytes = encode_message(m);
  bytes += 'x';
  EXPECT_EQ(decode_message(bytes), std::nullopt);
}

TEST(Codec, RandomBytesNeverCrash) {
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 2000; ++round) {
    std::uniform_int_distribution<int> len(0, 200);
    std::string junk(len(rng), '\0');
    for (auto& c : junk) c = static_cast<char>(rng());
    (void)decode_message(junk);  // must not crash or hang
  }
  SUCCEED();
}

TEST(Codec, MutatedValidMessagesNeverCrash) {
  Message m;
  m.id = 9;
  m.cause = 1;
  m.unicast_dest = 3;
  m.payload = MoveStateMsg{11,
                           3,
                           1,
                           5,
                           {make_publication({3, 3}, 100, 0)},
                           {},
                           {{3, 1}},
                           {{3, 2}}};
  const std::string bytes = encode_message(m);
  std::mt19937_64 rng(99);
  for (int round = 0; round < 2000; ++round) {
    std::string mut = bytes;
    const std::size_t at = rng() % mut.size();
    mut[at] = static_cast<char>(rng());
    (void)decode_message(mut);  // decode or reject; never UB
  }
  SUCCEED();
}

TEST(Codec, HostileLengthPrefixRejected) {
  // A string length of 0xFFFFFFFF must not cause a huge allocation.
  Writer w;
  w.u64(1);  // id
  w.u64(0);  // cause
  w.u8(0);   // no dest
  w.u8(8);   // MoveReject tag
  w.u64(1);
  w.u64(2);
  w.u32(0xFFFFFFFFu);  // reason length: hostile
  EXPECT_EQ(decode_message(w.bytes()), std::nullopt);
}

}  // namespace
}  // namespace tmps
