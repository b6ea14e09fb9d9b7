#include "sip/headers.h"

#include <gtest/gtest.h>

namespace scidive::sip {
namespace {

TEST(Headers, AddAndGet) {
  Headers h;
  h.add("Via", "SIP/2.0/UDP a");
  h.add("Via", "SIP/2.0/UDP b");
  h.add("Call-ID", "xyz");
  EXPECT_EQ(h.get("Via"), "SIP/2.0/UDP a");
  EXPECT_EQ(h.get_all("Via").size(), 2u);
  EXPECT_EQ(h.count("Via"), 2u);
  EXPECT_FALSE(h.get("Contact").has_value());
}

TEST(Headers, CaseInsensitiveLookup) {
  Headers h;
  h.add("Content-Length", "42");
  EXPECT_EQ(h.get("content-length"), "42");
  EXPECT_EQ(h.get("CONTENT-LENGTH"), "42");
}

TEST(Headers, CompactFormsResolve) {
  Headers h;
  h.add("v", "SIP/2.0/UDP a");
  h.add("i", "call-1");
  h.add("f", "<sip:a@x>");
  h.add("t", "<sip:b@x>");
  h.add("m", "<sip:a@10.0.0.1>");
  h.add("l", "0");
  EXPECT_TRUE(h.has("Via"));
  EXPECT_TRUE(h.has("Call-ID"));
  EXPECT_TRUE(h.has("From"));
  EXPECT_TRUE(h.has("To"));
  EXPECT_TRUE(h.has("Contact"));
  EXPECT_TRUE(h.has("Content-Length"));
  // And the reverse: long name stored, compact lookup.
  Headers h2;
  h2.add("Via", "x");
  EXPECT_TRUE(h2.has("v"));
}

TEST(Headers, SetReplacesAll) {
  Headers h;
  h.add("Via", "a");
  h.add("Via", "b");
  h.set("Via", "c");
  EXPECT_EQ(h.count("Via"), 1u);
  EXPECT_EQ(h.get("Via"), "c");
}

TEST(Headers, RemoveByCompactForm) {
  Headers h;
  h.add("Via", "a");
  h.remove("v");
  EXPECT_FALSE(h.has("Via"));
}

TEST(NameAddr, ParseWithDisplayName) {
  auto r = NameAddr::parse("\"Alice Smith\" <sip:alice@example.com>;tag=1928301774");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().display_name, "Alice Smith");
  EXPECT_EQ(r.value().uri.user(), "alice");
  EXPECT_EQ(r.value().tag(), "1928301774");
}

TEST(NameAddr, AngleInsideQuotedDisplayName) {
  auto r = NameAddr::parse("\"a<b\" <sip:alice@lab.net>;tag=t");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().display_name, "a<b");
  EXPECT_EQ(r.value().uri.user(), "alice");
  EXPECT_EQ(r.value().tag(), "t");
}

TEST(NameAddr, ParseBareAddrSpec) {
  auto r = NameAddr::parse("sip:bob@example.com;tag=a73kszlfl");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().uri.user(), "bob");
  EXPECT_EQ(r.value().tag(), "a73kszlfl");
}

TEST(NameAddr, ParseAngleNoDisplay) {
  auto r = NameAddr::parse("<sip:carol@chicago.com>");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().display_name.empty());
  EXPECT_FALSE(r.value().tag().has_value());
}

TEST(NameAddr, UriParamsStayInsideAngles) {
  auto r = NameAddr::parse("<sip:carol@chicago.com;transport=udp>;tag=t1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().uri.param("transport"), "udp");
  EXPECT_EQ(r.value().tag(), "t1");
  EXPECT_FALSE(r.value().params.contains("transport"));
}

TEST(NameAddr, RoundTrip) {
  NameAddr na;
  na.display_name = "Bob";
  na.uri = SipUri("bob", "example.com");
  na.set_tag("xyz");
  auto again = NameAddr::parse(na.to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().display_name, "Bob");
  EXPECT_EQ(again.value().uri, na.uri);
  EXPECT_EQ(again.value().tag(), "xyz");
}

TEST(NameAddr, RejectsMalformed) {
  EXPECT_FALSE(NameAddr::parse("<sip:a@b").ok());   // unterminated
  EXPECT_FALSE(NameAddr::parse("garbage").ok());
  EXPECT_FALSE(NameAddr::parse("").ok());
}

TEST(Via, ParseFull) {
  auto r = Via::parse("SIP/2.0/UDP pc33.atlanta.com:5066;branch=z9hG4bK776asdhds;received=1.2.3.4");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().transport, "UDP");
  EXPECT_EQ(r.value().host, "pc33.atlanta.com");
  EXPECT_EQ(r.value().port, 5066);
  EXPECT_EQ(r.value().branch(), "z9hG4bK776asdhds");
  EXPECT_EQ(r.value().params.at("received"), "1.2.3.4");
}

TEST(Via, DefaultPort) {
  auto r = Via::parse("SIP/2.0/UDP host.example.com;branch=z9hG4bK1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().port, 5060);
}

TEST(Via, RoundTrip) {
  Via v;
  v.host = "10.0.0.1";
  v.port = 5060;
  v.params["branch"] = "z9hG4bK42";
  auto again = Via::parse(v.to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().host, "10.0.0.1");
  EXPECT_EQ(again.value().branch(), "z9hG4bK42");
}

TEST(Via, RejectsMalformed) {
  EXPECT_FALSE(Via::parse("").ok());
  EXPECT_FALSE(Via::parse("SIP/1.0/UDP host").ok());
  EXPECT_FALSE(Via::parse("SIP/2.0/UDP").ok());
  EXPECT_FALSE(Via::parse("SIP/2.0/UDP host:badport").ok());
}

TEST(CSeqHeader, ParseAndFormat) {
  auto r = CSeq::parse("314159 INVITE");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().number, 314159u);
  EXPECT_EQ(r.value().method, "INVITE");
  EXPECT_EQ(r.value().to_string(), "314159 INVITE");
}

TEST(CSeqHeader, RejectsMalformed) {
  EXPECT_FALSE(CSeq::parse("INVITE").ok());
  EXPECT_FALSE(CSeq::parse("12").ok());
  EXPECT_FALSE(CSeq::parse("x INVITE").ok());
  EXPECT_FALSE(CSeq::parse("").ok());
}

}  // namespace
}  // namespace scidive::sip
