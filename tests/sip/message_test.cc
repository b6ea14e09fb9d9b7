#include "sip/message.h"

#include <gtest/gtest.h>

namespace scidive::sip {
namespace {

constexpr const char* kInvite =
    "INVITE sip:bob@biloxi.com SIP/2.0\r\n"
    "Via: SIP/2.0/UDP pc33.atlanta.com;branch=z9hG4bK776asdhds\r\n"
    "Max-Forwards: 70\r\n"
    "To: Bob <sip:bob@biloxi.com>\r\n"
    "From: Alice <sip:alice@atlanta.com>;tag=1928301774\r\n"
    "Call-ID: a84b4c76e66710@pc33.atlanta.com\r\n"
    "CSeq: 314159 INVITE\r\n"
    "Contact: <sip:alice@10.0.0.1:5060>\r\n"
    "Content-Type: application/sdp\r\n"
    "Content-Length: 4\r\n"
    "\r\n"
    "v=0\n";

TEST(SipMessage, ParseInvite) {
  auto r = SipMessage::parse(std::string_view(kInvite));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const auto& m = r.value();
  EXPECT_TRUE(m.is_request());
  EXPECT_EQ(m.method(), Method::kInvite);
  EXPECT_EQ(m.request_uri().user(), "bob");
  EXPECT_EQ(m.call_id(), "a84b4c76e66710@pc33.atlanta.com");
  EXPECT_EQ(m.cseq().value().number, 314159u);
  EXPECT_EQ(m.cseq().value().method, "INVITE");
  EXPECT_EQ(m.from().value().uri.user(), "alice");
  EXPECT_EQ(m.from().value().tag(), "1928301774");
  EXPECT_EQ(m.to().value().uri.user(), "bob");
  EXPECT_FALSE(m.to().value().tag().has_value());
  EXPECT_EQ(m.top_via().value().branch(), "z9hG4bK776asdhds");
  EXPECT_EQ(m.max_forwards(), 70u);
  EXPECT_EQ(m.body(), "v=0\n");
  EXPECT_TRUE(m.well_formed());
}

TEST(SipMessage, ParseResponse) {
  std::string text =
      "SIP/2.0 401 Unauthorized\r\n"
      "Via: SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK1\r\n"
      "From: <sip:a@x>;tag=1\r\n"
      "To: <sip:a@x>;tag=2\r\n"
      "Call-ID: c1\r\n"
      "CSeq: 1 REGISTER\r\n"
      "WWW-Authenticate: Digest realm=\"purdue\", nonce=\"abc\"\r\n"
      "Content-Length: 0\r\n\r\n";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r.value().is_response());
  EXPECT_EQ(r.value().status_code(), 401);
  EXPECT_EQ(r.value().reason(), "Unauthorized");
  EXPECT_EQ(status_class(r.value().status_code()), 4);
  EXPECT_TRUE(r.value().well_formed());
}

TEST(SipMessage, RoundTrip) {
  auto r = SipMessage::parse(std::string_view(kInvite));
  ASSERT_TRUE(r.ok());
  std::string wire = r.value().to_string();
  auto again = SipMessage::parse(wire);
  ASSERT_TRUE(again.ok()) << wire;
  EXPECT_EQ(again.value().method(), Method::kInvite);
  EXPECT_EQ(again.value().call_id(), r.value().call_id());
  EXPECT_EQ(again.value().body(), r.value().body());
  EXPECT_EQ(again.value().to_string(), wire);  // stable serialization
}

TEST(SipMessage, BuildRequest) {
  auto m = SipMessage::request(Method::kBye, SipUri("bob", "10.0.0.2", 5060));
  m.headers().add("Via", "SIP/2.0/UDP 10.0.0.1;branch=z9hG4bK9");
  m.headers().add("From", "<sip:alice@example.com>;tag=11");
  m.headers().add("To", "<sip:bob@example.com>;tag=22");
  m.headers().add("Call-ID", "call-7");
  m.headers().add("CSeq", "2 BYE");
  std::string wire = m.to_string();
  EXPECT_NE(wire.find("BYE sip:bob@10.0.0.2:5060 SIP/2.0\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 0\r\n"), std::string::npos);
  auto parsed = SipMessage::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().well_formed());
}

TEST(SipMessage, SetBodyEmitsContentTypeAndLength) {
  auto m = SipMessage::request(Method::kMessage, SipUri("b", "x"));
  m.set_body("hello bob", "text/plain");
  std::string wire = m.to_string();
  EXPECT_NE(wire.find("Content-Type: text/plain\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 9\r\n"), std::string::npos);
  auto parsed = SipMessage::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().body(), "hello bob");
}

TEST(SipMessage, FoldedHeaderUnfolds) {
  std::string text =
      "OPTIONS sip:x@y SIP/2.0\r\n"
      "Subject: first part\r\n"
      " continued\r\n"
      "Call-ID: c\r\n"
      "\r\n";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().headers().get("Subject"), "first part continued");
}

TEST(SipMessage, BlankLineThenSpaceStartsTheBody) {
  // The empty line ends the headers even when the body's first byte is SP
  // or HTAB: it never folds into what follows.
  for (const char* length : {"", "Content-Length: 6\r\n"}) {
    std::string text = std::string(
                           "MESSAGE sip:bob@lab.net SIP/2.0\r\n"
                           "Call-ID: c\r\n") +
                       length + "\r\n hello";
    auto r = SipMessage::parse(text);
    ASSERT_TRUE(r.ok()) << length << r.error().to_string();
    EXPECT_EQ(r.value().body(), " hello");
    EXPECT_EQ(r.value().call_id(), "c");
  }
  auto tab = SipMessage::parse(std::string_view("MESSAGE sip:bob@lab.net SIP/2.0\r\n\r\n\thi"));
  ASSERT_TRUE(tab.ok());
  EXPECT_EQ(tab.value().body(), "\thi");
}

TEST(SipMessage, CompactHeadersAccepted) {
  std::string text =
      "BYE sip:a@b SIP/2.0\r\n"
      "v: SIP/2.0/UDP h;branch=z9hG4bK5\r\n"
      "f: <sip:x@y>;tag=1\r\n"
      "t: <sip:a@b>;tag=2\r\n"
      "i: compact-call\r\n"
      "CSeq: 5 BYE\r\n"
      "\r\n";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().call_id(), "compact-call");
  EXPECT_TRUE(r.value().well_formed());
}

TEST(SipMessage, ContentLengthGovernsBody) {
  std::string text =
      "MESSAGE sip:a@b SIP/2.0\r\n"
      "Call-ID: c\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hellothere";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().body(), "hello");
}

TEST(SipMessage, BodyShorterThanContentLengthFails) {
  std::string text =
      "MESSAGE sip:a@b SIP/2.0\r\n"
      "Content-Length: 50\r\n"
      "\r\n"
      "short";
  auto r = SipMessage::parse(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kTruncated);
}

TEST(SipMessage, RejectsMalformed) {
  EXPECT_FALSE(SipMessage::parse(std::string_view("")).ok());
  EXPECT_FALSE(SipMessage::parse(std::string_view("\r\n\r\n")).ok());
  EXPECT_FALSE(SipMessage::parse(std::string_view("INVITE sip:a@b\r\n\r\n")).ok());  // 2 tokens
  EXPECT_FALSE(SipMessage::parse(std::string_view("INVITE sip:a@b SIP/1.0\r\n\r\n")).ok());
  EXPECT_FALSE(SipMessage::parse(std::string_view("SIP/2.0 99 Too Low\r\n\r\n")).ok());
  EXPECT_FALSE(SipMessage::parse(std::string_view("INVITE sip:a@b SIP/2.0\r\nbadheader\r\n\r\n")).ok());
  EXPECT_FALSE(SipMessage::parse(std::string_view("INVITE sip:a@b SIP/2.0\r\nX: 1\r\n")).ok());  // no blank line
}

TEST(SipMessage, UnknownMethodPreserved) {
  std::string text =
      "SUBSCRIBE sip:a@b SIP/2.0\r\n"
      "Call-ID: c\r\n"
      "\r\n";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().method(), Method::kUnknown);
  EXPECT_EQ(r.value().method_text(), "SUBSCRIBE");
  EXPECT_NE(r.value().to_string().find("SUBSCRIBE sip:a@b SIP/2.0"), std::string::npos);
}

TEST(SipMessage, WellFormedRequiresCseqMethodMatch) {
  std::string text =
      "BYE sip:a@b SIP/2.0\r\n"
      "Via: SIP/2.0/UDP h;branch=z9hG4bK5\r\n"
      "From: <sip:x@y>;tag=1\r\n"
      "To: <sip:a@b>;tag=2\r\n"
      "Call-ID: c\r\n"
      "CSeq: 5 INVITE\r\n"
      "\r\n";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().well_formed());
}

TEST(SipMessage, WellFormedFalseWhenHeadersMissing) {
  std::string text =
      "INVITE sip:a@b SIP/2.0\r\n"
      "Call-ID: c\r\n"
      "\r\n";
  auto r = SipMessage::parse(text);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().well_formed());
}

TEST(MethodNames, RoundTrip) {
  for (Method m : {Method::kInvite, Method::kAck, Method::kBye, Method::kCancel,
                   Method::kRegister, Method::kOptions, Method::kMessage, Method::kInfo}) {
    EXPECT_EQ(method_from_name(method_name(m)), m);
  }
  EXPECT_EQ(method_from_name("invite"), Method::kUnknown);  // case-sensitive token
  EXPECT_EQ(method_from_name(""), Method::kUnknown);
}

}  // namespace
}  // namespace scidive::sip
