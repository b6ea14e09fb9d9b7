#include "sip/auth.h"

#include <gtest/gtest.h>

namespace scidive::sip {
namespace {

TEST(DigestChallenge, RoundTrip) {
  DigestChallenge c{.realm = "purdue.edu", .nonce = "4a79b2c1"};
  auto parsed = DigestChallenge::parse(c.to_header_value());
  ASSERT_TRUE(parsed.ok()) << c.to_header_value();
  EXPECT_EQ(parsed.value().realm, "purdue.edu");
  EXPECT_EQ(parsed.value().nonce, "4a79b2c1");
}

TEST(DigestChallenge, RejectsNonDigest) {
  EXPECT_FALSE(DigestChallenge::parse("Basic realm=\"x\"").ok());
  EXPECT_FALSE(DigestChallenge::parse("Digest realm=\"x\"").ok());  // no nonce
  EXPECT_FALSE(DigestChallenge::parse("").ok());
}

TEST(DigestCredentials, RoundTrip) {
  DigestCredentials c;
  c.username = "alice";
  c.realm = "purdue.edu";
  c.nonce = "n1";
  c.uri = "sip:purdue.edu";
  c.response = "0123456789abcdef0123456789abcdef";
  auto parsed = DigestCredentials::parse(c.to_header_value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().username, "alice");
  EXPECT_EQ(parsed.value().response, c.response);
}

TEST(DigestCredentials, QuotedCommaStaysInItsValue) {
  auto parsed = DigestCredentials::parse(
      "Digest username=\"alice\", realm=\"lab.net\", nonce=\"n1\", uri=\"sip:lab.net,x\", "
      "response=\"0123456789abcdef0123456789abcdef\"");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().uri, "sip:lab.net,x");
  EXPECT_EQ(parsed.value().response, "0123456789abcdef0123456789abcdef");
}

TEST(DigestCredentials, MissingFieldRejected) {
  EXPECT_FALSE(
      DigestCredentials::parse("Digest username=\"a\", realm=\"r\", nonce=\"n\", uri=\"u\"").ok());
}

TEST(Digest, ChallengeResponseVerifies) {
  DigestChallenge challenge{.realm = "purdue.edu", .nonce = "abc123"};
  auto creds = answer_challenge(challenge, "alice", "secret", "REGISTER", "sip:purdue.edu");
  EXPECT_TRUE(verify_digest(creds, "secret", "REGISTER"));
  EXPECT_FALSE(verify_digest(creds, "wrong", "REGISTER"));
  EXPECT_FALSE(verify_digest(creds, "secret", "INVITE"));  // method bound
}

TEST(Digest, ResponseChangesWithNonce) {
  auto r1 = compute_digest_response("a", "r", "p", "REGISTER", "sip:x", "nonce1");
  auto r2 = compute_digest_response("a", "r", "p", "REGISTER", "sip:x", "nonce2");
  EXPECT_NE(r1, r2);
  EXPECT_EQ(r1.size(), 32u);
}

TEST(Digest, KnownVector) {
  // Hand-computed with the RFC 2617 no-qop formula.
  std::string resp = compute_digest_response("Mufasa", "testrealm@host.com", "Circle Of Life",
                                             "GET", "/dir/index.html",
                                             "dcd98b7102dd2f0e8b11d0f600bfb0c093");
  // no-qop: MD5(HA1:nonce:HA2)
  EXPECT_EQ(resp, "670fd8c2df070c60b045671b8b24ff02");
}

TEST(Digest, BruteForceNeverMatchesWithoutPassword) {
  // The §3.3 password-guessing attack: random responses should not verify.
  DigestChallenge challenge{.realm = "r", .nonce = "fixed"};
  for (int i = 0; i < 50; ++i) {
    auto creds = answer_challenge(challenge, "alice", "guess" + std::to_string(i), "REGISTER",
                                  "sip:r");
    EXPECT_FALSE(verify_digest(creds, "real-password", "REGISTER"));
  }
}

}  // namespace
}  // namespace scidive::sip
