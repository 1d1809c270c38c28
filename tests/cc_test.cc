#include <gtest/gtest.h>

#include "cc/attestation_proxy.h"
#include "cc/sev.h"
#include "common/check.h"
#include "crypto/sha256.h"

namespace deta::cc {
namespace {

class SevTest : public ::testing::Test {
 protected:
  SevTest()
      : rng_(StringToBytes("sev-test")),
        ras_(rng_),
        platform_("platform0", ras_, rng_),
        image_(StringToBytes("aggregator-image-v1")) {}

  crypto::SecureRng rng_;
  RemoteAttestationService ras_;
  SevPlatform platform_;
  Bytes image_;
};

TEST_F(SevTest, CertChainVerifies) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  AttestationReport report = platform_.GenerateReport(*cvm, rng_.NextBytes(32));
  EXPECT_TRUE(report.chain.Verify(ras_.RootKey()));
}

TEST_F(SevTest, CertChainRejectsWrongRoot) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  AttestationReport report = platform_.GenerateReport(*cvm, rng_.NextBytes(32));
  crypto::SecureRng other_rng(StringToBytes("other"));
  RemoteAttestationService rogue_ras(other_rng);
  EXPECT_FALSE(report.chain.Verify(rogue_ras.RootKey()));
}

TEST_F(SevTest, CertChainRejectsSwappedPek) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  AttestationReport report = platform_.GenerateReport(*cvm, rng_.NextBytes(32));
  // Substitute an attacker-controlled PEK: the ASK signature no longer covers it.
  crypto::EcKeyPair attacker = crypto::GenerateEcKey(rng_);
  report.chain.pek_public = attacker.public_key;
  EXPECT_FALSE(report.chain.Verify(ras_.RootKey()));
}

TEST_F(SevTest, MeasurementIsImageDigest) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  EXPECT_EQ(cvm->measurement(), crypto::Sha256Digest(image_));
  Bytes tampered = image_;
  tampered.push_back(0xff);
  auto evil = platform_.LaunchPausedCvm("cvm1", tampered);
  EXPECT_NE(evil->measurement(), cvm->measurement());
}

TEST_F(SevTest, GuestMemoryEncryptedFromHypervisor) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  platform_.Resume(*cvm);
  Bytes secret = StringToBytes("model update fragment data");
  cvm->GuestWrite("updates", secret);

  auto guest_view = cvm->GuestRead("updates");
  ASSERT_TRUE(guest_view.has_value());
  EXPECT_EQ(*guest_view, secret);

  auto hypervisor_view = cvm->HypervisorRead("updates");
  ASSERT_TRUE(hypervisor_view.has_value());
  EXPECT_NE(*hypervisor_view, secret);  // ciphertext only
  EXPECT_EQ(hypervisor_view->size(), secret.size());
}

TEST_F(SevTest, BreachExposesPlaintext) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  platform_.Resume(*cvm);
  cvm->GuestWrite("a", StringToBytes("alpha"));
  cvm->GuestWrite("b", StringToBytes("beta"));
  auto dump = cvm->Breach();
  EXPECT_EQ(dump.size(), 2u);
  EXPECT_EQ(BytesToString(dump.at("a")), "alpha");
  EXPECT_EQ(BytesToString(dump.at("b")), "beta");
}

TEST_F(SevTest, GuestAccessRequiresRunningState) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  EXPECT_FALSE(cvm->GuestRead("x").has_value());
  EXPECT_THROW(cvm->GuestWrite("x", {}), CheckFailure);
  platform_.Resume(*cvm);
  cvm->GuestWrite("x", StringToBytes("ok"));
  cvm->Terminate();
  EXPECT_FALSE(cvm->GuestRead("x").has_value());
}

TEST_F(SevTest, LaunchSecretInjectionRoundTrip) {
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  Bytes secret = StringToBytes("token-private-key");
  SealedSecret sealed = SealForPlatform(secret, platform_.TransportPublicKey(), rng_);
  EXPECT_TRUE(platform_.InjectLaunchSecret(*cvm, "tok", sealed.ciphertext,
                                           sealed.ephemeral_public));
  platform_.Resume(*cvm);
  auto read = cvm->GuestRead("tok");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, secret);
}

TEST_F(SevTest, LaunchSecretWrongPlatformFails) {
  SevPlatform other("platform1", ras_, rng_);
  auto cvm = platform_.LaunchPausedCvm("cvm0", image_);
  // Sealed for the *other* platform's transport key: this platform cannot unwrap it.
  SealedSecret sealed =
      SealForPlatform(StringToBytes("secret"), other.TransportPublicKey(), rng_);
  EXPECT_FALSE(platform_.InjectLaunchSecret(*cvm, "tok", sealed.ciphertext,
                                            sealed.ephemeral_public));
}

// Pinned at the byte-at-a-time ChaCha20: region encryption runs on the shared keystream
// core, and what a hypervisor reads must not move a bit when that core changes.
TEST(CvmTest, RegionCiphertextDigest) {
  crypto::SecureRng rng(StringToBytes("cvm-kat"));
  RemoteAttestationService ras(rng);
  SevPlatform platform("platform-kat", ras, rng);
  auto cvm = platform.LaunchPausedCvm("cvm-kat", StringToBytes("aggregator-image-v1"));
  platform.Resume(*cvm);
  crypto::Sha256 h;
  for (size_t size : {0, 1, 63, 64, 65, 257, 100003}) {
    std::string region = "region:" + std::to_string(size);
    Bytes plaintext = rng.NextBytes(size);
    cvm->GuestWrite(region, plaintext);
    std::optional<Bytes> ciphertext = cvm->HypervisorRead(region);
    ASSERT_TRUE(ciphertext.has_value());
    ASSERT_EQ(ciphertext->size(), size);
    h.Update(*ciphertext);
    EXPECT_EQ(cvm->GuestRead(region), plaintext);
  }
  auto digest = h.Finish();
  EXPECT_EQ(ToHex(Bytes(digest.begin(), digest.end())),
            "e762113fd9c8400df09b8cef465f5a2ff7fe397a2607bf847725c8920a5e78d8");
}

class AttestationProxyTest : public SevTest {
 protected:
  AttestationProxyTest()
      : proxy_(ras_.RootKey(), crypto::Sha256Digest(image_),
               crypto::SecureRng(StringToBytes("ap"))) {}
  AttestationProxy proxy_;
};

TEST_F(AttestationProxyTest, ProvisionHappyPath) {
  auto cvm = platform_.LaunchPausedCvm("agg0", image_);
  auto result = proxy_.VerifyAndProvision(platform_, *cvm);
  EXPECT_TRUE(result.ok) << result.failure_reason;
  EXPECT_EQ(cvm->state(), Cvm::State::kRunning);
  // Token private key landed in encrypted memory; registry has the public half.
  auto token = cvm->GuestRead(kTokenRegion);
  ASSERT_TRUE(token.has_value());
  crypto::BigUint priv = crypto::BigUint::FromBytes(*token);
  EXPECT_EQ(crypto::Secp256k1::Instance().MulGenerator(priv),
            proxy_.TokenRegistry().at("agg0"));
}

TEST_F(AttestationProxyTest, TamperedImageFailsAttestation) {
  // A malicious aggregator build (e.g. with collusion code) changes the measurement.
  Bytes evil_image = image_;
  evil_image.push_back('!');
  auto cvm = platform_.LaunchPausedCvm("agg0", evil_image);
  auto result = proxy_.VerifyAndProvision(platform_, *cvm);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_reason.find("measurement"), std::string::npos);
  EXPECT_EQ(cvm->state(), Cvm::State::kPaused);  // never resumed
  EXPECT_FALSE(cvm->HypervisorRead(kTokenRegion).has_value());
}

TEST_F(AttestationProxyTest, ForgedPlatformFailsChainVerification) {
  crypto::SecureRng rogue_rng(StringToBytes("rogue"));
  RemoteAttestationService rogue_ras(rogue_rng);
  SevPlatform rogue_platform("rogue", rogue_ras, rogue_rng);
  auto cvm = rogue_platform.LaunchPausedCvm("agg0", image_);
  auto result = proxy_.VerifyAndProvision(rogue_platform, *cvm);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure_reason.find("chain"), std::string::npos);
}

TEST_F(AttestationProxyTest, VerifyReportRejectsStaleNonce) {
  auto cvm = platform_.LaunchPausedCvm("agg0", image_);
  Bytes nonce = rng_.NextBytes(32);
  AttestationReport report = platform_.GenerateReport(*cvm, nonce);
  std::string reason;
  EXPECT_TRUE(proxy_.VerifyReport(report, nonce, &reason)) << reason;
  Bytes other_nonce = rng_.NextBytes(32);
  EXPECT_FALSE(proxy_.VerifyReport(report, other_nonce, &reason));
  EXPECT_NE(reason.find("nonce"), std::string::npos);
}

TEST_F(AttestationProxyTest, VerifyReportRejectsTamperedSignature) {
  auto cvm = platform_.LaunchPausedCvm("agg0", image_);
  Bytes nonce = rng_.NextBytes(32);
  AttestationReport report = platform_.GenerateReport(*cvm, nonce);
  report.signature.s = report.signature.s.Add(crypto::BigUint(1));
  std::string reason;
  EXPECT_FALSE(proxy_.VerifyReport(report, nonce, &reason));
}

}  // namespace
}  // namespace deta::cc
