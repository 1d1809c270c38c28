// Secure deployment walkthrough: the two-phase authentication protocol (§4.3) end to
// end, including the failure paths —
//   * a tampered aggregator image failing attestation (phase I),
//   * an impersonated aggregator failing the token challenge (phase II),
//   * what a rogue hypervisor admin sees (ciphertext),
//   * what a full SEV breach yields (shuffled fragments only).
#include <cstdio>

#include "core/deta_job.h"
#include "crypto/sha256.h"
#include "net/codec.h"

using namespace deta;

int main() {
  crypto::SecureRng rng(StringToBytes("secure-deployment-demo"));

  std::printf("== Phase I: launching trustworthy aggregators ==\n");
  cc::RemoteAttestationService ras(rng);  // "AMD RAS"
  Bytes good_image = StringToBytes("deta-aggregator-image-v1");
  cc::AttestationProxy proxy(ras.RootKey(), crypto::Sha256Digest(good_image),
                             crypto::SecureRng(rng.NextBytes(32)));

  cc::SevPlatform platform("platform0", ras, rng);
  auto cvm = platform.LaunchPausedCvm("aggregator0", good_image);
  auto provision = proxy.VerifyAndProvision(platform, *cvm);
  std::printf("  genuine image:   attestation %s\n", provision.ok ? "PASSED" : "failed");

  // A tampered build (e.g. with collusion code) has a different measurement.
  Bytes evil_image = good_image;
  evil_image.push_back('!');
  auto evil_cvm = platform.LaunchPausedCvm("evil-aggregator", evil_image);
  auto evil_result = proxy.VerifyAndProvision(platform, *evil_cvm);
  std::printf("  tampered image:  attestation %s (%s)\n",
              evil_result.ok ? "passed?!" : "REJECTED", evil_result.failure_reason.c_str());

  // A platform without AMD-rooted certificates cannot attest either.
  crypto::SecureRng rogue_rng(StringToBytes("rogue"));
  cc::RemoteAttestationService rogue_ras(rogue_rng);
  cc::SevPlatform rogue_platform("rogue-host", rogue_ras, rogue_rng);
  auto rogue_cvm = rogue_platform.LaunchPausedCvm("rogue-agg", good_image);
  auto rogue_result = proxy.VerifyAndProvision(rogue_platform, *rogue_cvm);
  std::printf("  forged platform: attestation %s (%s)\n",
              rogue_result.ok ? "passed?!" : "REJECTED", rogue_result.failure_reason.c_str());

  std::printf("\n== Phase II: party-side verification ==\n");
  net::MessageBus bus;
  auto party = bus.CreateEndpoint("party0");
  auto agg = bus.CreateEndpoint("aggregator0");
  Secret<crypto::BigUint> token_private(
      crypto::BigUint::FromBytes(*cvm->GuestRead(cc::kTokenRegion)));

  // The aggregator thread answers one challenge and one registration.
  std::thread responder([&] {
    crypto::SecureRng agg_rng(StringToBytes("agg"));
    auto challenge = agg->ReceiveType(core::kAuthChallenge);
    core::AnswerChallenge(*agg, *challenge, token_private);
    auto registration = agg->ReceiveType(core::kAuthRegister);
    core::RegistrationCache registrations;
    auto channel = registrations.Accept(*agg, *registration, token_private, agg_rng);
    // Echo one sealed message back across the established channel.
    auto upload = agg->ReceiveType("demo.upload");
    auto opened = channel->second.Open(upload->payload);
    std::printf("  aggregator opened sealed payload: \"%s\"\n",
                opened ? BytesToString(*opened).c_str() : "(failed)");
  });

  crypto::SecureRng party_rng(StringToBytes("party"));
  bool verified = core::VerifyAggregator(*party, "aggregator0",
                                         proxy.TokenRegistry().at("aggregator0"), party_rng);
  std::printf("  challenge/response against provisioned token: %s\n",
              verified ? "VERIFIED" : "failed");
  auto channel = core::RegisterWithAggregator(
      *party, "aggregator0", proxy.TokenRegistry().at("aggregator0"), party_rng);
  std::printf("  registration + authenticated ECDH channel:    %s\n",
              channel ? "ESTABLISHED" : "failed");
  party->Send("aggregator0", "demo.upload",
              channel->Seal(StringToBytes("hello over TLS-equivalent"), party_rng));
  responder.join();

  std::printf("\n== Adversary views ==\n");
  // Simulate the aggregator staging a (transformed) model fragment in CVM memory.
  cvm->GuestWrite("update:party0:r1", StringToBytes("0.91 -0.22 1.37 0.08 ..."));
  auto hypervisor_view = cvm->HypervisorRead("update:party0:r1");
  std::printf("  rogue host admin (SEV intact) sees:  %s...\n",
              ToHex(Bytes(hypervisor_view->begin(), hypervisor_view->begin() + 12)).c_str());
  auto breach = cvm->Breach();
  std::printf("  full SEV breach (worst case) yields: \"%s\"\n",
              BytesToString(breach.at("update:party0:r1")).c_str());
  std::printf(
      "  ...which under DeTA is a partitioned, shuffled fragment: useless for\n"
      "  reconstruction without the party-held mapper and permutation key\n"
      "  (run ./attack_demo to see that quantified).\n");
  return 0;
}
