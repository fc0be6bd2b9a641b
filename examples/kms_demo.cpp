// KMS + two-party session demo: distill keys over an authenticated channel
// and consume them through the ETSI-014-style key store.
//
//   $ ./examples/kms_demo
//
// Alice and Bob run real post-processing sessions on two threads over an
// in-process classical channel wrapped with Wegman-Carter authentication.
// Distilled keys land in per-endpoint KeyStores; the demo then plays a
// secure-application pair: one side requests a key (get_key), tells the
// other its id, the peer fetches the same key (get_key_with_id), and a
// message crosses one-time-pad encrypted.
#include <cstdio>
#include <future>
#include <string>

#include "engine/sim_adapter.hpp"
#include "pipeline/kms.hpp"
#include "pipeline/session.hpp"
#include "protocol/auth_channel.hpp"
#include "sim/bb84.hpp"

int main() {
  using namespace qkdpp;

  // --- pre-shared authentication keys (bootstrap secret) -----------------
  Xoshiro256 pool_rng(1);
  const BitVec a2b = pool_rng.random_bits(auth::kTagKeyBits * 4096);
  const BitVec b2a = pool_rng.random_bits(auth::kTagKeyBits * 4096);
  auth::KeyPool alice_send(a2b), alice_recv(b2a);
  auth::KeyPool bob_send(b2a), bob_recv(a2b);

  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  protocol::AuthenticatedChannel alice_channel(std::move(raw_alice),
                                               alice_send, alice_recv);
  protocol::AuthenticatedChannel bob_channel(std::move(raw_bob), bob_send,
                                             bob_recv);

  // --- simulate the quantum layer and run two distillation blocks --------
  sim::LinkConfig link;
  link.channel.length_km = 15.0;
  const sim::Bb84Simulator simulator(link);

  pipeline::KeyStore alice_kms, bob_kms;
  const engine::PostprocessParams params{};

  std::printf("distilling keys over an authenticated channel (15 km)...\n");
  for (std::uint64_t block = 1; block <= 2; ++block) {
    Xoshiro256 link_rng(100 + block);
    const engine::BlockInput input =
        engine::make_block_input(simulator.run(1 << 20, link_rng), block);

    auto alice_future = std::async(std::launch::async, [&] {
      Xoshiro256 rng(500 + block);
      return pipeline::run_alice_session(alice_channel, input.log, block,
                                         params, rng);
    });
    const auto bob = pipeline::run_bob_session(bob_channel, input.report,
                                               input.bob_bits, params);
    const auto alice = alice_future.get();

    if (!alice.success || !bob.success) {
      std::printf("  block %llu aborted: %s\n",
                  static_cast<unsigned long long>(block),
                  alice.abort_reason.c_str());
      continue;
    }
    const auto alice_id = alice_kms.deposit(alice.final_key).key_id;
    const auto bob_id = bob_kms.deposit(bob.final_key).key_id;
    std::printf("  block %llu: %zu secret bits (QBER %.2f%%, EC leak %llu, "
                "kms ids %llu/%llu)\n",
                static_cast<unsigned long long>(block),
                alice.final_key.size(), alice.qber_estimate * 100,
                static_cast<unsigned long long>(alice.leak_ec_bits),
                static_cast<unsigned long long>(alice_id),
                static_cast<unsigned long long>(bob_id));
  }

  std::printf("\nKMS state: alice %zu keys / %llu bits, bob %zu keys / %llu "
              "bits\n",
              alice_kms.keys_available(),
              static_cast<unsigned long long>(alice_kms.bits_available()),
              bob_kms.keys_available(),
              static_cast<unsigned long long>(bob_kms.bits_available()));
  std::printf("auth key consumed: %llu bits (replenishable from distilled "
              "key)\n\n",
              static_cast<unsigned long long>(alice_send.total_consumed() +
                                              alice_recv.total_consumed()));

  // --- application pattern: encrypt one message with a designated key ----
  const auto alice_key = alice_kms.get_key();
  if (!alice_key.has_value()) {
    std::printf("no key available\n");
    return 1;
  }
  const auto bob_key = bob_kms.get_key_with_id(alice_key->key_id);
  if (!bob_key.has_value() || bob_key->bits != alice_key->bits) {
    std::printf("key designation failed\n");
    return 1;
  }

  const std::string message = "attack at dawn? no - keys at dawn.";
  std::string ciphertext = message;
  for (std::size_t i = 0; i < ciphertext.size() * 8 &&
                          i < alice_key->bits.size();
       ++i) {
    if (alice_key->bits.get(i)) ciphertext[i / 8] ^= char(1 << (i % 8));
  }
  std::string decrypted = ciphertext;
  for (std::size_t i = 0; i < decrypted.size() * 8 && i < bob_key->bits.size();
       ++i) {
    if (bob_key->bits.get(i)) decrypted[i / 8] ^= char(1 << (i % 8));
  }
  std::printf("one-time-pad demo with kms key %llu:\n  plaintext : %s\n"
              "  decrypted : %s\n",
              static_cast<unsigned long long>(alice_key->key_id),
              message.c_str(), decrypted.c_str());
  return decrypted == message ? 0 : 1;
}
