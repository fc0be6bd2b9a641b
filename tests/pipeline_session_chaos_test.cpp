// Session-over-chaos integration tests: the two-party choreography runs on
// top of the ARQ layer (ReliableChannel) over a seeded fault injector
// (FaultyChannel). A lossy-but-alive channel must heal to the *same* keys a
// clean channel produces (exactly-once in-order delivery means the fault
// pattern never reaches the protocol); a dead channel must end in typed
// aborts on both sides instead of a hang or an unwind.
#include "pipeline/session.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <utility>

#include "common/error.hpp"
#include "engine/sim_adapter.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/reliable_channel.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::pipeline {
namespace {

using engine::BlockInput;
using engine::PostprocessParams;

/// Block 1 of a simulated link.
BlockInput simulate_link(double km, std::uint64_t seed, std::size_t pulses) {
  sim::LinkConfig link;
  link.channel.length_km = km;
  Xoshiro256 rng(seed);
  const sim::Bb84Simulator simulator(link);
  return engine::make_block_input(simulator.run(pulses, rng), 1);
}

struct ChaosRun {
  SessionResult alice;
  SessionResult bob;
};

/// Run one session with `profile` injected under the ARQ layer on both
/// directions. The fault and jitter seeds are fixed per run index so a
/// repeat with the same arguments replays the same injected pattern.
ChaosRun run_chaos_session(const BlockInput& input,
                           const PostprocessParams& params,
                           const protocol::FaultProfile& profile,
                           const protocol::RetryPolicy& retry,
                           std::uint64_t fault_seed) {
  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  auto faulty_alice = protocol::make_faulty_channel(std::move(raw_alice),
                                                    profile, fault_seed);
  auto faulty_bob = protocol::make_faulty_channel(std::move(raw_bob), profile,
                                                  fault_seed + 1);
  protocol::ReliableChannel alice_channel(std::move(faulty_alice), retry,
                                          fault_seed + 2);
  protocol::ReliableChannel bob_channel(std::move(faulty_bob), retry,
                                        fault_seed + 3);

  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(777);
    auto r = run_alice_session(alice_channel, input.log, 1, params, rng);
    // Close inside the task: close() lingers to retransmit an unacked
    // final frame while the peer is still listening.
    alice_channel.close();
    return r;
  });
  ChaosRun run;
  run.bob = run_bob_session(bob_channel, input.report, input.bob_bits, params);
  bob_channel.close();
  run.alice = alice_future.get();
  return run;
}

TEST(SessionChaos, LossyChannelHealsToCleanChannelKeys) {
  const auto data = simulate_link(25.0, 300, 1 << 19);
  // Cascade: hundreds of parity round-trips, so the lossy profile is
  // statistically guaranteed to hit the wire many times (an LDPC session
  // is ~a dozen frames — a zero-fault run would be a coin flip away).
  PostprocessParams params;
  params.method = protocol::ReconcileMethod::kCascade;
  const protocol::RetryPolicy retry;
  // The clean run asserts zero retransmits, which holds only if no receive
  // wait times out: its retransmit timer sits far above scheduler noise, so
  // a peer descheduled for a few ms on a loaded host is not taken for a
  // lost frame. The policy never touches payload bytes.
  protocol::RetryPolicy patient;
  patient.base_timeout = std::chrono::seconds(1);
  patient.max_timeout = std::chrono::seconds(1);

  // Reference: the same block over a fault-free stack (ARQ still in the
  // path, so framing overhead is identical — only the faults differ).
  const ChaosRun clean =
      run_chaos_session(data, params, protocol::FaultProfile{}, patient, 40);
  ASSERT_TRUE(clean.alice.success) << clean.alice.abort_reason;
  ASSERT_TRUE(clean.bob.success) << clean.bob.abort_reason;
  ASSERT_EQ(clean.alice.final_key, clean.bob.final_key);
  EXPECT_EQ(clean.alice.channel.retransmits, 0u);

  protocol::FaultProfile lossy;
  lossy.drop = 0.05;
  lossy.corrupt = 0.01;
  lossy.duplicate = 0.02;
  lossy.reorder = 0.02;
  const ChaosRun chaotic = run_chaos_session(data, params, lossy, retry, 41);
  ASSERT_TRUE(chaotic.alice.success) << chaotic.alice.abort_reason;
  ASSERT_TRUE(chaotic.bob.success) << chaotic.bob.abort_reason;

  // The ARQ layer healed every injected fault: the protocol transcript —
  // and with the same Alice seed, the final key — is byte-identical to the
  // clean run's. Retransmission shows up only in the counters.
  EXPECT_EQ(chaotic.alice.final_key, clean.alice.final_key);
  EXPECT_EQ(chaotic.bob.final_key, clean.bob.final_key);
  const auto chaos_counters = chaotic.alice.channel;  // already folded
  EXPECT_GT(chaos_counters.retransmits + chaotic.bob.channel.retransmits, 0u);
  EXPECT_GT(chaos_counters.faults_injected +
                chaotic.bob.channel.faults_injected,
            0u);
}

TEST(SessionChaos, SameSeedFaultRunsProduceIdenticalKeys) {
  const auto data = simulate_link(25.0, 301, 1 << 19);
  const PostprocessParams params;
  const protocol::RetryPolicy retry;
  protocol::FaultProfile lossy;
  lossy.drop = 0.08;
  lossy.corrupt = 0.02;
  lossy.reorder = 0.03;

  const ChaosRun first = run_chaos_session(data, params, lossy, retry, 70);
  const ChaosRun second = run_chaos_session(data, params, lossy, retry, 70);
  ASSERT_TRUE(first.alice.success) << first.alice.abort_reason;
  ASSERT_TRUE(second.alice.success) << second.alice.abort_reason;
  EXPECT_EQ(first.alice.final_key, second.alice.final_key);
  EXPECT_EQ(first.bob.final_key, second.bob.final_key);
  EXPECT_EQ(first.alice.key_id, second.alice.key_id);
}

TEST(SessionChaos, ChannelOutageIsTypedAbortOnBothSides) {
  const auto data = simulate_link(25.0, 302, 1 << 18);
  const PostprocessParams params;
  protocol::FaultProfile dead;
  dead.drop = 1.0;  // nothing crosses, in either direction
  protocol::RetryPolicy retry;
  retry.base_timeout = std::chrono::microseconds{500};
  retry.exchange_deadline = std::chrono::milliseconds{150};

  const ChaosRun run = run_chaos_session(data, params, dead, retry, 90);
  // Both sides abort with a *typed* fault — no hang, no unwound exception,
  // no key material on either end.
  EXPECT_FALSE(run.alice.success);
  EXPECT_FALSE(run.bob.success);
  ASSERT_TRUE(run.alice.fault_code.has_value());
  ASSERT_TRUE(run.bob.fault_code.has_value());
  for (const auto code : {*run.alice.fault_code, *run.bob.fault_code}) {
    EXPECT_TRUE(code == ErrorCode::kTimeout ||
                code == ErrorCode::kChannelClosed)
        << to_string(code);
  }
  EXPECT_TRUE(run.alice.final_key.empty());
  EXPECT_TRUE(run.bob.final_key.empty());
  EXPECT_GT(run.alice.channel.retry_timeouts + run.bob.channel.retry_timeouts,
            0u);
}

}  // namespace
}  // namespace qkdpp::pipeline
