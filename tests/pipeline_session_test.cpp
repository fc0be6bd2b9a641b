// Two-party session integration tests: Alice and Bob on separate threads
// over the in-process channel (raw and Wegman-Carter authenticated),
// producing identical keys - the very keys the engine distills from the
// same block; adversarial paths abort cleanly on both ends.
#include "pipeline/session.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/primitives.hpp"
#include "engine/sim_adapter.hpp"
#include "protocol/auth_channel.hpp"
#include "protocol/faulty_channel.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::pipeline {
namespace {

using engine::BlockInput;
using engine::PostprocessParams;

/// Block 1 of a simulated link.
BlockInput simulate_link(double km, std::uint64_t seed, std::size_t pulses,
                         double intercept = 0.0) {
  sim::LinkConfig link;
  link.channel.length_km = km;
  link.eve.intercept_fraction = intercept;
  Xoshiro256 rng(seed);
  const sim::Bb84Simulator simulator(link);
  return engine::make_block_input(simulator.run(pulses, rng), 1);
}

SessionResult run_bob(protocol::ClassicalChannel& channel,
                      const BlockInput& input,
                      const PostprocessParams& params) {
  return run_bob_session(channel, input.report, input.bob_bits, params);
}

std::pair<SessionResult, SessionResult> run_session(
    const BlockInput& input, const PostprocessParams& params,
    protocol::ClassicalChannel& alice_channel,
    protocol::ClassicalChannel& bob_channel, std::uint64_t alice_seed = 777) {
  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(alice_seed);
    return run_alice_session(alice_channel, input.log, 1, params, rng);
  });
  const SessionResult bob = run_bob(bob_channel, input, params);
  const SessionResult alice = alice_future.get();
  return {alice, bob};
}

TEST(Session, LdpcProducesIdenticalKeys) {
  const auto data = simulate_link(25.0, 100, 1 << 20);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, PostprocessParams{},
                                        *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_FALSE(alice.final_key.empty());
  EXPECT_EQ(alice.final_key, bob.final_key);
  EXPECT_EQ(alice.key_id, bob.key_id);
  EXPECT_EQ(alice.leak_ec_bits, bob.leak_ec_bits);
  EXPECT_EQ(alice.reconciled_bits, bob.reconciled_bits);
  EXPECT_DOUBLE_EQ(alice.qber_estimate, bob.qber_estimate);
}

TEST(Session, CascadeProducesIdenticalKeys) {
  const auto data = simulate_link(25.0, 101, 1 << 20);
  PostprocessParams params;
  params.method = protocol::ReconcileMethod::kCascade;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] =
      run_session(data, params, *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_EQ(alice.final_key, bob.final_key);
  EXPECT_EQ(alice.leak_ec_bits, bob.leak_ec_bits);
  // Cascade's leakage stays under LDPC-typical levels on clean channels but
  // costs many round-trips.
  EXPECT_GT(alice.channel.messages_received, 20u);
}

TEST(Session, AuthenticatedChannelEndToEnd) {
  const auto data = simulate_link(25.0, 102, 1 << 20);
  Xoshiro256 pool_rng(55);
  const BitVec a2b = pool_rng.random_bits(auth::kTagKeyBits * 4096);
  const BitVec b2a = pool_rng.random_bits(auth::kTagKeyBits * 4096);
  auth::KeyPool alice_send(a2b), alice_recv(b2a);
  auth::KeyPool bob_send(b2a), bob_recv(a2b);

  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  protocol::AuthenticatedChannel alice_channel(std::move(raw_alice),
                                               alice_send, alice_recv);
  protocol::AuthenticatedChannel bob_channel(std::move(raw_bob), bob_send,
                                             bob_recv);
  const auto [alice, bob] = run_session(data, PostprocessParams{},
                                        alice_channel, bob_channel);
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  EXPECT_EQ(alice.final_key, bob.final_key);
  // Authentication must have consumed key on both sides, in sync.
  EXPECT_GT(alice_send.total_consumed(), 0u);
  EXPECT_EQ(alice_send.total_consumed(), bob_recv.total_consumed());
  EXPECT_EQ(bob_send.total_consumed(), alice_recv.total_consumed());
}

TEST(Session, InterceptResendAbortsBothSides) {
  const auto data = simulate_link(10.0, 103, 1 << 18, /*intercept=*/1.0);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, PostprocessParams{},
                                        *alice_channel, *bob_channel);
  EXPECT_FALSE(alice.success);
  EXPECT_FALSE(bob.success);
  EXPECT_EQ(alice.abort_reason, "qber above abort threshold");
  EXPECT_EQ(bob.abort_reason, "qber above abort threshold");
  EXPECT_TRUE(alice.final_key.empty());
  EXPECT_TRUE(bob.final_key.empty());
}

TEST(Session, TamperedChannelDetectedByAuthentication) {
  const auto data = simulate_link(25.0, 104, 1 << 18);
  Xoshiro256 pool_rng(56);
  const BitVec a2b = pool_rng.random_bits(auth::kTagKeyBits * 1024);
  const BitVec b2a = pool_rng.random_bits(auth::kTagKeyBits * 1024);
  auth::KeyPool alice_send(a2b), alice_recv(b2a);
  auth::KeyPool bob_send(b2a), bob_recv(a2b);

  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  // Adversary flips one bit in about every 3rd frame Alice sends (with
  // seed 3 the first flip lands on her third frame).
  protocol::FaultProfile adversary;
  adversary.corrupt = 1.0 / 3.0;
  auto tampered =
      protocol::make_faulty_channel(std::move(raw_alice), adversary, 3);
  protocol::AuthenticatedChannel alice_channel(std::move(tampered),
                                               alice_send, alice_recv);
  protocol::AuthenticatedChannel bob_channel(std::move(raw_bob), bob_send,
                                             bob_recv);

  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(777);
    auto r = run_alice_session(alice_channel, data.log, 1,
                               PostprocessParams{}, rng);
    alice_channel.close();
    return r;
  });
  const auto bob = run_bob(bob_channel, data, PostprocessParams{});
  bob_channel.close();
  const auto alice = alice_future.get();

  // Bob rejects the tampered frame with a *typed* abort, not an unwind.
  EXPECT_FALSE(bob.success);
  ASSERT_TRUE(bob.fault_code.has_value());
  EXPECT_EQ(*bob.fault_code, ErrorCode::kAuthentication);
  // Bob's Abort notification reaches Alice, so she aborts too instead of
  // hanging; neither side holds key material.
  EXPECT_FALSE(alice.success);
  EXPECT_TRUE(alice.final_key.empty());
  EXPECT_TRUE(bob.final_key.empty());

  // One-time-pad discipline: every frame Bob verified — including the
  // tampered one that failed — consumed exactly one tag's worth of key.
  // A failed verify must not refund its bits (that would reuse a one-time
  // key), and Alice's sign pool must track her sent frames the same way.
  EXPECT_GT(bob_recv.total_consumed(), 0u);
  EXPECT_EQ(bob_recv.total_consumed(),
            bob.channel.messages_received * auth::kTagKeyBits);
  // Send pools may run one tag ahead of the wire: signing consumes key
  // even when the transmit then fails on a closed peer (never refunded).
  EXPECT_GE(alice_send.total_consumed(),
            alice.channel.messages_sent * auth::kTagKeyBits);
  EXPECT_GE(bob_send.total_consumed(),
            bob.channel.messages_sent * auth::kTagKeyBits);
}

TEST(Session, ShortBlockAbortsGracefully) {
  const auto data = simulate_link(25.0, 105, 2000);  // ~40 detections
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, PostprocessParams{},
                                        *alice_channel, *bob_channel);
  EXPECT_FALSE(alice.success);
  EXPECT_FALSE(bob.success);
  EXPECT_FALSE(alice.abort_reason.empty());
  EXPECT_FALSE(bob.abort_reason.empty());
}

TEST(Session, ChannelAccountingConsistent) {
  const auto data = simulate_link(25.0, 106, 1 << 19);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const auto [alice, bob] = run_session(data, PostprocessParams{},
                                        *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success);
  EXPECT_EQ(alice.channel.messages_sent, bob.channel.messages_received);
  EXPECT_EQ(bob.channel.messages_sent, alice.channel.messages_received);
  EXPECT_EQ(alice.channel.bytes_sent, bob.channel.bytes_received);
}

TEST(Session, LatencyModelAccumulatesVirtualTime) {
  const auto data = simulate_link(25.0, 107, 1 << 19);
  protocol::ChannelModel model;
  model.latency_s = 0.001;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair(model);
  const auto [alice, bob] = run_session(data, PostprocessParams{},
                                        *alice_channel, *bob_channel);
  ASSERT_TRUE(alice.success);
  EXPECT_GT(alice.channel.virtual_time_s, 0.0);
  // Each one-way message charges at least the latency.
  EXPECT_GE(alice.channel.virtual_time_s,
            0.001 * static_cast<double>(alice.channel.messages_sent));
}

TEST(Session, DifferentAliceSeedsGiveDifferentKeys) {
  const auto data = simulate_link(25.0, 108, 1 << 19);
  const PostprocessParams params;
  auto [c1a, c1b] = protocol::make_channel_pair();
  const auto [alice1, bob1] = run_session(data, params, *c1a, *c1b, 1);
  auto [c2a, c2b] = protocol::make_channel_pair();
  const auto [alice2, bob2] = run_session(data, params, *c2a, *c2b, 2);
  ASSERT_TRUE(alice1.success) << alice1.abort_reason;
  ASSERT_TRUE(alice2.success) << alice2.abort_reason;
  // Same raw data, different sampling/seeds -> different final keys.
  EXPECT_NE(alice1.final_key, alice2.final_key);
}

// The session and PostprocessEngine::process_block are one stage chain:
// fed the same BlockInput, block id and RNG seed, both peers must reach the
// engine's verdict, and on success hold its final key and EC leakage.
struct EngineMatchCase {
  const char* name;
  double km;
  double misalignment;
  protocol::ReconcileMethod method;
  double sifted_bits;  ///< per-block target
};

class SessionMatchesEngine : public ::testing::TestWithParam<EngineMatchCase> {
};

TEST_P(SessionMatchesEngine, BothPeersEndWithTheEngineKey) {
  const EngineMatchCase& param = GetParam();
  PostprocessParams params;
  params.method = param.method;
  engine::PostprocessEngine engine(params, engine::EngineOptions::cpu_only());
  sim::LinkConfig link;
  link.channel.length_km = param.km;
  link.channel.misalignment = param.misalignment;
  const sim::Bb84Simulator simulator(link);
  Xoshiro256 link_rng(2024);

  const std::size_t pulses = sim::pulses_for_sifted_target(
      link, param.sifted_bits, std::size_t{1} << 16, std::size_t{1} << 24);

  constexpr std::uint64_t kBlocks = 6;
  std::uint64_t distilled = 0;
  for (std::uint64_t block_id = 1; block_id <= kBlocks; ++block_id) {
    const BlockInput input =
        engine::make_block_input(simulator.run(pulses, link_rng), block_id);
    const std::uint64_t rng_seed = 500 + block_id;
    Xoshiro256 engine_rng(rng_seed);
    const engine::BlockOutcome expected =
        engine.process_block(input, block_id, engine_rng);

    auto [alice_channel, bob_channel] = protocol::make_channel_pair();
    auto alice_future = std::async(std::launch::async, [&] {
      Xoshiro256 rng(rng_seed);
      return run_alice_session(*alice_channel, input.log, block_id, params,
                               rng);
    });
    const SessionResult bob = run_bob(*bob_channel, input, params);
    const SessionResult alice = alice_future.get();

    EXPECT_EQ(alice.success, expected.success)
        << "block " << block_id << ": " << alice.abort_reason << " vs "
        << expected.abort_reason;
    EXPECT_EQ(bob.success, expected.success)
        << "block " << block_id << ": " << bob.abort_reason << " vs "
        << expected.abort_reason;
    EXPECT_EQ(alice.sifted_bits, expected.sifted_bits) << "block " << block_id;
    EXPECT_EQ(bob.sifted_bits, expected.sifted_bits) << "block " << block_id;
    EXPECT_EQ(alice.key_candidate_bits, expected.key_candidate_bits)
        << "block " << block_id;
    EXPECT_EQ(bob.key_candidate_bits, expected.key_candidate_bits)
        << "block " << block_id;
    if (!expected.success) continue;
    ++distilled;
    EXPECT_EQ(alice.final_key, expected.final_key) << "block " << block_id;
    EXPECT_EQ(bob.final_key, expected.final_key) << "block " << block_id;
    EXPECT_EQ(alice.leak_ec_bits, expected.leak_ec_bits)
        << "block " << block_id;
    EXPECT_EQ(bob.leak_ec_bits, expected.leak_ec_bits)
        << "block " << block_id;
    EXPECT_EQ(alice.reconciled_bits, expected.reconciled_bits)
        << "block " << block_id;
  }
  // The comparison must cover real keys, not a run of matching aborts.
  EXPECT_GE(distilled, kBlocks - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, SessionMatchesEngine,
    ::testing::Values(
        EngineMatchCase{"Ldpc10km", 10.0, 0.015,
                        protocol::ReconcileMethod::kLdpc, 20000.0},
        EngineMatchCase{"Ldpc25km", 25.0, 0.015,
                        protocol::ReconcileMethod::kLdpc, 20000.0},
        // QBER ~4.9%: the finite-key cost needs the noisy-cascade ladder
        // workload's 40k sifted bits before a block distills.
        EngineMatchCase{"Cascade25kmMisaligned", 25.0, 0.045,
                        protocol::ReconcileMethod::kCascade, 40000.0}),
    [](const auto& info) { return std::string(info.param.name); });

/// An in-flight edit of a message one channel end receives.
using MessageEdit = std::function<void(protocol::Message&)>;

// One end of a channel pair whose incoming messages pass through `edit`
// before the session reads them; outgoing frames pass untouched.
class InboundRewriter final : public protocol::ClassicalChannel {
 public:
  InboundRewriter(protocol::ClassicalChannel& inner, MessageEdit edit)
      : inner_(inner), edit_(std::move(edit)) {}

  void send(std::vector<std::uint8_t> frame) override {
    inner_.send(std::move(frame));
  }
  std::vector<std::uint8_t> receive() override {
    protocol::Message message = protocol::decode_message(inner_.receive());
    edit_(message);
    return protocol::encode_message(message);
  }
  void close() override { inner_.close(); }
  protocol::ChannelCounters counters() const override {
    return inner_.counters();
  }

 private:
  protocol::ClassicalChannel& inner_;
  MessageEdit edit_;
};

// Bob hashes to the length Alice announces, so he must check it: 0 would
// reach the Toeplitz hash's untyped argument check, and a length past the
// reconciled key the seed allocation inside a noexcept generator. Both are
// typed protocol faults with no key.
class HostilePaLength : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HostilePaLength, BobEndsWithTypedProtocolFault) {
  const auto data = simulate_link(25.0, 100, 1 << 20);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const std::uint64_t out_len = GetParam();
  const MessageEdit set_out_len = [out_len](protocol::Message& message) {
    if (auto* pa = std::get_if<protocol::PaParams>(&message)) {
      pa->out_len = out_len;
    }
  };
  InboundRewriter bob_end(*bob_channel, set_out_len);
  const auto [alice, bob] =
      run_session(data, PostprocessParams{}, *alice_channel, bob_end);
  EXPECT_FALSE(alice.success);
  EXPECT_FALSE(bob.success);
  ASSERT_TRUE(bob.fault_code.has_value()) << bob.abort_reason;
  EXPECT_EQ(*bob.fault_code, ErrorCode::kProtocol) << bob.abort_reason;
  EXPECT_TRUE(bob.final_key.empty());
}

INSTANTIATE_TEST_SUITE_P(OutLen, HostilePaLength,
                         ::testing::Values(std::uint64_t{0},
                                           std::uint64_t{1} << 40),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("Zero")
                                                  : std::string("Huge");
                         });

// The peer whose KeyConfirm check fails has already hashed its key: it
// must end with a typed protocol fault and no key. The other peer's check
// passes, which shows the block got as far as a key.
enum class ConfirmVictim { kAlice, kBob };

class KeyConfirmMismatch : public ::testing::TestWithParam<ConfirmVictim> {};

TEST_P(KeyConfirmMismatch, FailingPeerHoldsNoKey) {
  const auto data = simulate_link(10.0, 7, 1 << 20);
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  const MessageEdit flip_crc = [](protocol::Message& message) {
    if (auto* confirm = std::get_if<protocol::KeyConfirm>(&message)) {
      confirm->crc ^= 1;
    }
  };
  const MessageEdit keep = [](protocol::Message&) {};
  const bool alice_victim = GetParam() == ConfirmVictim::kAlice;
  InboundRewriter alice_end(*alice_channel, alice_victim ? flip_crc : keep);
  InboundRewriter bob_end(*bob_channel, alice_victim ? keep : flip_crc);
  const auto [alice, bob] =
      run_session(data, PostprocessParams{}, alice_end, bob_end);
  const SessionResult& victim = alice_victim ? alice : bob;
  const SessionResult& peer = alice_victim ? bob : alice;

  ASSERT_TRUE(peer.success) << peer.abort_reason;
  EXPECT_FALSE(peer.final_key.empty());
  EXPECT_FALSE(victim.success);
  ASSERT_TRUE(victim.fault_code.has_value()) << victim.abort_reason;
  EXPECT_EQ(*victim.fault_code, ErrorCode::kProtocol);
  EXPECT_NE(victim.abort_reason.find("key confirmation mismatch"),
            std::string::npos)
      << victim.abort_reason;
  EXPECT_TRUE(victim.final_key.empty());
}

INSTANTIATE_TEST_SUITE_P(Victim, KeyConfirmMismatch,
                         ::testing::Values(ConfirmVictim::kAlice,
                                           ConfirmVictim::kBob),
                         [](const auto& info) {
                           return info.param == ConfirmVictim::kAlice
                                      ? std::string("Alice")
                                      : std::string("Bob");
                         });

// Fields a hostile Alice can put on the wire.
enum class HostileField {
  kKeepMaskShort,      // SiftResult keep mask one bit short of the clicks
  kSignalMaskShort,    // SiftResult signal mask one bit short of the kept bits
  kPePositionPastKey,  // PeReveal position equal to the sifted length
  kNoPayloadPlan,      // n_punctured + n_shortened == n: zero payload bits
  kShortSyndrome,      // last frame's syndrome one bit shorter than code.m()
  kBlindShape,         // BlindResponse with more positions than values
  kBlindPosition,      // BlindResponse revealing position n
  kNanQberHint,        // qber_hint NaN: would reach a float-to-int cast
  kUnknownCode,        // code_id outside the code table
  kPlanChanges,        // last frame's puncture count differs from the first
  kUnaskedFrame,       // BlindResponse for a frame Bob did not ask about
  kPunctureExceedsSyndrome,  // n_punctured = m + 1: the m - d leak wraps
};

// A scripted Alice: a sifting or estimation field is hostile, or she is
// honest through both and then streams a whole block's ReconcileStarts
// carrying the hostile field. Bob must end the session with a typed
// protocol fault instead of crashing or leaking an untyped exception.
class HostileAlice : public ::testing::TestWithParam<HostileField> {};

TEST_P(HostileAlice, BobEndsWithTypedProtocolFault) {
  const HostileField field = GetParam();
  const auto data = simulate_link(25.0, 109, 1 << 19);
  const reconcile::LdpcCode& code = reconcile::code_by_id(0);  // n = 1024
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();

  protocol::ClassicalChannel& ch = *alice_channel;
  const auto play = [&] {
    const auto send = [&ch](const protocol::Message& message) {
      ch.send(protocol::encode_message(message));
    };
    const auto receive = [&ch] {
      return protocol::decode_message(ch.receive());
    };
    const auto report = std::get<protocol::DetectionReport>(receive());
    auto sift = protocol::sift_alice(data.log, report);
    if (field == HostileField::kKeepMaskShort) {
      sift.result.keep_mask.resize(sift.result.keep_mask.size() - 1);
    } else if (field == HostileField::kSignalMaskShort) {
      sift.result.signal_mask.resize(sift.result.signal_mask.size() - 1);
    }
    send(sift.result);
    if (field == HostileField::kKeepMaskShort ||
        field == HostileField::kSignalMaskShort) {
      return;
    }
    if (field == HostileField::kPePositionPastKey) {
      protocol::PeReveal reveal;
      reveal.block_id = 1;
      reveal.positions = {static_cast<std::uint32_t>(sift.sifted_key.size())};
      reveal.alice_bits = BitVec(1);
      send(reveal);
      return;
    }
    send(protocol::PeReveal{1, {}, {}});  // reveal nothing: all key
    (void)std::get<protocol::PeReport>(receive());
    send(protocol::PeVerdict{1, true, 0.02, 0.03});

    // The honest plan (code 0, nothing punctured or shortened) cuts the
    // signal bits into whole 1024-bit frames; Bob expects one start each.
    // An over-punctured plan leaves n - (m + 1) payload bits per frame, so
    // it announces that many more frames.
    const std::uint32_t punctured =
        field == HostileField::kPunctureExceedsSyndrome
            ? static_cast<std::uint32_t>(code.m() + 1)
            : 0;
    const std::size_t frames =
        sift.result.signal_mask.popcount() / (code.n() - punctured);
    Xoshiro256 rng(11);
    for (std::size_t f = 0; f < frames; ++f) {
      const bool last = f + 1 == frames;
      protocol::ReconcileStart start;
      start.block_id = 1;
      start.perm_seed = 7 + f;
      start.code_id = 0;
      start.qber_hint = 0.02;
      // A random syndrome is far from Bob's word: every decode fails and
      // Bob asks for a blind reveal of every frame.
      start.syndrome = rng.random_bits(code.m());
      switch (field) {
        case HostileField::kNoPayloadPlan:
          start.n_punctured = static_cast<std::uint32_t>(code.n() / 2);
          start.n_shortened =
              static_cast<std::uint32_t>(code.n()) - start.n_punctured;
          break;
        case HostileField::kShortSyndrome:
          if (last) start.syndrome = rng.random_bits(code.m() - 1);
          break;
        case HostileField::kNanQberHint:
          start.qber_hint = std::numeric_limits<double>::quiet_NaN();
          break;
        case HostileField::kUnknownCode:
          start.code_id = 9999;
          break;
        case HostileField::kPlanChanges:
          if (last) start.n_punctured = 1;
          break;
        case HostileField::kPunctureExceedsSyndrome:
          start.n_punctured = punctured;
          break;
        default:
          break;
      }
      send(start);
    }
    if (field != HostileField::kBlindShape &&
        field != HostileField::kBlindPosition &&
        field != HostileField::kUnaskedFrame) {
      return;
    }
    // Bob sends a whole blind stage's requests before reading an answer.
    std::vector<protocol::BlindRequest> requests;
    for (std::size_t f = 0; f < frames; ++f) {
      requests.push_back(std::get<protocol::BlindRequest>(receive()));
    }
    protocol::BlindResponse response;
    response.block_id = 1;
    response.frame = requests.front().frame;
    response.round = requests.front().round;
    if (field == HostileField::kBlindShape) {
      response.positions = {1, 2};
      response.values = BitVec(1);
    } else if (field == HostileField::kBlindPosition) {
      response.positions = {static_cast<std::uint32_t>(code.n())};
      response.values = BitVec(1);
    } else {
      response.frame = static_cast<std::uint32_t>(frames);
    }
    send(response);
  };
  // Closing Alice's end when the script stops means a Bob that wanted more
  // fails on a closed channel instead of waiting forever.
  auto alice = std::async(std::launch::async, [&] {
    try {
      play();
    } catch (...) {
      ch.close();
      throw;
    }
    ch.close();
  });

  const SessionResult bob = run_bob(*bob_channel, data, PostprocessParams{});
  alice.get();
  EXPECT_FALSE(bob.success);
  ASSERT_TRUE(bob.fault_code.has_value()) << bob.abort_reason;
  EXPECT_EQ(*bob.fault_code, ErrorCode::kProtocol) << bob.abort_reason;
  EXPECT_TRUE(bob.final_key.empty());
}

INSTANTIATE_TEST_SUITE_P(
    ReconcileFields, HostileAlice,
    ::testing::Values(HostileField::kNoPayloadPlan,
                      HostileField::kShortSyndrome, HostileField::kBlindShape,
                      HostileField::kBlindPosition, HostileField::kNanQberHint,
                      HostileField::kUnknownCode, HostileField::kPlanChanges,
                      HostileField::kUnaskedFrame,
                      HostileField::kPunctureExceedsSyndrome));

INSTANTIATE_TEST_SUITE_P(SiftAndEstimateFields, HostileAlice,
                         ::testing::Values(HostileField::kKeepMaskShort,
                                           HostileField::kSignalMaskShort,
                                           HostileField::kPePositionPastKey));

// Fields a hostile Bob can put on the wire.
enum class HostileRequest {
  kPass,        // Cascade: pass 99, Alice derived only cascade.passes
  kRangeEnd,    // Cascade: range end 2^30, far past the key
  kRangeOrder,  // Cascade: begin 5 > end 1
  kBlindRound,  // LDPC: blind round 0 (rounds are 1-based)
  kBlindFrame,  // LDPC: blind request for frame `frames`, past the block
  kDoneCount,   // LDPC: ReconcileDone with one outcome too many
  kIndexCount,  // raw DetectionReport frame claiming 2^62 indices
  kWrongBlock,  // DetectionReport for block 2
  kIndexOrder,  // first two detection indices swapped
  kIndexRange,  // last detection index equal to the pulse count
  kShortBases,  // one basis fewer than detection indices
  kPeReport,    // PeReport one bit short of the revealed positions
};

// A scripted Bob: a sifting or estimation field is hostile, or he is
// honest through both and through the block's ReconcileStarts, then sends
// one hostile request. Alice must end the session with a typed protocol
// fault instead of letting a precondition of the sifter, the parity
// responder or the frame senders escape untyped. A frame that does not
// parse at all is a typed serialization fault.
class HostileBob : public ::testing::TestWithParam<HostileRequest> {};

TEST_P(HostileBob, AliceEndsWithTypedProtocolFault) {
  const HostileRequest field = GetParam();
  const ErrorCode expected = field == HostileRequest::kIndexCount
                                 ? ErrorCode::kSerialization
                                 : ErrorCode::kProtocol;
  const auto data = simulate_link(25.0, 110, 1 << 19);
  PostprocessParams params;
  const bool ldpc = field == HostileRequest::kBlindRound ||
                    field == HostileRequest::kBlindFrame ||
                    field == HostileRequest::kDoneCount;
  if (!ldpc) params.method = protocol::ReconcileMethod::kCascade;
  auto [alice_channel, bob_channel] = protocol::make_channel_pair();

  protocol::ClassicalChannel& ch = *bob_channel;
  const auto play = [&] {
    const auto send = [&ch](const protocol::Message& message) {
      ch.send(protocol::encode_message(message));
    };
    const auto receive = [&ch] {
      return protocol::decode_message(ch.receive());
    };
    protocol::DetectionReport report = data.report;
    if (field == HostileRequest::kIndexCount) {
      // The empty report's tag, block id and pulse count (17 bytes), then
      // an index count whose byte size, 4 * 2^62, wraps to 0.
      std::vector<std::uint8_t> frame = protocol::encode_message(report);
      frame.resize(17);
      ByteWriter count;
      count.put_varint(std::uint64_t{1} << 62);
      frame.insert(frame.end(), count.data().begin(), count.data().end());
      ch.send(std::move(frame));
      return;
    }
    switch (field) {
      case HostileRequest::kWrongBlock:
        report.block_id = 2;
        break;
      case HostileRequest::kIndexOrder:
        std::swap(report.detected_idx[0], report.detected_idx[1]);
        break;
      case HostileRequest::kIndexRange:
        report.detected_idx.back() =
            static_cast<std::uint32_t>(report.n_pulses);
        break;
      case HostileRequest::kShortBases:
        report.bob_bases.resize(report.bob_bases.size() - 1);
        break;
      default:
        break;
    }
    send(report);
    if (field == HostileRequest::kWrongBlock ||
        field == HostileRequest::kIndexOrder ||
        field == HostileRequest::kIndexRange ||
        field == HostileRequest::kShortBases) {
      return;
    }
    const auto sift = std::get<protocol::SiftResult>(receive());
    const BitVec sifted = protocol::sift_bob(data.bob_bits, sift);
    const auto reveal = std::get<protocol::PeReveal>(receive());
    protocol::PeReport pe_report;
    pe_report.block_id = 1;
    for (const auto p : reveal.positions) {
      pe_report.bob_bits.push_back(sifted.get(p));
    }
    if (field == HostileRequest::kPeReport) {
      pe_report.bob_bits.resize(pe_report.bob_bits.size() - 1);
      send(pe_report);
      return;
    }
    send(pe_report);
    if (!std::get<protocol::PeVerdict>(receive()).proceed) {
      throw std::runtime_error("honest estimation must proceed");
    }
    const auto start = std::get<protocol::ReconcileStart>(receive());
    if (ldpc) {
      // Take the block's whole stream of starts, as an honest Bob does.
      const std::size_t key_bits =
          engine::remaining_key(sifted, sift.signal_mask, reveal.positions)
              .size();
      const std::size_t payload_bits =
          reconcile::code_by_id(start.code_id).n() - start.n_punctured -
          start.n_shortened;
      const std::size_t frames = key_bits / payload_bits;
      for (std::size_t f = 1; f < frames; ++f) {
        (void)std::get<protocol::ReconcileStart>(receive());
      }
      const auto last_frame = static_cast<std::uint32_t>(frames);
      if (field == HostileRequest::kBlindRound) {
        send(protocol::BlindRequest{1, 0, 0});
      } else if (field == HostileRequest::kBlindFrame) {
        send(protocol::BlindRequest{1, last_frame, 1});
      } else {
        send(protocol::ReconcileDone{1, BitVec(frames + 1, true)});
      }
      return;
    }

    protocol::ParityRequest request;
    request.block_id = 1;
    request.range_begins = {0};
    request.range_ends = {1};
    switch (field) {
      case HostileRequest::kPass:
        request.pass = 99;
        break;
      case HostileRequest::kRangeEnd:
        request.range_ends = {std::uint32_t{1} << 30};
        break;
      case HostileRequest::kRangeOrder:
        request.range_begins = {5};
        request.range_ends = {1};
        break;
      default:
        break;
    }
    send(request);
  };
  // Closing Bob's end when the script stops means an Alice that wanted more
  // fails on a closed channel instead of waiting forever.
  auto bob = std::async(std::launch::async, [&] {
    try {
      play();
    } catch (...) {
      ch.close();
      throw;
    }
    ch.close();
  });

  Xoshiro256 rng(777);
  const SessionResult alice =
      run_alice_session(*alice_channel, data.log, 1, params, rng);
  bob.get();
  EXPECT_FALSE(alice.success);
  ASSERT_TRUE(alice.fault_code.has_value()) << alice.abort_reason;
  EXPECT_EQ(*alice.fault_code, expected) << alice.abort_reason;
  EXPECT_TRUE(alice.final_key.empty());
}

INSTANTIATE_TEST_SUITE_P(ReconcileRequests, HostileBob,
                         ::testing::Values(HostileRequest::kPass,
                                           HostileRequest::kRangeEnd,
                                           HostileRequest::kRangeOrder,
                                           HostileRequest::kBlindRound,
                                           HostileRequest::kBlindFrame,
                                           HostileRequest::kDoneCount,
                                           HostileRequest::kIndexCount));

INSTANTIATE_TEST_SUITE_P(SiftAndEstimateFields, HostileBob,
                         ::testing::Values(HostileRequest::kWrongBlock,
                                           HostileRequest::kIndexOrder,
                                           HostileRequest::kIndexRange,
                                           HostileRequest::kShortBases,
                                           HostileRequest::kPeReport));

}  // namespace
}  // namespace qkdpp::pipeline
