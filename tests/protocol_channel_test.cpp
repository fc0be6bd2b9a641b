// In-process channel pair: delivery order, blocking, close semantics,
// counters, virtual-time model, authenticated wrapper.
#include "protocol/auth_channel.hpp"
#include "protocol/channel.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "protocol/faulty_channel.hpp"

namespace qkdpp::protocol {
namespace {

std::vector<std::uint8_t> frame_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Channel, DeliversInOrder) {
  auto [alice, bob] = make_channel_pair();
  alice->send(frame_of("one"));
  alice->send(frame_of("two"));
  alice->send(frame_of("three"));
  EXPECT_EQ(bob->receive(), frame_of("one"));
  EXPECT_EQ(bob->receive(), frame_of("two"));
  EXPECT_EQ(bob->receive(), frame_of("three"));
}

TEST(Channel, FullDuplex) {
  auto [alice, bob] = make_channel_pair();
  alice->send(frame_of("ping"));
  bob->send(frame_of("pong"));
  EXPECT_EQ(bob->receive(), frame_of("ping"));
  EXPECT_EQ(alice->receive(), frame_of("pong"));
}

TEST(Channel, BlockingReceiveWakesOnSend) {
  auto [alice, bob] = make_channel_pair();
  std::vector<std::uint8_t> got;
  std::thread receiver([&] { got = bob->receive(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  alice->send(frame_of("wake"));
  receiver.join();
  EXPECT_EQ(got, frame_of("wake"));
}

TEST(Channel, CloseUnblocksReceiver) {
  auto [alice, bob] = make_channel_pair();
  std::thread receiver([&] {
    try {
      bob->receive();
      FAIL() << "expected channel-closed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kChannelClosed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  alice->close();
  receiver.join();
}

TEST(Channel, DrainsQueueBeforeReportingClose) {
  auto [alice, bob] = make_channel_pair();
  alice->send(frame_of("last words"));
  alice->close();
  EXPECT_EQ(bob->receive(), frame_of("last words"));
  EXPECT_THROW(bob->receive(), Error);
}

TEST(Channel, SendAfterPeerCloseThrows) {
  auto [alice, bob] = make_channel_pair();
  bob->close();
  EXPECT_THROW(alice->send(frame_of("x")), Error);
}

TEST(Channel, CountersTrackTraffic) {
  auto [alice, bob] = make_channel_pair();
  alice->send(frame_of("12345"));
  alice->send(frame_of("678"));
  (void)bob->receive();
  const auto a = alice->counters();
  EXPECT_EQ(a.messages_sent, 2u);
  EXPECT_EQ(a.bytes_sent, 8u);
  const auto b = bob->counters();
  EXPECT_EQ(b.messages_received, 1u);
  EXPECT_EQ(b.bytes_received, 5u);
}

TEST(Channel, VirtualTimeModel) {
  ChannelModel model;
  model.latency_s = 0.01;
  model.bandwidth_bps = 8000.0;  // 1000 bytes/s
  auto [alice, bob] = make_channel_pair(model);
  alice->send(std::vector<std::uint8_t>(500, 0));  // 0.01 + 0.5 s
  EXPECT_NEAR(alice->counters().virtual_time_s, 0.51, 1e-9);
  alice->send(std::vector<std::uint8_t>(500, 0));
  EXPECT_NEAR(alice->counters().virtual_time_s, 1.02, 1e-9);
}

BitVec shared_material(std::uint64_t seed, std::size_t tags) {
  Xoshiro256 rng(seed);
  return rng.random_bits(auth::kTagKeyBits * tags);
}

struct AuthFixture {
  // Pools: a2b direction and b2a direction, mirrored on both sides.
  BitVec a2b = shared_material(100, 16);
  BitVec b2a = shared_material(101, 16);
  auth::KeyPool alice_send{a2b}, alice_recv{b2a};
  auth::KeyPool bob_send{b2a}, bob_recv{a2b};
};

TEST(AuthChannel, RoundTrip) {
  AuthFixture fx;
  auto [raw_a, raw_b] = make_channel_pair();
  AuthenticatedChannel alice(std::move(raw_a), fx.alice_send, fx.alice_recv);
  AuthenticatedChannel bob(std::move(raw_b), fx.bob_send, fx.bob_recv);

  alice.send(frame_of("hello bob"));
  EXPECT_EQ(bob.receive(), frame_of("hello bob"));
  bob.send(frame_of("hello alice"));
  EXPECT_EQ(alice.receive(), frame_of("hello alice"));
}

TEST(AuthChannel, DetectsTampering) {
  AuthFixture fx;
  auto [raw_a, raw_b] = make_channel_pair();
  FaultProfile flip_every_frame;
  flip_every_frame.corrupt = 1.0;
  auto tampering =
      make_faulty_channel(std::move(raw_a), flip_every_frame, /*seed=*/1);
  AuthenticatedChannel alice(std::move(tampering), fx.alice_send,
                             fx.alice_recv);
  AuthenticatedChannel bob(std::move(raw_b), fx.bob_send, fx.bob_recv);

  alice.send(frame_of("important"));
  try {
    bob.receive();
    FAIL() << "expected authentication failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAuthentication);
  }
}

TEST(AuthChannel, RejectsShortFrame) {
  AuthFixture fx;
  auto [raw_a, raw_b] = make_channel_pair();
  AuthenticatedChannel bob(std::move(raw_b), fx.bob_send, fx.bob_recv);
  raw_a->send(frame_of("short"));  // unauthenticated tiny frame
  EXPECT_THROW(bob.receive(), Error);
}

TEST(AuthChannel, ConsumesKeyPerMessage) {
  AuthFixture fx;
  auto [raw_a, raw_b] = make_channel_pair();
  AuthenticatedChannel alice(std::move(raw_a), fx.alice_send, fx.alice_recv);
  AuthenticatedChannel bob(std::move(raw_b), fx.bob_send, fx.bob_recv);

  const auto before = fx.alice_send.available();
  alice.send(frame_of("one"));
  alice.send(frame_of("two"));
  EXPECT_EQ(fx.alice_send.available(), before - 2 * auth::kTagKeyBits);
  (void)bob.receive();
  (void)bob.receive();
  EXPECT_EQ(fx.bob_recv.available(), before - 2 * auth::kTagKeyBits);
}

TEST(AuthChannel, TwoThreadPingPong) {
  AuthFixture fx;
  auto [raw_a, raw_b] = make_channel_pair();
  AuthenticatedChannel alice(std::move(raw_a), fx.alice_send, fx.alice_recv);
  AuthenticatedChannel bob(std::move(raw_b), fx.bob_send, fx.bob_recv);

  std::thread bob_thread([&] {
    for (int i = 0; i < 8; ++i) {
      auto frame = bob.receive();
      frame.push_back(static_cast<std::uint8_t>('!'));
      bob.send(std::move(frame));
    }
  });
  for (int i = 0; i < 8; ++i) {
    alice.send(frame_of("m" + std::to_string(i)));
    const auto echoed = alice.receive();
    EXPECT_EQ(echoed, frame_of("m" + std::to_string(i) + "!"));
  }
  bob_thread.join();
}

}  // namespace
}  // namespace qkdpp::protocol
