// Fault-injection + ARQ unit tests: the FaultyChannel injects exactly the
// seeded pattern it promises, and ReliableChannel delivers exactly-once
// in-order over it — or fails with a typed kTimeout once the exchange
// deadline passes, never silently and never while the peer is only busy.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "protocol/channel.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/reliable_channel.hpp"

namespace qkdpp::protocol {
namespace {

std::vector<std::uint8_t> frame_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::vector<std::uint8_t> numbered_frame(std::uint32_t i, std::size_t pad) {
  std::vector<std::uint8_t> f(pad + 4);
  for (int b = 0; b < 4; ++b) {
    f[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
  }
  for (std::size_t k = 4; k < f.size(); ++k) {
    f[k] = static_cast<std::uint8_t>(k * 31 + i);
  }
  return f;
}

TEST(FaultProfile, ValidateRejectsBadConfig) {
  FaultProfile p;
  p.drop = 1.5;
  EXPECT_THROW(p.validate(), Error);
  p.drop = 0.0;
  p.outages.push_back({10, 5});
  EXPECT_THROW(p.validate(), Error);
}

TEST(FaultyChannel, SameSeedSameFaultPattern) {
  auto run_once = [](std::uint64_t seed) {
    auto [a, b] = make_channel_pair();
    FaultProfile profile;
    profile.drop = 0.2;
    profile.corrupt = 0.2;
    profile.duplicate = 0.1;
    profile.reorder = 0.1;
    profile.delay = 0.1;
    auto faulty = make_faulty_channel(std::move(a), profile, seed);
    for (std::uint32_t i = 0; i < 200; ++i) {
      faulty->send(numbered_frame(i, 16));
    }
    faulty->close();
    std::vector<std::vector<std::uint8_t>> delivered;
    try {
      for (;;) delivered.push_back(b->receive());
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kChannelClosed);
    }
    return std::pair(delivered, faulty->fault_counters());
  };
  auto [frames1, faults1] = run_once(42);
  auto [frames2, faults2] = run_once(42);
  auto [frames3, faults3] = run_once(43);
  EXPECT_EQ(frames1, frames2);
  EXPECT_EQ(faults1.total(), faults2.total());
  EXPECT_GT(faults1.dropped, 0u);
  EXPECT_GT(faults1.corrupted, 0u);
  // A different seed produces a different pattern (overwhelmingly likely
  // over 200 frames with these rates).
  EXPECT_NE(frames1, frames3);
}

TEST(FaultyChannel, OutageWindowDropsExactlyItsFrames) {
  auto [a, b] = make_channel_pair();
  FaultProfile profile;
  profile.outages.push_back({3, 7});
  auto faulty = make_faulty_channel(std::move(a), profile, 1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    faulty->send(numbered_frame(i, 0));
  }
  faulty->close();
  std::vector<std::uint32_t> got;
  try {
    for (;;) {
      auto f = b->receive();
      std::uint32_t id = 0;
      for (int k = 0; k < 4; ++k) {
        id |= std::uint32_t{f[static_cast<std::size_t>(k)]} << (8 * k);
      }
      got.push_back(id);
    }
  } catch (const Error&) {
  }
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 2, 7, 8, 9}));
  EXPECT_EQ(faulty->fault_counters().outage_dropped, 4u);
  EXPECT_EQ(faulty->counters().faults_injected, 4u);
}

TEST(ReliableChannel, CleanPingPongInOrder) {
  // Zero retransmits on a fault-free channel holds only if no receive wait
  // times out: put the retransmit timer far above scheduler noise, so an
  // echo thread descheduled for a few ms on a loaded host is not taken
  // for a lost frame.
  RetryPolicy patient;
  patient.base_timeout = std::chrono::seconds(1);
  patient.max_timeout = std::chrono::seconds(1);
  auto [a, b] = make_channel_pair();
  ReliableChannel alice(std::move(a), patient, 7);
  ReliableChannel bob(std::move(b), patient, 8);
  auto bob_side = std::async(std::launch::async, [&bob] {
    for (int i = 0; i < 50; ++i) {
      auto f = bob.receive();
      bob.send(f);  // echo
    }
  });
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto sent = numbered_frame(i, 8);
    alice.send(sent);
    EXPECT_EQ(alice.receive(), sent);
  }
  bob_side.get();
  const auto c = alice.counters();
  EXPECT_EQ(c.retransmits, 0u);
  EXPECT_EQ(c.corrupt_dropped, 0u);
}

TEST(ReliableChannel, ExactlyOnceInOrderUnderHeavyFaults) {
  RetryPolicy policy;
  // Long deadline: this test pins exactly-once delivery, not abort latency,
  // and a sanitizer's slowdown stretches every exchange.
  policy.base_timeout = std::chrono::milliseconds(1);
  policy.exchange_deadline = std::chrono::milliseconds(10000);

  FaultProfile profile;
  profile.drop = 0.15;
  profile.corrupt = 0.10;
  profile.duplicate = 0.10;
  profile.reorder = 0.10;
  profile.delay = 0.10;

  auto [a, b] = make_channel_pair();
  ReliableChannel alice(make_faulty_channel(std::move(a), profile, 11), policy,
                        21);
  ReliableChannel bob(make_faulty_channel(std::move(b), profile, 12), policy,
                      22);

  constexpr std::uint32_t kRounds = 150;
  auto bob_side = std::async(std::launch::async, [&bob] {
    std::vector<std::vector<std::uint8_t>> got;
    for (std::uint32_t i = 0; i < kRounds; ++i) {
      got.push_back(bob.receive());
      bob.send(numbered_frame(i, 4));
    }
    // Close inside the task: if the injector ate Bob's final reply (or
    // Alice's ack of it), the linger keeps retransmitting while Alice is
    // still listening — without it the tail of the conversation cannot
    // heal and the run flakes on whichever seed hits the last exchange.
    bob.close();
    return got;
  });
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::uint32_t i = 0; i < kRounds; ++i) {
    sent.push_back(numbered_frame(i, 64));
    alice.send(sent.back());
    EXPECT_EQ(alice.receive(), numbered_frame(i, 4)) << "round " << i;
  }
  EXPECT_EQ(bob_side.get(), sent);
  alice.close();

  ChannelCounters total = alice.counters();
  total += bob.counters();
  EXPECT_GT(total.faults_injected, 0u);
  EXPECT_GT(total.retransmits, 0u);
  EXPECT_GT(total.corrupt_dropped, 0u);
}

TEST(ReliableChannel, BlackholeIsTypedTimeoutAtExchangeDeadline) {
  // Every frame is lost: the sender retransmits on its backoff until the
  // receive's deadline, then fails typed.
  RetryPolicy policy;
  policy.base_timeout = std::chrono::microseconds(200);
  policy.max_timeout = std::chrono::microseconds(1000);
  policy.exchange_deadline = std::chrono::milliseconds(50);

  FaultProfile blackhole;
  blackhole.drop = 1.0;

  auto [a, b] = make_channel_pair();
  ReliableChannel alice(make_faulty_channel(std::move(a), blackhole, 3),
                        policy, 5);
  alice.send(frame_of("into the void"));
  const auto t0 = std::chrono::steady_clock::now();
  try {
    alice.receive();
    FAIL() << "expected kTimeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
  EXPECT_GE(std::chrono::steady_clock::now() - t0, policy.exchange_deadline);
  EXPECT_GT(alice.counters().retransmits, 0u);
  b->close();
}

TEST(ReliableChannel, BusyPeerIsNotDead) {
  // Bob computes for 2 s before his next receive(), so Alice's frame stays
  // unacknowledged and she keeps retransmitting while she waits. The
  // default policy's 5 s exchange deadline covers the pause: a busy peer
  // is not a dead one.
  auto [a, b] = make_channel_pair();
  ReliableChannel alice(std::move(a), {}, 40);
  ReliableChannel bob(std::move(b), {}, 41);
  auto bob_side = std::async(std::launch::async, [&bob] {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    bob.send(bob.receive());  // echo
    bob.close();
  });
  alice.send(frame_of("are you there"));
  EXPECT_EQ(alice.receive(), frame_of("are you there"));
  bob_side.get();
  EXPECT_GT(alice.counters().retransmits, 0u);
  alice.close();
}

TEST(ReliableChannel, ExchangeDeadlineIsTypedTimeout) {
  RetryPolicy policy;
  policy.exchange_deadline = std::chrono::milliseconds(30);
  auto [a, b] = make_channel_pair();
  ReliableChannel alice(std::move(a), policy, 5);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    alice.receive();  // nothing to retransmit, peer silent
    FAIL() << "expected kTimeout";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTimeout);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  b->close();
}

TEST(ReliableChannel, CloseLingerHealsFinalFrame) {
  // The very first transmission of the only DATA frame is swallowed by an
  // outage; only close()'s linger retransmission can heal it.
  FaultProfile first_frame_lost;
  first_frame_lost.outages.push_back({0, 1});

  auto [a, b] = make_channel_pair();
  ReliableChannel bob(std::move(b), {}, 31);
  auto receiver = std::async(std::launch::async, [&bob] {
    return bob.receive();
  });
  {
    RetryPolicy policy;
    policy.base_timeout = std::chrono::microseconds(500);
    ReliableChannel alice(
        make_faulty_channel(std::move(a), first_frame_lost, 9), policy, 30);
    alice.send(frame_of("last words"));
    alice.close();  // linger pumps the retransmission
  }
  EXPECT_EQ(receiver.get(), frame_of("last words"));
}

}  // namespace
}  // namespace qkdpp::protocol
