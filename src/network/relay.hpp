// KeyRelay: XOR one-time-pad key forwarding through trusted nodes.
//
// The classic trusted-node construction (BB84 networks since DARPA/SECOQC):
// to give non-adjacent nodes A and D a shared key over A-B-C-D, the first
// hop's distilled key IS the end-to-end key K (so delivered material is
// genuine QKD output, not locally generated randomness), and every further
// hop forwards K under a one-time pad made of its own distilled key:
//
//   hop A-B:  seg_0 = K            (B now holds K)
//   hop B-C:  B sends K ^ seg_1;   C recovers K = (K ^ seg_1) ^ seg_1
//   hop C-D:  C sends K ^ seg_2;   D recovers K
//
// Information-theoretic along the wire (each pad bit is used once), but K
// exists in the clear inside B and C - which is why the relay refuses
// routes whose interior nodes are not marked trusted.
//
// Accounting is exact, per hop. Each edge has a HopTap: segments are cut
// from the tap's residual buffer, which is refilled by whole distilled
// blocks drawn from the edge's KeyStore under the consumer name
// "relay@<link>". Block tails stay buffered (never discarded), and a
// multi-hop relay that fails on hop i gives hops 0..i-1 their segments
// back (front of the residual, preserving stream order). The invariant
// the tests pin down, for every edge e:
//
//   store.consumed_by("relay@" + link_name(e))
//       == consumed_bits(e) + buffered_bits(e)
//
// i.e. every bit the relay ever took from a store is either inside a
// delivered end-to-end key or still sitting in that edge's tap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/mutex.hpp"
#include "network/router.hpp"
#include "network/topology.hpp"

namespace qkdpp::network {

enum class RelayError : std::uint8_t {
  kOk = 0,
  kBadRoute,          ///< empty/inconsistent route or zero-bit request
  kUntrustedNode,     ///< route interior contains an untrusted node
  kInsufficientKey,   ///< some hop cannot supply the requested bits
};

const char* to_string(RelayError error) noexcept;

/// Exact bits consumed on one hop for one relay operation.
struct HopAccount {
  std::size_t edge = 0;
  std::uint64_t consumed_bits = 0;
};

struct RelayResult {
  RelayError error = RelayError::kOk;
  /// Edge that stopped a kInsufficientKey relay (Topology::npos otherwise).
  /// The delivery layer excludes it and re-routes.
  std::size_t failed_edge = Topology::npos;
  BitVec key;  ///< the end-to-end key (empty unless ok())
  std::vector<HopAccount> hops;

  bool ok() const noexcept { return error == RelayError::kOk; }
};

class KeyRelay {
 public:
  /// Taps are sized at construction: the topology must be fully built
  /// (every add_edge done) before the relay attaches to it.
  explicit KeyRelay(Topology& topology);

  /// Carry `bits` of end-to-end key along `route`. All-or-nothing: on any
  /// failure no tap loses material (partial takes are returned to their
  /// residuals) and the result names the hop that failed.
  RelayResult relay(const Route& route, std::uint64_t bits);

  /// Bits sitting in edge `e`'s tap: drawn from the store but not yet part
  /// of a delivered key. Counted as deliverable by the router.
  std::uint64_t buffered_bits(std::size_t edge) const;
  /// Bits from edge `e` consumed into delivered end-to-end keys.
  std::uint64_t consumed_bits(std::size_t edge) const;
  /// What edge `e` could contribute to a relay right now (tap + store).
  std::uint64_t deliverable_bits(std::size_t edge) const;
  /// Total end-to-end key bits delivered by ok() relays.
  std::uint64_t delivered_bits() const;

  /// Per-edge buffered bits, shaped for RouteQuery::extra_edge_bits.
  std::vector<std::uint64_t> buffered_bits_per_edge() const;

  /// Ledger name this relay uses against edge `e`'s KeyStore.
  const std::string& consumer_name(std::size_t edge) const {
    return taps_[edge].consumer;
  }

 private:
  struct HopTap {
    // One rank for every tap: relay() cuts segments hop by hop, releasing
    // each tap before the next, so two tap locks are never held together.
    // The rank sits ABOVE the KeyStore ranks because take() deliberately
    // holds the tap across store.get_key (the conservation split).
    mutable Mutex mutex{LockRank::kTap, "relay.tap"};
    /// Stream-ordered buffered key for this edge.
    BitVec residual QKD_GUARDED_BY(mutex);
    std::uint64_t consumed QKD_GUARDED_BY(mutex) = 0;
    std::string consumer;  ///< "relay@<link_name>"; set once at attach
  };

  /// Cut `bits` from the tap (refilling from the store as needed). Returns
  /// an empty BitVec when the hop cannot supply them; whatever was drawn
  /// from the store stays buffered in the residual.
  BitVec take(std::size_t edge, std::uint64_t bits);
  /// Return an unconsumed segment to the *front* of the residual.
  void give_back(std::size_t edge, const BitVec& segment);

  Topology& topology_;
  std::deque<HopTap> taps_;  ///< pinned: HopTap owns a mutex
  std::atomic<std::uint64_t> delivered_bits_{0};
};

}  // namespace qkdpp::network
