// NetworkDelivery: end-to-end ETSI key delivery between non-adjacent SAEs.
//
// The bridge between the network layer and the ETSI facade is RelaySource,
// an api::KeySource whose draw() produces relayed end-to-end key instead
// of reading one link's store. Each draw:
//
//   1. asks the Router for the cheapest feasible route src -> dst, feeding
//      in the relay's per-edge buffered bits (tap residuals count as
//      deliverable depth) and requiring >= 1 deliverable bit per hop;
//   2. sizes the chunk at min(chunk_bits, route bottleneck) so one starved
//      hop cannot fail a draw the route could partially serve;
//   3. runs the XOR relay; on kInsufficientKey (a concurrent pair drained
//      the hop between routing and taking) it excludes the failed edge and
//      re-routes, up to max_reroutes_per_draw times - this mid-stream
//      failover is exactly what the live relay-outage test exercises.
//
// One KeyRelay is shared by every pair NetworkDelivery registers: hop taps
// are per *edge*, so concurrent pairs crossing the same span draw from one
// ordered pad stream and the per-edge conservation law stays global.
//
// Registered pairs are ordinary KeyDeliveryService pairs: get_status /
// get_key / get_key_with_ids (and the JSON Dispatcher over them) behave
// identically for adjacent and relayed SAEs - a consumer cannot tell.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "api/key_delivery.hpp"
#include "common/mutex.hpp"
#include "network/relay.hpp"
#include "network/router.hpp"
#include "network/topology.hpp"

namespace qkdpp::network {

struct RelaySourceConfig {
  /// Preferred draw size in bits; actual draws shrink to the route
  /// bottleneck. Multiples of the service's key sizes keep residuals small.
  std::uint64_t chunk_bits = 4096;
  /// Edges a single draw may exclude-and-re-route around before giving up
  /// and letting the service report 503.
  std::uint32_t max_reroutes_per_draw = 4;
};

/// Running totals for one relayed pair (exact, not sampled).
struct RelaySourceStats {
  std::uint64_t draws = 0;          ///< successful draw() calls
  std::uint64_t relayed_bits = 0;   ///< e2e bits produced by this source
  std::uint64_t reroutes = 0;       ///< mid-draw failovers taken
  std::optional<Route> last_route;  ///< route of the last successful draw
};

class RelaySource final : public api::KeySource {
 public:
  /// Router and relay must outlive the source (NetworkDelivery owns both
  /// and hands the service shared_ptrs to sources it also keeps).
  RelaySource(const Router& router, KeyRelay& relay, std::size_t src_node,
              std::size_t dst_node, RelaySourceConfig config = {});

  std::uint64_t bits_available() const override;
  /// Routes have no fixed capacity: 0 = unbounded/unknown, which the ETSI
  /// status surfaces as "no max_key_count bound" exactly like an
  /// unbounded link store.
  std::uint64_t capacity_bits() const override { return 0; }
  std::optional<BitVec> draw(std::string_view consumer) override;
  void describe_exhaustion(std::vector<std::string>& details) const override;

  RelaySourceStats stats() const;
  std::size_t src_node() const noexcept { return src_; }
  std::size_t dst_node() const noexcept { return dst_; }

 private:
  const Router& router_;
  KeyRelay& relay_;
  std::size_t src_;
  std::size_t dst_;
  RelaySourceConfig config_;
  mutable Mutex mutex_{LockRank::kSourceStats, "relay_source.stats"};
  RelaySourceStats stats_ QKD_GUARDED_BY(mutex_);
};

class NetworkDelivery {
 public:
  /// Topology and service must outlive this object; the topology must be
  /// fully built (the shared KeyRelay sizes its taps now).
  NetworkDelivery(Topology& topology, api::KeyDeliveryService& service,
                  RouterPolicy policy = {});

  /// Register an SAE pair whose ends sit on (possibly non-adjacent) nodes.
  /// Throws Error{kConfig} on unknown node names or src == dst. The pair
  /// becomes a normal service pair backed by a RelaySource.
  void register_pair(api::SaePair pair, std::string_view src_node,
                     std::string_view dst_node, RelaySourceConfig config = {});

  /// The relayed pair's source, for stats; nullptr when the pair is
  /// unknown (or was registered directly with the service).
  std::shared_ptr<const RelaySource> source(std::string_view master_sae,
                                            std::string_view slave_sae) const;

  const Router& router() const noexcept { return router_; }
  KeyRelay& relay() noexcept { return relay_; }
  const KeyRelay& relay() const noexcept { return relay_; }
  Topology& topology() noexcept { return topology_; }

 private:
  Topology& topology_;
  api::KeyDeliveryService& service_;
  Router router_;
  KeyRelay relay_;
  mutable Mutex mutex_{LockRank::kSources, "network.sources"};
  std::map<std::string, std::shared_ptr<RelaySource>, std::less<>> sources_
      QKD_GUARDED_BY(mutex_);
};

}  // namespace qkdpp::network
