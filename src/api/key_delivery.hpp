// KeyDeliveryService: the ETSI GS QKD 014-aligned delivery facade over the
// LinkOrchestrator.
//
// The orchestrator distills variable-size blocks into per-link KeyStores;
// applications want fixed-size keys with identities both ends of a link
// can name. This facade closes that gap, per registered SAE pair
// (master = the application end that requests keys, slave = the peer end
// that later fetches the same keys by id, both bound to one KeySource -
// an orchestrator link's store for adjacent SAEs, or a trusted-node relay
// route from src/network/ for SAEs on non-adjacent nodes):
//
//   * get_status      - what the pair's endpoint can deliver right now
//   * get_key         - master draws `number` keys of `size` bits: distilled
//                       blocks are drawn from the link's KeyStore (draws
//                       attributed to the master SAE), segmented at `size`
//                       bits, and each segment is minted a stable 128-bit
//                       UUID key id; the segment is simultaneously retained
//                       for the slave
//   * get_key_with_ids- slave fetches the retained keys by UUID (exactly
//                       once; the handover copy is destroyed on delivery)
//
// Block tails smaller than `size` stay in a per-pair residual buffer and
// join the next request, so no distilled bit is ever dropped by
// segmentation: for every pair, bits drawn from the store ==
// delivered_bits + buffered_bits (PairStats), the conservation law the
// live-delivery test asserts.
//
// Failures are values, not exceptions: every entry point returns
// Result<T> carrying either the DTO or an ApiError with an HTTP-like
// status (400 malformed, 401 unknown SAE/pair, 503 exhausted) - the
// explicit, auditable trust boundary between the post-processing engine
// and key consumers. All entry points are thread-safe; per-pair state is
// independently locked so concurrent SAE pairs never contend.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/dtos.hpp"
#include "common/bitvec.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "pipeline/kms.hpp"
#include "service/link_orchestrator.hpp"

namespace qkdpp::api {

/// Where a registered SAE pair's key material comes from. The facade's
/// original source is one orchestrator link's KeyStore (LinkStoreSource,
/// adjacent SAEs); the network layer supplies a relay-backed source for
/// SAE pairs on non-adjacent nodes. Implementations must be safe to call
/// concurrently with running distillation; the service serializes calls
/// per pair under the pair mutex.
class KeySource {
 public:
  virtual ~KeySource() = default;
  /// Bits the source could hand out right now (an estimate under
  /// concurrency; draw() is the ground truth).
  virtual std::uint64_t bits_available() const = 0;
  /// Backing capacity bound in bits (0 = unbounded/unknown), for the ETSI
  /// status max_key_count field.
  virtual std::uint64_t capacity_bits() const = 0;
  /// Destructively draw the next chunk of key material (a distilled block,
  /// a relayed segment - sizes vary; the service segments and buffers the
  /// tail). nullopt when nothing can be produced right now.
  virtual std::optional<BitVec> draw(std::string_view consumer) = 0;
  /// Append "why am I empty" diagnostics to a 503 error's detail list.
  virtual void describe_exhaustion(std::vector<std::string>& details) const;
  /// Advisory client back-off for a 503, in milliseconds (the ApiError
  /// carries it as a Retry-After-style detail; an HTTP shim would emit the
  /// header). 0 = no estimate: nothing suggests material is coming.
  virtual std::uint64_t retry_after_hint_ms() const { return 0; }
};

/// The point-to-point source: one orchestrator link's bounded KeyStore.
/// When constructed with the link's orchestrator coordinates it also
/// surfaces the link's live health on exhaustion (is the link still
/// distilling? has its circuit breaker opened?), which is what turns a
/// bare 503 into an actionable one.
class LinkStoreSource final : public KeySource {
 public:
  explicit LinkStoreSource(pipeline::KeyStore& store) : store_(store) {}
  LinkStoreSource(pipeline::KeyStore& store,
                  const service::LinkOrchestrator& orchestrator,
                  std::size_t link)
      : store_(store), orchestrator_(&orchestrator), link_(link) {}
  std::uint64_t bits_available() const override {
    return store_.bits_available();
  }
  std::uint64_t capacity_bits() const override {
    return store_.config().capacity_bits;
  }
  std::optional<BitVec> draw(std::string_view consumer) override;
  void describe_exhaustion(std::vector<std::string>& details) const override;
  std::uint64_t retry_after_hint_ms() const override;

 private:
  pipeline::KeyStore& store_;
  const service::LinkOrchestrator* orchestrator_ = nullptr;
  std::size_t link_ = 0;
};

/// One registered master/slave SAE pair served from one key source (an
/// orchestrator link for adjacent SAEs, a relay route for non-adjacent).
struct SaePair {
  std::string master_sae_id;  ///< caller of get_key
  std::string slave_sae_id;   ///< caller of get_key_with_ids
  /// Orchestrator link backing this pair. Ignored (may be empty) when the
  /// pair is registered with an explicit KeySource.
  std::string link_name;
  std::uint64_t default_key_size = 256;    ///< bits, when a request says 0
  std::uint64_t max_key_per_request = 128;
  std::uint64_t max_key_size = 4096;       ///< bits, multiple of 8
  std::uint64_t min_key_size = 64;         ///< bits, multiple of 8
  /// Cap on keys retained for a slave that has not collected yet. A dead
  /// slave peer otherwise turns every enc_keys call into unbounded
  /// retained memory - the same slow-consumer failure the bounded
  /// KeyStore exists to prevent, one layer up. At the cap, get_key stops
  /// minting and reports 503 backpressure.
  std::uint64_t max_pending_keys = 4096;
};

struct KeyDeliveryConfig {
  std::string source_kme_id = "kme-local";
  std::string target_kme_id = "kme-peer";
  /// Seed of the deterministic UUID streams (one per pair). Key ids must
  /// be unpredictable in a deployment; a seeded stream keeps tests and
  /// benches reproducible, same stance as common/rng.
  std::uint64_t uuid_seed = 0x014;
};

/// Either the successful DTO or the typed ApiError.
template <typename T>
struct Result {
  std::optional<T> value;
  ApiError error;

  bool ok() const noexcept { return value.has_value(); }
  const T& operator*() const { return *value; }
  const T* operator->() const { return &*value; }

  static Result success(T dto) { return Result{std::move(dto), {}}; }
  static Result failure(int status, std::string message,
                        std::vector<std::string> details = {}) {
    return Result{std::nullopt,
                  ApiError{status, std::move(message), std::move(details)}};
  }
};

/// Per-pair delivery accounting (bits are exact, never sampled).
struct PairStats {
  std::uint64_t delivered_keys = 0;  ///< minted + returned to the master
  std::uint64_t delivered_bits = 0;
  std::uint64_t collected_keys = 0;  ///< fetched by the slave (<= delivered)
  std::uint64_t collected_bits = 0;
  std::uint64_t buffered_bits = 0;   ///< residual tail awaiting segmentation
  std::uint64_t pending_keys = 0;    ///< retained for the slave right now
  std::uint64_t pending_bits = 0;
};

class KeyDeliveryService {
 public:
  /// The orchestrator must outlive the service. Key material flows only
  /// through the orchestrator's per-link stores; the service never touches
  /// engines or devices.
  KeyDeliveryService(service::LinkOrchestrator& orchestrator,
                     KeyDeliveryConfig config = {});

  /// Register a master/slave pair on a link. Throws Error{kConfig} on an
  /// unknown link, empty SAE ids, a duplicate (master, slave) pair, or a
  /// key-size configuration that is not a multiple of 8 bits.
  void register_pair(SaePair pair);

  /// Register a pair over an explicit key source (the network layer's
  /// relay-backed sources use this; pair.link_name is ignored). The ETSI
  /// surface - get_status/get_key/get_key_with_ids, UUID minting, residual
  /// buffering, conservation accounting - is identical for both kinds of
  /// pair: a consumer cannot tell adjacent from relayed.
  void register_pair(SaePair pair, std::shared_ptr<KeySource> source);

  /// ETSI GET status: either SAE of a pair may ask, naming the peer.
  Result<StatusResponse> get_status(std::string_view caller_sae,
                                    std::string_view peer_sae) const;

  /// ETSI POST enc_keys: the master SAE (caller) requests keys for the
  /// pair it forms with `slave_sae`.
  Result<KeyContainer> get_key(std::string_view caller_sae,
                               std::string_view slave_sae,
                               const KeyRequest& request);

  /// ETSI POST dec_keys: the slave SAE (caller) fetches, by UUID, keys the
  /// master already drew on the pair it forms with `master_sae`.
  /// All-or-nothing: one unknown id fails the request (400) and consumes
  /// nothing, so a retry after a typo cannot half-deliver a batch.
  Result<KeyContainer> get_key_with_ids(std::string_view caller_sae,
                                        std::string_view master_sae,
                                        const KeyIdsRequest& request);

  /// Exact delivery accounting for one pair; nullopt when unregistered.
  std::optional<PairStats> pair_stats(std::string_view master_sae,
                                      std::string_view slave_sae) const;

  std::size_t pair_count() const;
  const KeyDeliveryConfig& config() const noexcept { return config_; }

  /// Syntactic UUID check (8-4-4-4-12 lowercase hex), exposed for input
  /// validation in tests and transports.
  static bool is_uuid(std::string_view text) noexcept;

 private:
  struct PairState {
    SaePair spec;
    std::shared_ptr<KeySource> source;
    std::size_t index = 0;  ///< registration order, mixed into UUIDs
    // Ranked above the tap and store locks: get_key deliberately holds the
    // pair mutex across source->draw(), which reaches relay taps and the
    // store (the per-pair serialization the ETSI semantics need).
    mutable Mutex mutex{LockRank::kPair, "api.pair"};
    /// Tail of the last drawn block, < key_size bits.
    BitVec residual QKD_GUARDED_BY(mutex);
    /// Keys delivered to the master, retained until the slave collects.
    std::map<std::string, BitVec> pending QKD_GUARDED_BY(mutex);
    Xoshiro256 uuid_rng QKD_GUARDED_BY(mutex);
    /// Structural uniqueness guarantee.
    std::uint64_t uuid_counter QKD_GUARDED_BY(mutex) = 0;
    PairStats stats QKD_GUARDED_BY(mutex);

    PairState(SaePair s, std::shared_ptr<KeySource> key_source,
              std::size_t pair_index, std::uint64_t seed)
        : spec(std::move(s)),
          source(std::move(key_source)),
          index(pair_index),
          uuid_rng(seed) {}
  };

  std::string mint_uuid_locked(PairState& pair) QKD_REQUIRES(pair.mutex);
  const PairState* find_pair(std::string_view master,
                             std::string_view slave) const;
  PairState* find_pair(std::string_view master, std::string_view slave);

  service::LinkOrchestrator& orchestrator_;
  KeyDeliveryConfig config_;
  /// Guards pairs_/index_ layout only (registration); lookups take it
  /// shared, so requests on different pairs contend on nothing but their
  /// own mutex. Never held together with a pair mutex: find_pair releases
  /// it before returning the (pinned) PairState pointer.
  mutable SharedMutex registry_mutex_{LockRank::kRegistry, "api.registry"};
  /// Pinned: PairState owns a mutex.
  std::deque<PairState> pairs_ QKD_GUARDED_BY(registry_mutex_);
  /// O(log n) request routing over a registry sized for 2^14 pairs. Keyed
  /// "master/slave" - '/' cannot occur in an SAE id (register_pair
  /// rejects it), so the composite key is unambiguous.
  std::map<std::string, PairState*, std::less<>> index_
      QKD_GUARDED_BY(registry_mutex_);
};

}  // namespace qkdpp::api
