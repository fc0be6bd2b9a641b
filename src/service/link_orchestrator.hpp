// LinkOrchestrator: many concurrent QKD links distilling into a bounded
// key-management layer on one physical machine.
//
// Deployed QKD networks are not one link: a trusted node terminates many
// spans of different lengths (metro access, regional backbone, WAN), and
// the post-processing host serves all of them at once. The orchestrator
// owns N independent links - each a LinkConfig (physics) plus a
// PostprocessEngine (distillation) - placed over one *shared*
// hetero::DeviceSet. Engines are constructed in link order, so each
// placement is arbitrated against the device load earlier links already
// committed (the mapper's base_load path): a device that is optimal for
// one link in isolation stops being chosen once other links have loaded
// it. run() drives every link concurrently on a thread pool; distilled
// keys land in a per-link-pair bounded KeyStore (ETSI GS QKD 014
// flavoured), where a slow consumer shows up as rejected_bits or as
// backpressure instead of unbounded memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "engine/params.hpp"
#include "hetero/device_set.hpp"
#include "pipeline/kms.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/reliable_channel.hpp"
#include "sim/link_config.hpp"
#include "sim/scenario.hpp"

namespace qkdpp::service {

/// One QKD link: a physical channel plus its post-processing parameters.
struct LinkSpec {
  std::string name;
  sim::LinkConfig link;
  engine::PostprocessParams params;
  std::size_t pulses_per_block = std::size_t{1} << 20;
  std::uint64_t blocks = 4;      ///< blocks to distill per run()
  std::uint64_t rng_seed = 1;    ///< per-link deterministic stream
  /// Time-varying channel: perturbations applied to `link` per block index
  /// within a run (empty = stationary channel, the pre-scenario behaviour).
  sim::LinkSchedule schedule;
  /// Distill through the two-party session choreography over an in-process
  /// classical channel (ARQ over the fault injector) instead of the
  /// single-process engine fast path. This is the deployment shape whose
  /// retry/timeout/degradation behaviour the fault timeline exercises; the
  /// engine path exchanges no classical messages, so faults cannot touch it.
  bool session_transport = false;
  /// Standing egress fault profile of the classical channel (session
  /// transport only; the schedule's channel_faults phases overlay it per
  /// block).
  protocol::FaultProfile channel_faults;
  /// ARQ posture of the session transport (backoff, deadlines).
  protocol::RetryPolicy channel_retry;
};

/// Per-link circuit breaker: an unbroken abort streak opens the circuit,
/// the link skips (rather than times out on) the cooldown window, then a
/// single half-open probe block decides between re-closing and re-opening
/// with a multiplied cooldown. Disabled by default — aborts are cheap on
/// the engine fast path; arm it for session-transport links where every
/// channel-fault abort waits out a full ARQ exchange deadline.
struct CircuitBreakerPolicy {
  /// Consecutive aborts that open the circuit (0 = breaker disabled).
  std::uint64_t open_after_aborts = 0;
  /// Blocks skipped after the first open before the half-open probe.
  std::uint64_t cooldown_blocks = 4;
  /// Cooldown multiplier applied on every failed half-open probe.
  double cooldown_backoff = 2.0;
  /// Cooldown growth cap.
  std::uint64_t max_cooldown_blocks = 64;

  bool enabled() const noexcept { return open_after_aborts > 0; }

  /// The posture the chaos tests and the examples run: open after 3
  /// consecutive aborts, 4-block cooldown doubling up to 32.
  static CircuitBreakerPolicy standard();
};

enum class BreakerState : std::uint8_t {
  kClosed = 0,    ///< normal operation
  kOpen = 1,      ///< cooling down, blocks are skipped
  kHalfOpen = 2,  ///< one probe block in flight
};

const char* to_string(BreakerState state) noexcept;

/// When and why a link re-runs its engine's placement search mid-run. All
/// triggers are evaluated at block boundaries; in-flight blocks are never
/// drained (they finish on the placement they started with). Reconciler
/// adaptation (cascade passes, LDPC rate target) depends only on the
/// windowed QBER estimate, so adapted runs stay bit-deterministic per seed
/// even though placement triggers may consult wall-clock throughput.
struct ReplanPolicy {
  /// Replan every N blocks (0 = no periodic replanning).
  std::uint64_t period_blocks = 0;
  /// Replan when the windowed QBER moved at least this far from the value
  /// the current plan was made for (0 = disabled).
  double qber_delta = 0.0;
  /// Replan when windowed blocks/s falls below (1 - drop) x the best
  /// window seen since the last plan (0 = disabled).
  double throughput_drop = 0.0;
  /// Sliding-window length, in blocks, for the QBER and throughput
  /// estimates feeding the triggers and the reconciler adaptation.
  std::size_t window = 6;
  /// Retune the reconciler to the windowed QBER (method crossover between
  /// offloadable LDPC frames and low-leakage Cascade, pass count in the
  /// hot band - see PostprocessEngine::adapt_to_qber). When the adaptation
  /// changes the method, the link replans immediately: reconcile's device
  /// feasibility flips with it. Only consulted while the policy is
  /// enabled() - the sliding windows that feed the adaptation exist only
  /// on the dynamic path, so arm at least one trigger (period_blocks is
  /// the cheapest) to get adaptation; the default-constructed policy is
  /// fully static regardless of this flag.
  bool adapt_reconciler = true;

  /// Any trigger armed? Roster changes (device hot-remove/re-add) always
  /// force a replan while enabled.
  bool enabled() const noexcept {
    return period_blocks > 0 || qber_delta > 0 || throughput_drop > 0;
  }

  /// The default adaptive posture the examples and the scenario gate run:
  /// periodic refresh plus QBER and throughput triggers.
  static ReplanPolicy adaptive();
  /// Construction-time placement only (the PR-1 behaviour).
  static ReplanPolicy static_placement() { return ReplanPolicy{}; }
};

struct OrchestratorConfig {
  std::vector<LinkSpec> links;
  /// Shared roster; empty selects the standard four-kind set.
  std::vector<hetero::DeviceProps> devices;
  /// Host threads backing the shared set's parallel kernels (0 = hw).
  std::size_t device_threads = 0;
  /// Worker threads driving links. 0 = min(link count, hardware threads):
  /// a bounded pool, so links beyond the core count wait their turn
  /// instead of oversubscribing the host. Per-link determinism is
  /// unaffected - each link's rng stream and block order live in its
  /// LinkState, not in which worker runs it.
  std::size_t workers = 0;
  /// Bound applied to every link pair's KeyStore.
  pipeline::KeyStoreConfig store;
  /// Adaptive re-planning posture (default: static, the PR-1 behaviour).
  ReplanPolicy replan;
  /// Shared-roster fault timeline, keyed by per-link block index: a device
  /// goes offline once any link reaches offline_at_block and returns once
  /// any link reaches online_at_block. Asynchronous with respect to
  /// in-flight blocks, exactly like pulling a real accelerator.
  std::vector<sim::DeviceEvent> device_events;
  /// Fleet-wide circuit-breaker posture (default disabled).
  CircuitBreakerPolicy breaker;
};

/// Per-link outcome of one run().
struct LinkReport {
  std::string name;
  double length_km = 0.0;
  std::uint64_t blocks_ok = 0;
  std::uint64_t blocks_aborted = 0;
  std::uint64_t secret_bits = 0;       ///< accepted into the link's KeyStore
  std::uint64_t rejected_keys = 0;     ///< store-level rejections (bound hit)
  std::uint64_t rejected_bits = 0;
  double wall_seconds = 0.0;
  double secret_bits_per_s = 0.0;
  double blocks_per_s = 0.0;
  std::vector<std::string> stage_devices;  ///< final placement, per stage
  std::uint64_t replans = 0;               ///< mid-run placement refreshes
  std::uint64_t offline_aborts = 0;  ///< blocks lost to a hot-removed device
  double windowed_qber = 0.0;        ///< last sliding-window QBER estimate

  // Reconciliation decode statistics, summed over every processed block
  // (engine-path links; session-transport links leave them zero). Exposes
  // the batch decoder's behaviour - iteration pressure, early-exit rate,
  // disclosed bits - to reports.
  std::uint64_t reconcile_frames = 0;             ///< LDPC frames decoded
  std::uint64_t decoder_iterations = 0;           ///< BP iterations, summed
  std::uint64_t reconcile_early_exit_frames = 0;  ///< converged before the cap
  std::uint64_t reconcile_leak_bits = 0;          ///< error-correction leakage

  // Degradation observability (ISSUE 7): the session transport's channel
  // accounting and the breaker's behaviour, so a chaotic run is measured,
  // not inferred. Engine-path links leave the channel/fault counters zero.
  std::uint64_t channel_aborts = 0;  ///< blocks lost to kTimeout/kChannelClosed
  std::uint64_t auth_aborts = 0;     ///< blocks lost to a MAC failure
  /// Both sides succeeded but produced different keys: must stay zero —
  /// verification gates delivery, so a nonzero count is a protocol bug.
  std::uint64_t mismatched_keys = 0;
  std::uint64_t breaker_opens = 0;           ///< closed/half-open -> open
  std::uint64_t breaker_skipped_blocks = 0;  ///< blocks not attempted
  BreakerState breaker_state = BreakerState::kClosed;  ///< at end of run
  protocol::ChannelCounters channel;  ///< both session endpoints, summed
  protocol::FaultCounters faults;     ///< injected on this link's channel
};

/// Live per-link channel health, readable while run() is in flight (the
/// network layer routes relay traffic on it). Values are sampled at block
/// boundaries by the link thread; between runs they hold the last run's
/// final state (or the analytic nominal before the first block).
struct LinkHealth {
  double windowed_qber = 0.0;  ///< sliding-window QBER estimate
  std::uint64_t blocks_ok = 0;
  std::uint64_t blocks_aborted = 0;
  /// Aborted blocks since the last success: a link that is hard-down (an
  /// outage scenario, a saturating Eve) shows an unbroken abort streak,
  /// which is the router's "edge is down" signal.
  std::uint64_t consecutive_aborts = 0;
  bool distilling = false;  ///< a run() is currently driving this link
  /// The link's circuit is open or half-open: the router treats the edge
  /// like admin-down and the delivery facade answers 503 for starved pairs.
  bool breaker_open = false;
};

struct OrchestratorReport {
  std::vector<LinkReport> links;
  double wall_seconds = 0.0;           ///< whole-fleet wall clock
  std::uint64_t blocks_ok = 0;
  std::uint64_t blocks_aborted = 0;
  std::uint64_t secret_bits = 0;
  double secret_bits_per_s = 0.0;      ///< aggregate over fleet wall time
  double blocks_per_s = 0.0;
};

class LinkOrchestrator {
 public:
  /// Builds one engine per link over the shared device set, in link order
  /// (placement arbitration is deterministic). Throws Error{kConfig} on an
  /// empty link list, a duplicate link name, or an invalid channel, fault
  /// profile (standing or scheduled) or retry policy.
  explicit LinkOrchestrator(OrchestratorConfig config);

  std::size_t link_count() const noexcept { return links_.size(); }
  const LinkSpec& link_spec(std::size_t i) const { return links_[i].spec; }
  /// Index of the link named `name` (the identity a delivery facade keys
  /// SAE registrations on), or nullopt when no such link exists. O(1):
  /// the relay layer resolves a link per hop per request, so a
  /// registry-scale topology must not linear-scan here.
  std::optional<std::size_t> link_index(std::string_view name) const;
  /// Live channel health of link `i` (thread-safe; readable mid-run).
  LinkHealth link_health(std::size_t i) const;
  const engine::PostprocessEngine& link_engine(std::size_t i) const {
    return *links_[i].engine;
  }
  /// The link pair's bounded key store (thread-safe; consumers may draw
  /// concurrently with a running distillation).
  pipeline::KeyStore& key_store(std::size_t i) { return links_[i].store; }
  const hetero::DeviceSet& device_set() const noexcept { return *devices_; }

  /// Drive all links concurrently: each link distills spec.blocks blocks
  /// and deposits every successful key into its store. Repeatable; stores
  /// and rng streams carry over between runs. Serialized: overlapping
  /// calls queue on the run gate (LinkState block counters and rng streams
  /// are single-writer per link, so two interleaved fleets would corrupt
  /// determinism).
  OrchestratorReport run();

 private:
  struct LinkState {
    LinkSpec spec;
    std::unique_ptr<engine::PostprocessEngine> engine;
    pipeline::KeyStore store;
    Xoshiro256 rng;
    std::uint64_t next_block_id = 1;
    /// Roster version the link's current placement was planned against.
    /// Set at engine construction, so a device event that lands between
    /// construction and the link thread starting still triggers the
    /// catch-up replan at the first block.
    std::uint64_t roster_seen = 0;
    /// Live health mirror, published at block boundaries for concurrent
    /// readers (link_health); the link thread is the only writer.
    std::atomic<double> live_qber{0.0};
    std::atomic<std::uint64_t> live_blocks_ok{0};
    std::atomic<std::uint64_t> live_blocks_aborted{0};
    std::atomic<std::uint64_t> live_abort_streak{0};
    std::atomic<bool> live_distilling{false};
    std::atomic<bool> live_breaker_open{false};

    /// Breaker bookkeeping (link thread only; mirrored to the atomic).
    BreakerState breaker_state = BreakerState::kClosed;
    std::uint64_t breaker_probe_block = 0;  ///< per-run block index of probe
    double breaker_cooldown = 0.0;          ///< current cooldown, in blocks

    LinkState(LinkSpec s, pipeline::KeyStoreConfig store_config)
        : spec(std::move(s)),
          store(store_config),
          rng(spec.rng_seed) {}
  };

  /// Heterogeneous string hashing so link_index(string_view) never
  /// materializes a std::string per lookup.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  /// One shared-roster fault with apply-once latches (several link threads
  /// race past the same block index; the first one through flips the set).
  struct DeviceEventState {
    sim::DeviceEvent event;
    std::atomic<bool> removed{false};
    std::atomic<bool> restored{false};

    explicit DeviceEventState(sim::DeviceEvent e) : event(e) {}
  };

  void apply_device_events(std::uint64_t block_index);
  void run_link(std::size_t i, LinkReport& report);
  /// One block over the session transport: Alice and Bob distill their
  /// halves of `input` across an in-process classical channel wearing the
  /// block's fault profile under the ARQ layer. Returns an engine-shaped
  /// outcome so downstream accounting is path-agnostic; channel/fault
  /// counters accumulate onto `report`.
  engine::BlockOutcome run_session_block(LinkState& state,
                                         std::uint64_t block_id,
                                         std::uint64_t block_index,
                                         const engine::BlockInput& input,
                                         LinkReport& report);

  OrchestratorConfig config_;
  /// Run gate: the outermost lock in the repo (nothing may be held when a
  /// fleet starts). Held across the whole fleet drive, which reaches every
  /// lower-ranked lock from the link worker threads; the gate itself is
  /// only ever taken by the caller of run(), never by a worker.
  Mutex run_mutex_{LockRank::kOrchestrator, "orchestrator.run"};
  std::shared_ptr<hetero::DeviceSet> devices_;
  std::deque<LinkState> links_;  // LinkState is pinned (store owns a mutex)
  std::deque<DeviceEventState> events_;  // pinned (atomics)
  /// name -> index, immutable after construction (O(1) link_index).
  std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      link_index_;
};

}  // namespace qkdpp::service
