#include "service/link_orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/threadpool.hpp"
#include "engine/sim_adapter.hpp"
#include "pipeline/session.hpp"
#include "protocol/channel.hpp"

namespace qkdpp::service {

namespace {

/// Price this link's nominal per-block workload for the mapper: the
/// analytic channel model predicts the sifted/key volume and QBER a block
/// of `pulses_per_block` produces at this distance, so short metro links
/// and long lossy WAN links present genuinely different WorkEstimates and
/// the shared-device arbitration weighs them accordingly. `current` is the
/// channel as the schedule has perturbed it; `qber_override` (when >= 0)
/// substitutes a measured windowed QBER for the analytic prediction.
engine::StageWorkload workload_for(const LinkSpec& spec,
                                   const sim::LinkConfig& current,
                                   double qber_override = -1.0) {
  const sim::AnalyticLink model(current);
  const auto& source = current.source;
  const double gain = sim::expected_mean_gain(current);
  const auto pulses = static_cast<double>(spec.pulses_per_block);

  engine::StageWorkload workload;
  workload.pulses = spec.pulses_per_block;
  // Half the detections survive basis sifting.
  workload.sifted_bits = static_cast<std::size_t>(
      std::max(1.0, pulses * gain * 0.5));
  // Signal-class sifted bits minus the estimation sample enter the key.
  workload.key_bits = static_cast<std::size_t>(std::max(
      1.0, static_cast<double>(workload.sifted_bits) * source.p_signal *
               (1.0 - spec.params.pe_fraction)));
  workload.qber =
      qber_override >= 0 ? qber_override : model.qber(source.mu_signal);
  return workload;
}

double mean(const std::deque<double>& window) {
  if (window.empty()) return 0.0;
  return std::accumulate(window.begin(), window.end(), 0.0) /
         static_cast<double>(window.size());
}

/// SplitMix64-style per-block seed derivation: the session transport gives
/// every block its own RNG and fault streams, so a fault-timing-dependent
/// abort in block k cannot shift the randomness (and hence the keys) of
/// block k+1 — the byte-identical same-seed guarantee rests on this.
std::uint64_t block_seed(std::uint64_t link_seed, std::uint64_t block_id,
                         std::uint64_t salt) noexcept {
  std::uint64_t z =
      link_seed + 0x9e3779b97f4a7c15ULL * (block_id + 1) + (salt << 32);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void push_window(std::deque<double>& window, double value,
                 std::size_t capacity) {
  window.push_back(value);
  while (window.size() > std::max<std::size_t>(1, capacity)) {
    window.pop_front();
  }
}

}  // namespace

CircuitBreakerPolicy CircuitBreakerPolicy::standard() {
  CircuitBreakerPolicy policy;
  policy.open_after_aborts = 3;
  policy.cooldown_blocks = 4;
  policy.cooldown_backoff = 2.0;
  policy.max_cooldown_blocks = 32;
  return policy;
}

const char* to_string(BreakerState state) noexcept {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

ReplanPolicy ReplanPolicy::adaptive() {
  ReplanPolicy policy;
  policy.period_blocks = 8;
  policy.qber_delta = 0.015;
  policy.throughput_drop = 0.40;
  policy.window = 4;
  policy.adapt_reconciler = true;
  return policy;
}

LinkOrchestrator::LinkOrchestrator(OrchestratorConfig config)
    : config_(std::move(config)) {
  if (config_.links.empty()) {
    throw_error(ErrorCode::kConfig, "orchestrator needs at least one link");
  }
  devices_ = std::make_shared<hetero::DeviceSet>(config_.devices,
                                                 config_.device_threads);
  for (const auto& event : config_.device_events) {
    if (event.device_index >= devices_->size()) {
      throw_error(ErrorCode::kConfig, "device event outside roster");
    }
    events_.emplace_back(event);
  }
  for (auto& spec : config_.links) {
    spec.link.validate();
    // The session transport first builds its channels mid-run; a bad
    // profile or retry posture must fail here, not inside a fleet run.
    spec.channel_faults.validate();
    for (const auto& phase : spec.schedule.channel_faults) {
      phase.profile.validate();
    }
    spec.channel_retry.validate();
    QKDPP_REQUIRE(spec.pulses_per_block > 0, "empty block");
    if (!link_index_.emplace(spec.name, links_.size()).second) {
      throw_error(ErrorCode::kConfig,
                  "duplicate link name '" + spec.name +
                      "' (link_index would be ambiguous)");
    }
    links_.emplace_back(spec, config_.store);
    // Seed the live health with the analytic channel view so the network
    // router has a sensible QBER weight before the first block distills.
    // relaxed: health mirror - readers tolerate a stale sample by design.
    links_.back().live_qber.store(
        sim::AnalyticLink(spec.link).qber(spec.link.source.mu_signal),
        std::memory_order_relaxed);

    engine::EngineOptions options;
    options.shared_devices = devices_;
    options.workload = workload_for(spec, spec.link);
    links_.back().engine = std::make_unique<engine::PostprocessEngine>(
        spec.params, std::move(options));
    links_.back().roster_seen = devices_->roster_version();
  }
}

std::optional<std::size_t> LinkOrchestrator::link_index(
    std::string_view name) const {
  const auto it = link_index_.find(name);
  if (it == link_index_.end()) return std::nullopt;
  return it->second;
}

LinkHealth LinkOrchestrator::link_health(std::size_t i) const {
  const LinkState& state = links_[i];
  LinkHealth health;
  // relaxed: health snapshot - each field is independently published at a
  // block boundary; readers route/report on approximate, possibly torn
  // cross-field views by design.
  health.windowed_qber = state.live_qber.load(std::memory_order_relaxed);
  health.blocks_ok = state.live_blocks_ok.load(std::memory_order_relaxed);
  health.blocks_aborted =
      state.live_blocks_aborted.load(std::memory_order_relaxed);
  health.consecutive_aborts =
      state.live_abort_streak.load(std::memory_order_relaxed);
  health.distilling = state.live_distilling.load(std::memory_order_relaxed);
  health.breaker_open =
      state.live_breaker_open.load(std::memory_order_relaxed);
  return health;
}

void LinkOrchestrator::apply_device_events(std::uint64_t block_index) {
  for (auto& state : events_) {
    const auto& event = state.event;
    if (block_index >= event.offline_at_block &&
        !state.removed.exchange(true)) {
      devices_->set_online(event.device_index, false);
    }
    if (event.online_at_block > event.offline_at_block &&
        block_index >= event.online_at_block &&
        !state.restored.exchange(true)) {
      devices_->set_online(event.device_index, true);
    }
  }
}

engine::BlockOutcome LinkOrchestrator::run_session_block(
    LinkState& state, std::uint64_t block_id, std::uint64_t block_index,
    const engine::BlockInput& input, LinkReport& report) {
  const LinkSpec& spec = state.spec;
  const protocol::FaultProfile profile = spec.schedule.fault_profile_at(
      spec.channel_faults, block_index);
  const std::uint64_t seed = spec.rng_seed;

  auto [raw_alice, raw_bob] = protocol::make_channel_pair();
  auto faulty_alice = protocol::make_faulty_channel(
      std::move(raw_alice), profile, block_seed(seed, block_id, 1));
  auto faulty_bob = protocol::make_faulty_channel(
      std::move(raw_bob), profile, block_seed(seed, block_id, 2));
  // Keep injector handles: the ARQ layer owns them, but their per-kind
  // fault tallies outlive the sessions and feed the report.
  protocol::FaultyChannel* alice_faults = faulty_alice.get();
  protocol::FaultyChannel* bob_faults = faulty_bob.get();
  protocol::ReliableChannel alice_channel(std::move(faulty_alice),
                                          spec.channel_retry,
                                          block_seed(seed, block_id, 3));
  protocol::ReliableChannel bob_channel(std::move(faulty_bob),
                                        spec.channel_retry,
                                        block_seed(seed, block_id, 4));

  auto bob_future = std::async(std::launch::async, [&] {
    auto r = pipeline::run_bob_session(bob_channel, input.report,
                                       input.bob_bits, spec.params);
    // Close inside the task: close() lingers to pump retransmissions of
    // Bob's final frame, which only helps while Alice is still listening.
    bob_channel.close();
    return r;
  });
  // Per-block session RNG (PE positions, frame seeds, verify/PA seeds):
  // derived from (link seed, block id) so key material is identical across
  // runs whatever the fault timing did to previous blocks.
  Xoshiro256 session_rng(block_seed(seed, block_id, 0));
  const pipeline::SessionResult alice = pipeline::run_alice_session(
      alice_channel, input.log, block_id, spec.params, session_rng);
  alice_channel.close();
  const pipeline::SessionResult bob = bob_future.get();

  report.channel += alice.channel;
  report.channel += bob.channel;
  report.faults += alice_faults->fault_counters();
  report.faults += bob_faults->fault_counters();
  for (const auto& side : {alice, bob}) {
    if (!side.fault_code.has_value()) continue;
    if (*side.fault_code == ErrorCode::kAuthentication) {
      ++report.auth_aborts;
    } else if (*side.fault_code == ErrorCode::kTimeout ||
               *side.fault_code == ErrorCode::kChannelClosed) {
      ++report.channel_aborts;
    }
  }

  engine::BlockOutcome outcome;
  outcome.block_id = block_id;
  outcome.pulses = static_cast<std::size_t>(input.report.n_pulses);
  outcome.detections = input.report.detected_idx.size();
  outcome.sifted_bits = alice.sifted_bits;
  outcome.key_candidate_bits = alice.key_candidate_bits;
  outcome.qber_estimate = alice.qber_estimate;
  // Sentinel for the window feed: a session killed by a channel or auth
  // fault may carry a partial estimate; only a fault-free one (PE always
  // floors a completed estimate above zero) is a channel measurement.
  const bool channel_fault =
      alice.fault_code.has_value() || bob.fault_code.has_value();
  outcome.pe_sample_bits =
      (!channel_fault && alice.qber_estimate > 0.0) ? 1 : 0;
  outcome.leak_ec_bits = alice.leak_ec_bits;
  outcome.reconciled_bits = alice.reconciled_bits;
  if (alice.success && bob.success) {
    if (alice.final_key == bob.final_key) {
      outcome.success = true;
      outcome.final_key = alice.final_key;
      outcome.final_key_bits = alice.final_key.size();
    } else {
      // Verification and the PA-parameter checksum make this unreachable
      // short of a protocol bug; count it loudly instead of delivering.
      ++report.mismatched_keys;
      outcome.abort_reason = "endpoint key mismatch";
    }
  } else {
    outcome.abort_reason =
        !alice.success ? alice.abort_reason : bob.abort_reason;
  }
  return outcome;
}

void LinkOrchestrator::run_link(std::size_t i, LinkReport& report) {
  LinkState& state = links_[i];
  // relaxed: health mirror - single writer (this link thread), readers
  // tolerate staleness by design.
  state.live_distilling.store(true, std::memory_order_relaxed);
  const ReplanPolicy& policy = config_.replan;
  report.name = state.spec.name;
  report.length_km = state.spec.link.channel.length_km;

  // Sliding-window channel/throughput view driving adaptation. The QBER
  // window holds measured per-block estimates (deterministic per seed);
  // the throughput window holds wall-clock block times (placement only).
  std::deque<double> qber_window;
  std::deque<double> seconds_window;
  const sim::AnalyticLink nominal(state.spec.link);
  double qber_at_plan = nominal.qber(state.spec.link.source.mu_signal);
  double best_window_rate = 0.0;
  std::uint64_t last_plan_block = 0;

  const CircuitBreakerPolicy& breaker = config_.breaker;
  if (breaker.enabled() && state.breaker_state == BreakerState::kOpen) {
    // A breaker left open by a previous run probes immediately: its pending
    // cooldown was counted in the previous run's block indices.
    state.breaker_probe_block = 0;
  }

  Stopwatch link_clock;
  for (std::uint64_t b = 0; b < state.spec.blocks; ++b) {
    apply_device_events(b);

    if (breaker.enabled() && state.breaker_state == BreakerState::kOpen) {
      if (b < state.breaker_probe_block) {
        // Shed the block instead of waiting out a full exchange deadline
        // against a channel we already know is dark.
        ++report.breaker_skipped_blocks;
        continue;
      }
      state.breaker_state = BreakerState::kHalfOpen;
    }

    // A roster change invalidates the placement outright: replan before
    // committing the next block to a device that is no longer there.
    if (policy.enabled()) {
      const std::uint64_t roster_now = devices_->roster_version();
      if (roster_now != state.roster_seen) {
        state.engine->replan(workload_for(
            state.spec, state.spec.schedule.config_at(state.spec.link, b),
            qber_window.empty() ? -1.0 : mean(qber_window)));
        ++report.replans;
        state.roster_seen = roster_now;
        last_plan_block = b;
        if (!qber_window.empty()) qber_at_plan = mean(qber_window);
      }
    }

    const std::uint64_t block_id = state.next_block_id++;
    Stopwatch block_clock;
    // Sample the channel as the schedule has it at this block index (the
    // link itself when the schedule is empty): the simulator is cheap to
    // build and the physics stays seed-deterministic.
    const sim::Bb84Simulator simulator(
        state.spec.schedule.config_at(state.spec.link, b));
    const engine::BlockInput input = engine::make_block_input(
        simulator.run(state.spec.pulses_per_block, state.rng), block_id);
    const engine::BlockOutcome outcome =
        state.spec.session_transport
            ? run_session_block(state, block_id, b, input, report)
            : state.engine->process_block(input, block_id, state.rng);
    // Decode statistics accumulate for aborted blocks too - a failed block
    // still spent iterations and disclosed its syndromes.
    report.reconcile_frames += outcome.reconcile_frames;
    report.decoder_iterations += outcome.decoder_iterations;
    report.reconcile_early_exit_frames += outcome.reconcile_early_exit_frames;
    report.reconcile_leak_bits += outcome.leak_ec_bits;
    if (outcome.success) {
      ++report.blocks_ok;
      // relaxed: health mirror counters, single writer, stale reads fine.
      state.live_blocks_ok.fetch_add(1, std::memory_order_relaxed);
      state.live_abort_streak.store(0, std::memory_order_relaxed);
      // Typed deposit outcome: rejected material is accounted from the
      // result itself instead of sampling the store's counters around the
      // run (which misattributed rejections when other depositors share
      // the store).
      const pipeline::DepositResult deposited =
          state.store.deposit(outcome.final_key);
      if (deposited.accepted()) {
        report.secret_bits += outcome.final_key_bits;
      } else {
        ++report.rejected_keys;
        report.rejected_bits += outcome.final_key_bits;
      }
    } else {
      ++report.blocks_aborted;
      // relaxed: health mirror counters, single writer, stale reads fine.
      state.live_blocks_aborted.fetch_add(1, std::memory_order_relaxed);
      state.live_abort_streak.fetch_add(1, std::memory_order_relaxed);
      if (outcome.abort_reason == engine::kAbortDeviceOffline) {
        ++report.offline_aborts;
      }
    }

    if (breaker.enabled()) {
      if (outcome.success) {
        state.breaker_state = BreakerState::kClosed;
        state.breaker_cooldown = static_cast<double>(breaker.cooldown_blocks);
      } else {
        const bool probe_failed =
            state.breaker_state == BreakerState::kHalfOpen;
        // relaxed: reading back our own thread's streak counter.
        const std::uint64_t streak =
            state.live_abort_streak.load(std::memory_order_relaxed);
        if (probe_failed || streak >= breaker.open_after_aborts) {
          // A failed half-open probe backs the cooldown off geometrically;
          // a fresh abort streak starts from the base cooldown.
          state.breaker_cooldown =
              probe_failed
                  ? std::min(static_cast<double>(breaker.max_cooldown_blocks),
                             state.breaker_cooldown * breaker.cooldown_backoff)
                  : static_cast<double>(breaker.cooldown_blocks);
          state.breaker_state = BreakerState::kOpen;
          ++report.breaker_opens;
          state.breaker_probe_block =
              b + 1 + static_cast<std::uint64_t>(state.breaker_cooldown);
        }
      }
      // relaxed: health mirror, single writer, stale reads fine.
      state.live_breaker_open.store(
          state.breaker_state != BreakerState::kClosed,
          std::memory_order_relaxed);
    }

    // Feed the windows and evaluate the remaining triggers at the block
    // boundary; in-flight blocks of other links are never drained. An
    // aborted block feeds the QBER window only while its estimate sits
    // below the abort ceiling: a reconcile failure at 8% is a real
    // operating point the adaptation must react to (the LDPC->Cascade
    // switch on a QBER burst depends on exactly those blocks), but an
    // outage block estimated at ~50% — or a session killed by a channel
    // fault, which never produced a trustworthy estimate — says nothing
    // about the channel the *next* block will see, and mixing those in
    // skewed replan triggers and relay routing costs long after recovery.
    if (outcome.pe_sample_bits > 0 &&
        (outcome.success ||
         outcome.qber_estimate <= state.spec.params.qber_abort)) {
      push_window(qber_window, outcome.qber_estimate, policy.window);
    }
    push_window(seconds_window, block_clock.seconds(), policy.window);
    const double windowed_qber = mean(qber_window);
    report.windowed_qber = windowed_qber;
    if (!qber_window.empty()) {
      // relaxed: health mirror, single writer, stale reads fine.
      state.live_qber.store(windowed_qber, std::memory_order_relaxed);
    }

    bool replan = false;
    if (policy.adapt_reconciler && policy.enabled() && !qber_window.empty()) {
      // A method change flips reconcile's device feasibility (Cascade is
      // host-only), so the stale placement must be refreshed right away.
      replan = state.engine->adapt_to_qber(windowed_qber);
    }
    if (!policy.enabled() || b + 1 >= state.spec.blocks) continue;

    if (policy.period_blocks > 0 &&
        b + 1 - last_plan_block >= policy.period_blocks) {
      replan = true;
    }
    if (policy.qber_delta > 0 && !qber_window.empty() &&
        std::abs(windowed_qber - qber_at_plan) >= policy.qber_delta) {
      replan = true;
    }
    if (policy.throughput_drop > 0 &&
        seconds_window.size() >= std::max<std::size_t>(2, policy.window)) {
      const double rate = 1.0 / std::max(1e-12, mean(seconds_window));
      best_window_rate = std::max(best_window_rate, rate);
      if (rate < (1.0 - policy.throughput_drop) * best_window_rate) {
        replan = true;
      }
    }
    if (replan) {
      state.engine->replan(workload_for(
          state.spec, state.spec.schedule.config_at(state.spec.link, b + 1),
          qber_window.empty() ? -1.0 : windowed_qber));
      ++report.replans;
      last_plan_block = b + 1;
      if (!qber_window.empty()) qber_at_plan = windowed_qber;
      best_window_rate = 0.0;
      state.roster_seen = devices_->roster_version();
    }
  }
  report.wall_seconds = link_clock.seconds();
  report.breaker_state = state.breaker_state;
  // relaxed: health mirror, single writer, stale reads fine.
  state.live_distilling.store(false, std::memory_order_relaxed);

  const auto placement = state.engine->placement();
  for (std::size_t s = 0; s < placement.stage_names.size(); ++s) {
    report.stage_devices.push_back(placement.device_of(s));
  }
  if (report.wall_seconds > 0) {
    report.secret_bits_per_s =
        static_cast<double>(report.secret_bits) / report.wall_seconds;
    report.blocks_per_s =
        static_cast<double>(report.blocks_ok + report.blocks_aborted) /
        report.wall_seconds;
  }
}

OrchestratorReport LinkOrchestrator::run() {
  // Serialize overlapping fleets: per-link rng streams and block counters
  // are single-writer, and a second concurrent run() would interleave them.
  MutexLock gate(run_mutex_);
  // Bounded by default: min(links, hardware threads). Links are
  // deterministic regardless of which worker runs them (per-link rng
  // stream + block order live in LinkState).
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers =
      config_.workers ? config_.workers : std::min(links_.size(), hw);
  // Declared before the pool: the link tasks write into it.
  std::vector<LinkReport> reports(links_.size());
  ThreadPool pool(workers);
  Stopwatch fleet_clock;
  std::vector<std::future<void>> done;
  done.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    done.push_back(
        pool.submit([this, i, &reports] { run_link(i, reports[i]); }));
  }
  // Every link finishes before the first link's error is rethrown.
  for (auto& future : done) future.wait();
  for (auto& future : done) future.get();

  OrchestratorReport report;
  report.wall_seconds = fleet_clock.seconds();
  report.links = std::move(reports);
  for (const auto& link : report.links) {
    report.blocks_ok += link.blocks_ok;
    report.blocks_aborted += link.blocks_aborted;
    report.secret_bits += link.secret_bits;
  }
  if (report.wall_seconds > 0) {
    report.secret_bits_per_s =
        static_cast<double>(report.secret_bits) / report.wall_seconds;
    report.blocks_per_s =
        static_cast<double>(report.blocks_ok + report.blocks_aborted) /
        report.wall_seconds;
  }
  return report;
}

}  // namespace qkdpp::service
