// Time-varying link scenarios: piecewise timelines of LinkConfig
// perturbations plus shared-roster device fault events.
//
// A deployed link is not stationary: fiber attenuation drifts with the
// diurnal thermal cycle, alignment transients spike the QBER, an active
// eavesdropper ramps up, detectors age, and accelerators on the shared
// post-processing host get hot-removed for maintenance. A LinkSchedule
// describes these as perturbations over half-open block-index ranges; the
// orchestrator samples `config_at(base, block)` before simulating each
// block, so the same schedule + seed always produces the same physics
// (the determinism the scenario tests pin down). DeviceEvents are the
// roster-side counterpart: they take a device of the shared DeviceSet
// offline (and optionally back online) at given block indices, which is
// what exercises the engines' re-planning path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "protocol/faulty_channel.hpp"
#include "sim/link_config.hpp"

namespace qkdpp::sim {

enum class PerturbationKind : std::uint8_t {
  /// Sinusoidal attenuation offset (dB/km): the 24h-compressed thermal
  /// cycle. `magnitude` is the peak offset, `period_blocks` the full cycle.
  kAttenuationDrift = 0,
  /// Flat misalignment increase over [begin, end): an alignment transient
  /// or polarization burst. `magnitude` adds to channel.misalignment.
  kQberBurst = 1,
  /// Eve ramps intercept-resend linearly from 0 to `magnitude` across
  /// [begin, end) and holds it afterwards.
  kEveRamp = 2,
  /// Detector efficiency decays linearly to `magnitude` x nominal across
  /// [begin, end) and stays degraded afterwards (APD aging / icing).
  kDetectorDegradation = 3,
  /// Hard link outage over [begin, end): a fiber cut or an adversary owning
  /// the span. Modeled as full intercept-resend plus saturated
  /// misalignment, so every block in the window fails parameter estimation
  /// deterministically - the link distills nothing and a network-layer
  /// router sees an unbroken abort streak on this edge. `magnitude` is
  /// ignored.
  kLinkOutage = 4,
};

const char* to_string(PerturbationKind kind) noexcept;

/// One perturbation of the base LinkConfig over [begin_block, end_block).
struct Perturbation {
  PerturbationKind kind = PerturbationKind::kQberBurst;
  std::uint64_t begin_block = 0;
  std::uint64_t end_block = 0;  ///< half-open; <= begin means "never active"
  /// Kind-specific strength: peak dB/km offset, misalignment delta, peak
  /// intercept fraction, or the terminal efficiency multiplier in (0, 1].
  double magnitude = 0.0;
  /// kAttenuationDrift only: blocks per full sinusoid cycle (<= 0 uses the
  /// active range length as one cycle).
  double period_blocks = 0.0;
};

/// Hot-remove (and optional re-add) of a shared-roster device, keyed by the
/// per-link block index the orchestrator drives scenarios with.
struct DeviceEvent {
  std::size_t device_index = 0;
  std::uint64_t offline_at_block = 0;
  /// Block index at which the device returns; <= offline_at_block means it
  /// stays offline for the rest of the run.
  std::uint64_t online_at_block = 0;
};

/// A classical-channel fault phase: over per-link block indices
/// [begin_block, end_block) the session transport overlays `profile` on the
/// link's standing fault profile. This is the *service* channel failing
/// (the quantum channel keeps producing detections) — the complement of
/// kLinkOutage, which kills the physics while the classical network stays
/// healthy.
struct ChannelFaultPhase {
  std::uint64_t begin_block = 0;
  std::uint64_t end_block = 0;  ///< half-open; <= begin means "never active"
  protocol::FaultProfile profile;
};

/// Piecewise timeline of perturbations applied to one link's base config.
struct LinkSchedule {
  std::vector<Perturbation> perturbations;
  /// Classical-channel fault timeline, sampled per block by links running
  /// the session transport (ignored on the in-process engine fast path,
  /// which exchanges no classical messages).
  std::vector<ChannelFaultPhase> channel_faults;

  bool empty() const noexcept {
    return perturbations.empty() && channel_faults.empty();
  }

  /// The link as block `block` sees it: every active perturbation applied
  /// to `base`, with results clamped into LinkConfig::validate() range.
  LinkConfig config_at(const LinkConfig& base, std::uint64_t block) const;

  /// The classical-channel fault profile block `block` distills under:
  /// `base` (the link's standing profile) overlaid with every active
  /// phase. Probabilities combine by max; outage windows accumulate.
  protocol::FaultProfile fault_profile_at(const protocol::FaultProfile& base,
                                          std::uint64_t block) const;
};

/// A named dynamic-link workload: the schedule, the fault events against
/// the shared roster, and how many blocks the timeline spans.
struct ScenarioConfig {
  std::string name;
  std::uint64_t blocks = 16;
  LinkSchedule schedule;
  std::vector<DeviceEvent> device_events;

  /// Throws Error{kConfig} on empty name, zero blocks, inverted
  /// perturbation ranges or out-of-range magnitudes.
  void validate() const;
};

/// Shipped scenarios (the matrix dynamic_link and the scenario gate iterate):
/// a 24h-compressed diurnal attenuation + misalignment cycle,
ScenarioConfig diurnal_scenario(std::uint64_t blocks = 24);
/// a mid-run QBER burst riding a quiet channel,
ScenarioConfig qber_burst_scenario(std::uint64_t blocks = 18);
/// an eavesdropper ramping up to an abort-worthy intercept fraction,
ScenarioConfig eve_ramp_scenario(std::uint64_t blocks = 18);
/// detectors degrading to a fraction of nominal efficiency,
ScenarioConfig detector_degradation_scenario(std::uint64_t blocks = 18);
/// and a device hot-remove/re-add fault on the shared roster.
ScenarioConfig device_hot_remove_scenario(std::uint64_t blocks = 18);

/// Mid-run hard outage of the link over [~1/3, ~2/3) of the timeline: the
/// route-perturbation scenario the network layer re-routes around. Not part
/// of shipped_scenarios() - a dead link has no adaptive-vs-static story for
/// the scenario gate; it exists to take a topology *edge* down.
ScenarioConfig link_outage_scenario(std::uint64_t blocks = 18);

/// Classical-channel loss burst over the middle third: 5% frame drop + 1%
/// bit corruption, the ARQ layer's bread-and-butter degradation case (and
/// the fleet-chaos test's goodput-gated profile). Session-transport links
/// only.
ScenarioConfig loss_burst_scenario(std::uint64_t blocks = 18);

/// Classical-channel outage over the middle third: every service-channel
/// frame lost while the quantum layer keeps clicking. Blocks in the window
/// abort with kTimeout once the ARQ's exchange deadline passes; the
/// orchestrator's circuit breaker is what keeps the link from waiting out
/// a full deadline on every one.
ScenarioConfig channel_outage_scenario(std::uint64_t blocks = 18);

/// All shipped scenarios, scaled to `blocks` timeline steps each.
std::vector<ScenarioConfig> shipped_scenarios(std::uint64_t blocks = 0);

}  // namespace qkdpp::sim
