#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace qkdpp::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Progress through [begin, end) in [0, 1]; blocks past the end hold 1.0
/// (ramps and degradations persist after the transition finishes).
double progress(const Perturbation& p, std::uint64_t block) noexcept {
  if (block < p.begin_block) return 0.0;
  if (p.end_block <= p.begin_block + 1) return 1.0;
  const double span = static_cast<double>(p.end_block - p.begin_block);
  return std::min(1.0, static_cast<double>(block - p.begin_block) / span);
}

bool active(const Perturbation& p, std::uint64_t block) noexcept {
  return block >= p.begin_block && block < p.end_block;
}

}  // namespace

const char* to_string(PerturbationKind kind) noexcept {
  switch (kind) {
    case PerturbationKind::kAttenuationDrift: return "attenuation-drift";
    case PerturbationKind::kQberBurst: return "qber-burst";
    case PerturbationKind::kEveRamp: return "eve-ramp";
    case PerturbationKind::kDetectorDegradation: return "detector-degradation";
    case PerturbationKind::kLinkOutage: return "link-outage";
  }
  return "unknown";
}

LinkConfig LinkSchedule::config_at(const LinkConfig& base,
                                   std::uint64_t block) const {
  LinkConfig config = base;
  for (const auto& p : perturbations) {
    switch (p.kind) {
      case PerturbationKind::kAttenuationDrift: {
        if (!active(p, block)) break;
        const double period = p.period_blocks > 0
                                  ? p.period_blocks
                                  : static_cast<double>(
                                        std::max<std::uint64_t>(
                                            1, p.end_block - p.begin_block));
        const double phase =
            2.0 * kPi * static_cast<double>(block - p.begin_block) / period;
        config.channel.attenuation_db_per_km = std::max(
            0.0, config.channel.attenuation_db_per_km +
                     p.magnitude * std::sin(phase));
        break;
      }
      case PerturbationKind::kQberBurst:
        if (!active(p, block)) break;
        config.channel.misalignment =
            std::min(0.5, config.channel.misalignment + p.magnitude);
        break;
      case PerturbationKind::kEveRamp:
        // Ramps hold their terminal value after end_block: an eavesdropper
        // does not politely leave when the ramp window closes.
        if (p.end_block <= p.begin_block) break;  // never active
        config.eve.intercept_fraction = std::clamp(
            config.eve.intercept_fraction + p.magnitude * progress(p, block),
            0.0, 1.0);
        break;
      case PerturbationKind::kDetectorDegradation: {
        // Linear decay from 1 to `magnitude` x nominal; persists afterwards.
        if (p.end_block <= p.begin_block) break;  // never active
        const double scale =
            1.0 + (p.magnitude - 1.0) * progress(p, block);
        config.detector.efficiency =
            std::clamp(config.detector.efficiency * scale, 1e-6, 1.0);
        break;
      }
      case PerturbationKind::kLinkOutage:
        // Hard down: every pulse intercepted and the channel maximally
        // misaligned pushes the QBER to ~50%, so parameter estimation
        // aborts every block in the window - deterministically, which is
        // what lets same-seed network failover runs replay identically.
        if (!active(p, block)) break;
        config.eve.intercept_fraction = 1.0;
        config.channel.misalignment = 0.5;
        break;
    }
  }
  return config;
}

protocol::FaultProfile LinkSchedule::fault_profile_at(
    const protocol::FaultProfile& base, std::uint64_t block) const {
  protocol::FaultProfile profile = base;
  for (const auto& phase : channel_faults) {
    if (block < phase.begin_block || block >= phase.end_block) continue;
    const auto& p = phase.profile;
    profile.drop = std::max(profile.drop, p.drop);
    profile.corrupt = std::max(profile.corrupt, p.corrupt);
    profile.duplicate = std::max(profile.duplicate, p.duplicate);
    profile.reorder = std::max(profile.reorder, p.reorder);
    profile.delay = std::max(profile.delay, p.delay);
    profile.max_delay_frames =
        std::max(profile.max_delay_frames, p.max_delay_frames);
    profile.outages.insert(profile.outages.end(), p.outages.begin(),
                           p.outages.end());
  }
  return profile;
}

void ScenarioConfig::validate() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw_error(ErrorCode::kConfig, what);
  };
  check(!name.empty(), "scenario needs a name");
  check(blocks > 0, "scenario needs at least one block");
  for (const auto& p : schedule.perturbations) {
    check(p.end_block >= p.begin_block, "inverted perturbation range");
    switch (p.kind) {
      case PerturbationKind::kAttenuationDrift:
        check(p.magnitude >= 0, "negative attenuation drift magnitude");
        break;
      case PerturbationKind::kQberBurst:
        check(p.magnitude >= 0 && p.magnitude <= 0.5,
              "qber burst magnitude outside [0, 0.5]");
        break;
      case PerturbationKind::kEveRamp:
        check(p.magnitude >= 0 && p.magnitude <= 1.0,
              "eve ramp magnitude outside [0, 1]");
        break;
      case PerturbationKind::kDetectorDegradation:
        check(p.magnitude > 0 && p.magnitude <= 1.0,
              "detector degradation multiplier outside (0, 1]");
        break;
      case PerturbationKind::kLinkOutage:
        break;  // magnitude unused: an outage has no strength knob
    }
  }
  for (const auto& phase : schedule.channel_faults) {
    check(phase.end_block >= phase.begin_block,
          "inverted channel fault phase");
    phase.profile.validate();  // throws its own kConfig on bad rates
  }
  for (const auto& event : device_events) {
    check(event.offline_at_block < blocks, "device event past scenario end");
  }
}

namespace {

/// Scale a block index designed against `design` blocks to `blocks`.
std::uint64_t at(std::uint64_t index, std::uint64_t design,
                 std::uint64_t blocks) noexcept {
  return index * blocks / design;
}

}  // namespace

ScenarioConfig diurnal_scenario(std::uint64_t blocks) {
  // One compressed 24h cycle: attenuation breathes with the thermal cycle
  // and alignment wanders through the afternoon (re-tracked at "night").
  ScenarioConfig scenario;
  scenario.name = "diurnal";
  scenario.blocks = blocks;
  Perturbation drift;
  drift.kind = PerturbationKind::kAttenuationDrift;
  drift.begin_block = 0;
  drift.end_block = blocks;
  drift.magnitude = 0.08;  // dB/km peak, ~+-2 dB over a 25 km span
  drift.period_blocks = static_cast<double>(blocks);
  scenario.schedule.perturbations.push_back(drift);
  Perturbation afternoon;
  afternoon.kind = PerturbationKind::kQberBurst;
  afternoon.begin_block = at(8, 24, blocks);
  afternoon.end_block = at(16, 24, blocks);
  afternoon.magnitude = 0.030;
  scenario.schedule.perturbations.push_back(afternoon);
  return scenario;
}

ScenarioConfig qber_burst_scenario(std::uint64_t blocks) {
  // A quiet channel with one hard polarization transient in the middle:
  // QBER jumps from ~1.7% to ~8% for a third of the run, then recovers.
  ScenarioConfig scenario;
  scenario.name = "qber-burst";
  scenario.blocks = blocks;
  Perturbation burst;
  burst.kind = PerturbationKind::kQberBurst;
  burst.begin_block = at(6, 18, blocks);
  burst.end_block = at(12, 18, blocks);
  burst.magnitude = 0.065;
  scenario.schedule.perturbations.push_back(burst);
  return scenario;
}

ScenarioConfig eve_ramp_scenario(std::uint64_t blocks) {
  // Intercept-resend ramping to 30% of pulses: the QBER climbs toward the
  // abort threshold and the post-processing has to ride the slope.
  ScenarioConfig scenario;
  scenario.name = "eve-ramp";
  scenario.blocks = blocks;
  Perturbation ramp;
  ramp.kind = PerturbationKind::kEveRamp;
  ramp.begin_block = at(5, 18, blocks);
  ramp.end_block = at(14, 18, blocks);
  ramp.magnitude = 0.30;
  scenario.schedule.perturbations.push_back(ramp);
  return scenario;
}

ScenarioConfig detector_degradation_scenario(std::uint64_t blocks) {
  // APDs icing up: efficiency decays to 40% of nominal over most of the
  // run, shrinking blocks and pushing the dark-count QBER floor up.
  ScenarioConfig scenario;
  scenario.name = "detector-degradation";
  scenario.blocks = blocks;
  Perturbation decay;
  decay.kind = PerturbationKind::kDetectorDegradation;
  decay.begin_block = at(4, 18, blocks);
  decay.end_block = at(15, 18, blocks);
  decay.magnitude = 0.40;
  scenario.schedule.perturbations.push_back(decay);
  return scenario;
}

ScenarioConfig device_hot_remove_scenario(std::uint64_t blocks) {
  // Maintenance pulls the accelerator mid-run and returns it near the end:
  // device 2 of the standard roster (gpu-sim) goes dark for half the run.
  ScenarioConfig scenario;
  scenario.name = "device-hot-remove";
  scenario.blocks = blocks;
  DeviceEvent fault;
  fault.device_index = 2;
  fault.offline_at_block = at(4, 18, blocks);
  fault.online_at_block = at(14, 18, blocks);
  scenario.device_events.push_back(fault);
  return scenario;
}

ScenarioConfig link_outage_scenario(std::uint64_t blocks) {
  // A fiber cut in the middle third of the run: the link distills nothing
  // while the cut is open, then comes back. Every block in the window
  // aborts deterministically, so a same-seed replay reroutes identically.
  ScenarioConfig scenario;
  scenario.name = "link-outage";
  scenario.blocks = blocks;
  Perturbation outage;
  outage.kind = PerturbationKind::kLinkOutage;
  outage.begin_block = at(6, 18, blocks);
  outage.end_block = at(12, 18, blocks);
  scenario.schedule.perturbations.push_back(outage);
  return scenario;
}

ScenarioConfig loss_burst_scenario(std::uint64_t blocks) {
  // The classical service channel degrades for the middle third: 5% of
  // frames vanish and 1% take a bit flip. The ARQ layer heals all of it;
  // the cost is retransmission latency, which the fleet-chaos test gates
  // at >= 0.7x clean goodput.
  ScenarioConfig scenario;
  scenario.name = "loss-burst";
  scenario.blocks = blocks;
  ChannelFaultPhase burst;
  burst.begin_block = at(6, 18, blocks);
  burst.end_block = at(12, 18, blocks);
  burst.profile.drop = 0.05;
  burst.profile.corrupt = 0.01;
  scenario.schedule.channel_faults.push_back(burst);
  return scenario;
}

ScenarioConfig channel_outage_scenario(std::uint64_t blocks) {
  // The service channel goes fully dark for the middle third while the
  // quantum layer keeps producing detections: every block in the window
  // retransmits until its exchange deadline and aborts with kTimeout. The
  // breaker opens on the abort streak and half-open probes rediscover the
  // channel once the outage lifts.
  ScenarioConfig scenario;
  scenario.name = "channel-outage";
  scenario.blocks = blocks;
  ChannelFaultPhase outage;
  outage.begin_block = at(6, 18, blocks);
  outage.end_block = at(12, 18, blocks);
  outage.profile.drop = 1.0;
  scenario.schedule.channel_faults.push_back(outage);
  return scenario;
}

std::vector<ScenarioConfig> shipped_scenarios(std::uint64_t blocks) {
  std::vector<ScenarioConfig> scenarios;
  if (blocks == 0) {
    scenarios = {diurnal_scenario(), qber_burst_scenario(),
                 eve_ramp_scenario(), detector_degradation_scenario(),
                 device_hot_remove_scenario()};
  } else {
    scenarios = {diurnal_scenario(blocks), qber_burst_scenario(blocks),
                 eve_ramp_scenario(blocks),
                 detector_degradation_scenario(blocks),
                 device_hot_remove_scenario(blocks)};
  }
  for (const auto& scenario : scenarios) scenario.validate();
  return scenarios;
}

}  // namespace qkdpp::sim
