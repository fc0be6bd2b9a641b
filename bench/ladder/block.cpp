// Block workloads: metro-ldpc and noisy-cascade.
//
// Both drive PostprocessEngine::process_block in a closed loop with one
// block in flight, cycling over pre-simulated inputs with a fresh block id
// and RNG seed per call. The traced run also drives every call through
// make_stage_executors on the devices of the engine's placement, timing
// each stage from outside, and must reproduce every final key bit for bit.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "engine/stage.hpp"
#include "hetero/device_set.hpp"
#include "sim/bb84.hpp"
#include "workloads.hpp"

namespace ladder {

namespace {

using namespace qkdpp;

struct BlockWorkload {
  double km = 10.0;
  double misalignment = 0.015;
  std::size_t inputs = 48;
  /// noisy-cascade: measure QBER on warm-up blocks, adapt_to_qber, replan.
  bool adapt = false;
};

/// Tail percentile of both block workloads: a run makes ~1400 metro-ldpc
/// and ~3600 noisy-cascade calls on the reference host; p99 of either
/// moved twice as much from run to run.
constexpr double kTailQ = 0.95;

BlockWorkload workload_shape(const Options& options) {
  BlockWorkload shape;
  if (options.workload == "noisy-cascade") {
    shape.km = 25.0;
    shape.misalignment = 0.045;  // QBER ~4.9%: Cascade's band
    shape.inputs = 24;
    shape.adapt = true;
  }
  if (options.smoke) shape.inputs = 4;
  return shape;
}

/// What one call produced; the digest stands in for the key.
struct CallOutcome {
  bool success = false;
  std::uint64_t final_bits = 0;
  std::uint64_t sifted_bits = 0;
  std::uint64_t digest = 0;
};

CallOutcome summarize(const engine::BlockOutcome& outcome) {
  CallOutcome call;
  call.success = outcome.success;
  call.final_bits = outcome.final_key_bits;
  call.sifted_bits = outcome.sifted_bits;
  Digest digest;
  digest.add(outcome.final_key);
  call.digest = digest.value();
  return call;
}

/// Simulates the inputs on every host thread (load generation, untimed by
/// setup_s); returns the mean simulator time per block in ms.
double simulate_inputs(const BlockWorkload& shape, std::uint64_t seed,
                       std::vector<engine::BlockInput>& inputs) {
  sim::LinkConfig link;
  link.channel.length_km = shape.km;
  link.channel.misalignment = shape.misalignment;
  const std::size_t pulses = sim::pulses_for_sifted_target(
      link, 40000.0, std::size_t{1} << 20, std::size_t{1} << 26);
  const sim::Bb84Simulator simulator(link);
  inputs.resize(shape.inputs);
  std::vector<double> sim_ms(shape.inputs, 0.0);
  const std::size_t threads = std::min(host_threads(), shape.inputs);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < shape.inputs; i += threads) {
        Xoshiro256 rng(derive_seed(seed, 0x51ULL << 32 | i));
        const std::int64_t start = now_ns();
        const sim::DetectionRecord record = simulator.run(pulses, rng);
        sim_ms[i] = seconds_since(start) * 1e3;
        inputs[i] = engine::make_block_input(record, i + 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  double total = 0.0;
  for (const double ms : sim_ms) total += ms;
  return total / static_cast<double>(shape.inputs);
}

/// The block id and RNG seed of measured call i (fresh per call).
std::uint64_t call_block_id(std::uint64_t i) { return i + 1; }
std::uint64_t call_seed(std::uint64_t seed, std::uint64_t i) {
  return derive_seed(seed, 0xca11ULL << 32 | i);
}

/// The stage chain of process_block, driven from outside: the same
/// executors on the same devices the engine placed them on, each stage
/// wrapped in a span.
class StageMirror {
 public:
  StageMirror(const engine::Placement& placement,
              const engine::PostprocessParams& params, hetero::DeviceSet& set)
      : params_(params), executors_(engine::make_stage_executors(params_)) {
    for (std::size_t s = 0; s < executors_.size(); ++s) {
      for (std::size_t d = 0; d < set.size(); ++d) {
        if (set.device(d).name() == placement.device_of(s)) {
          placement_.push_back(&set.device(d));
        }
      }
    }
  }

  bool mirrors(const engine::Placement& placement) const {
    return placement_.size() == placement.stage_names.size();
  }

  /// One block; returns the seconds the devices charged (modeled on the
  /// simulated accelerators).
  double run(const engine::BlockInput& input, std::uint64_t block_id,
             Xoshiro256& rng, SpanLog* log, engine::BlockOutcome& out) const {
    engine::BlockState state;
    state.input = &input;
    state.block_id = block_id;
    state.outcome.block_id = block_id;
    state.outcome.pulses = static_cast<std::size_t>(input.report.n_pulses);
    state.outcome.detections = input.report.detected_idx.size();
    BlockArena& arena = thread_arena();
    arena.reset();
    engine::ExecutionContext ctx;
    ctx.params = &params_;
    ctx.rng = &rng;
    ctx.ledger = &state.ledger;
    ctx.arena = &arena;
    double charged = 0.0;
    ScopedSpan block_span(log, SpanName::kBlock, block_id);
    for (std::size_t s = 0; s < executors_.size(); ++s) {
      ctx.device = placement_[s];
      ctx.pool = ctx.device->pool();
      ScopedSpan stage_span(log, stage_span_name(executors_[s]->kind()),
                            block_id);
      charged += executors_[s]->run(state, ctx);
      if (state.aborted()) break;
    }
    state.outcome.leak_ec_bits = state.ledger.ec_bits;
    out = std::move(state.outcome);
    return charged;
  }

 private:
  static SpanName stage_span_name(engine::StageKind kind) {
    switch (kind) {
      case engine::StageKind::kSift: return SpanName::kSift;
      case engine::StageKind::kEstimate: return SpanName::kEstimate;
      case engine::StageKind::kReconcile: return SpanName::kReconcile;
      case engine::StageKind::kVerify: return SpanName::kVerify;
      case engine::StageKind::kAmplify: return SpanName::kAmplify;
    }
    return SpanName::kBlock;
  }

  engine::PostprocessParams params_;
  std::vector<std::unique_ptr<engine::StageExecutor>> executors_;
  std::vector<hetero::Device*> placement_;
};

/// Construction plus warm-up: one pass over every input, so lazy work (PEG
/// code construction for each code the planner picks) is paid here.
/// noisy-cascade measures the QBER on the first blocks, adapts the
/// reconciler and replans, then warms the Cascade path.
/// The engine runs on EngineOptions::standard(threads) with its roster held
/// in `devices` (the same four devices and pool it would build itself), so
/// the traced mirror drives exactly the devices the engine uses.
std::unique_ptr<engine::PostprocessEngine> set_up(
    const BlockWorkload& shape, const std::vector<engine::BlockInput>& inputs,
    std::size_t threads, std::shared_ptr<hetero::DeviceSet>& devices,
    std::uint64_t seed, Result& result) {
  const std::int64_t start = now_ns();
  devices = std::make_shared<hetero::DeviceSet>(
      std::vector<hetero::DeviceProps>{}, threads);
  engine::EngineOptions options = engine::EngineOptions::standard(threads);
  options.shared_devices = devices;
  auto engine = std::make_unique<engine::PostprocessEngine>(
      engine::PostprocessParams{}, std::move(options));
  // Returns the workload of the last block and the mean QBER estimate.
  const auto warm = [&](std::size_t count) {
    engine::StageWorkload seen;
    for (std::size_t i = 0; i < count; ++i) {
      Xoshiro256 rng(derive_seed(seed, 0x3a3aULL << 32 | i));
      const auto outcome =
          engine->process_block(inputs[i], (std::uint64_t{1} << 40) + i, rng);
      seen.pulses = outcome.pulses;
      seen.sifted_bits = outcome.sifted_bits;
      seen.key_bits = outcome.key_candidate_bits - outcome.pe_sample_bits;
      seen.qber += outcome.qber_estimate / static_cast<double>(count);
    }
    return seen;
  };
  if (shape.adapt) {
    // The orchestrator's adaptation window: the mean QBER estimate of the
    // first blocks decides the method, then placement is searched again.
    const engine::StageWorkload seen =
        warm(std::min<std::size_t>(6, inputs.size()));
    engine->adapt_to_qber(seen.qber);
    result.gate(engine->params().method == protocol::ReconcileMethod::kCascade,
                "noisy-cascade: method is not Cascade after adapt_to_qber");
    engine->replan(seen);
  }
  warm(inputs.size());
  result.setup_s = seconds_since(start);
  return engine;
}

}  // namespace

Result run_block_workload(const Options& options) {
  Result result;
  const BlockWorkload shape = workload_shape(options);
  // Two pool threads beside the caller: room for a parallel kernel to show,
  // while the run keeps few cores of the shared host busy.
  const std::size_t threads = std::clamp<std::size_t>(host_threads() - 1, 1, 2);

  std::vector<engine::BlockInput> inputs;
  const double sim_block_ms = simulate_inputs(shape, options.seed, inputs);
  std::shared_ptr<hetero::DeviceSet> devices;
  auto engine = set_up(shape, inputs, threads, devices, options.seed, result);
  if (options.setup_only) return result;
  const engine::Placement placement = engine->placement();
  std::string placed = "placement:";
  for (std::size_t s = 0; s < placement.stage_names.size(); ++s) {
    placed += " " + placement.stage_names[s] + "->" + placement.device_of(s);
  }
  result.notes.push_back(placed);
  const StageMirror mirror(placement, engine->params(), *devices);
  result.gate(mirror.mirrors(placement),
              "stage mirror: placement names a device outside the roster");
  if (!mirror.mirrors(placement)) return result;

  // Call i of the engine, untraced; and the same call (same input, block id
  // and RNG seed) through the mirror, traced.
  std::vector<double> latency_ms;
  std::vector<CallOutcome> calls;
  DecodeCounts decode;
  double rounds = 0, efficiency = 0;
  const auto engine_call = [&](std::uint64_t i) {
    Xoshiro256 rng(call_seed(options.seed, i));
    const std::int64_t start = now_ns();
    const engine::BlockOutcome outcome = engine->process_block(
        inputs[i % inputs.size()], call_block_id(i), rng);
    latency_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    calls.push_back(summarize(outcome));
    decode.add(outcome, outcome.leak_ec_bits);
    rounds += static_cast<double>(outcome.reconcile_rounds);
    efficiency += outcome.efficiency;
  };
  SpanLog* log = options.trace ? &result.spans.emplace_back() : nullptr;
  double charged_s = 0.0;
  std::uint64_t mismatches = 0;
  const auto mirror_call = [&](std::uint64_t i) {
    Xoshiro256 rng(call_seed(options.seed, i));
    engine::BlockOutcome outcome;
    charged_s += mirror.run(inputs[i % inputs.size()], call_block_id(i), rng,
                            log, outcome);
    return summarize(outcome).digest;
  };

  // Measured loop: closed, one block in flight, fixed time. The first two
  // passes over the inputs always run: key_yield is taken over them, so it
  // does not depend on how fast the host is. Traced, every call runs on
  // both paths, alternating which goes first, so the traced time and the
  // untraced time it is compared with share the host's conditions.
  const std::uint64_t yield_calls = 2 * inputs.size();
  const std::uint64_t n = run_for(options.seconds, yield_calls, [&](auto i) {
    if (!options.trace) return engine_call(i);
    std::uint64_t digest = 0;
    if (i % 2) digest = mirror_call(i);
    engine_call(i);
    if (i % 2 == 0) digest = mirror_call(i);
    mismatches += digest != calls[i].digest;
  });
  // Untraced, the first calls are replayed through the mirror afterwards:
  // the same-keys gate runs on every run.
  for (std::uint64_t i = 0; !options.trace && i < std::min<std::uint64_t>(n, 8);
       ++i) {
    mismatches += mirror_call(i) != calls[i].digest;
  }
  result.gate(mismatches == 0,
              std::to_string(mismatches) +
                  " mirrored blocks differ from the engine's final keys");

  result.attempted = n;
  double yield_final = 0, yield_sifted = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!calls[i].success) ++result.failed;
    if (i < yield_calls) {
      yield_final += static_cast<double>(calls[i].final_bits);
      yield_sifted += static_cast<double>(calls[i].sifted_bits);
    }
  }
  const double blocks = static_cast<double>(n);
  double block_mean_ms = 0;
  for (const double ms : latency_ms) block_mean_ms += ms / blocks;
  if (!options.trace) {
    // One window per whole pass over the inputs, so every window does the
    // same work; its time is the calls' own.
    Windows windows;
    const std::uint64_t pass = inputs.size();
    for (std::uint64_t first = 0; first + pass <= n; first += pass) {
      double bits = 0, seconds = 0;
      for (std::uint64_t i = first; i < first + pass; ++i) {
        bits += static_cast<double>(calls[i].final_bits);
        seconds += latency_ms[i] * 1e-3;
      }
      windows.add(bits, seconds,
                  {latency_ms.begin() + first,
                   latency_ms.begin() + first + pass});
    }
    result.set_timings(windows, kTailQ);
    result.e2e.set("key_yield", yield_final / yield_sifted);
    result.e2e.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  const auto stage_ms = [&](SpanName name) {
    return log->mean_ns(name) * 1e-6;
  };
  const double traced_block_ms = stage_ms(SpanName::kBlock);
  const double stage_sum_ms =
      stage_ms(SpanName::kSift) + stage_ms(SpanName::kEstimate) +
      stage_ms(SpanName::kReconcile) + stage_ms(SpanName::kVerify) +
      stage_ms(SpanName::kAmplify);
  auto& layers = result.layers;
  layers.set("protocol.sift_ms", stage_ms(SpanName::kSift));
  layers.set("engine.estimate_ms", stage_ms(SpanName::kEstimate));
  layers.set("reconcile.stage_ms", stage_ms(SpanName::kReconcile));
  layers.set("privacy.verify_ms", stage_ms(SpanName::kVerify));
  layers.set("privacy.amplify_ms", stage_ms(SpanName::kAmplify));
  layers.set("engine.self_ms",
             static_cast<double>(log->totals(SpanName::kBlock).self_ns) * 1e-6 /
                 blocks);
  result.set_gap("ladder.block_gap",
                 std::abs(stage_sum_ms - block_mean_ms) / block_mean_ms);
  layers.set("trace.overhead", traced_block_ms / block_mean_ms - 1.0);
  decode.report(layers, blocks);
  const double reconcile_us =
      static_cast<double>(log->totals(SpanName::kReconcile).total_ns) * 1e-3;
  layers.set("reconcile.us_per_frame_iteration",
             decode.iterations > 0 ? reconcile_us / decode.iterations : 0.0);
  layers.set("reconcile.rounds_per_block", rounds / blocks);
  layers.set("reconcile.efficiency_f", efficiency / blocks);
  layers.set("hetero.charged_block_ms_modeled", charged_s * 1e3 / blocks);
  layers.set("sim.block_ms", sim_block_ms);
  return result;
}

}  // namespace ladder
