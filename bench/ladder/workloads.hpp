// The four ladder workloads. Each builds its system through the library's
// public API, generates its inputs from the seed, measures for a fixed
// time, checks its outputs, and fills a Result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace ladder {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Build and warm the system, report setup_s, measure nothing.
  bool setup_only = false;
  /// Shrunken inputs for a quick CI pass (numbers are not comparable).
  bool smoke = false;
};

struct Result {
  std::vector<std::string> gate_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  EndToEnd e2e{kEndToEnd};
  PerLayer layers{kPerLayer};
  /// Span logs of the traced run (one per recording thread).
  std::vector<SpanLog> spans;
  /// Lines printed ahead of the metric table.
  std::vector<std::string> notes;

  /// Correctness gate: a false `ok` fails the run.
  void gate(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }

  /// A ladder gap (|sum of child spans - untraced mean| / untraced mean):
  /// above 0.10 the traced parts no longer account for the operation.
  void set_gap(const char* name, double gap) {
    layers.set(name, gap);
    if (gap > 0.10) {
      notes.push_back(std::string(name) + " is above its 0.10 tolerance");
    }
  }

  /// The timed end-to-end metrics: secret_bits_per_s and latency_mean_ms
  /// are the rate and mean latency of the run's fast quarter of windows,
  /// the program's own speed; latency_tail_ms is the nearest-rank
  /// percentile `q` (the workload's tail) over the whole run, which, like
  /// a user's, includes the stretches the host slowed.
  void set_timings(const Windows& windows, double q) {
    const Timings fast = windows.fast_quarter();
    const Timings all = windows.whole_run();
    const double tail = tail_q(all.latency_ms.size(), q);
    e2e.set("secret_bits_per_s", fast.rate());
    e2e.set("latency_mean_ms", fast.mean_ms());
    e2e.set("latency_tail_ms", percentile_sorted(all.latency_ms, tail));
    char note[320];
    std::snprintf(
        note, sizeof(note),
        "fast quarter: %zu of %zu windows, %zu latencies; tail p%g over the "
        "whole run; whole run vs fast quarter: rate %.5g vs %.5g, latency ms "
        "mean %.5g vs %.5g, p50 %.5g vs %.5g, p90 %.5g vs %.5g, p95 %.5g vs "
        "%.5g, p99 %.5g vs %.5g",
        fast.windows, all.windows, fast.latency_ms.size(), tail * 100,
        all.rate(), fast.rate(), all.mean_ms(), fast.mean_ms(),
        percentile_sorted(all.latency_ms, 0.5),
        percentile_sorted(fast.latency_ms, 0.5),
        percentile_sorted(all.latency_ms, 0.9),
        percentile_sorted(fast.latency_ms, 0.9),
        percentile_sorted(all.latency_ms, 0.95),
        percentile_sorted(fast.latency_ms, 0.95),
        percentile_sorted(all.latency_ms, 0.99),
        percentile_sorted(fast.latency_ms, 0.99));
    notes.push_back(note);
  }
};

/// Reconciliation counters summed over blocks; `Counters` is a
/// BlockOutcome or a LinkReport (both carry the decoder fields).
struct DecodeCounts {
  double frames = 0;
  double iterations = 0;
  double early_exits = 0;
  double leak_bits = 0;

  template <typename Counters>
  void add(const Counters& counters, std::uint64_t leak) {
    frames += static_cast<double>(counters.reconcile_frames);
    iterations += static_cast<double>(counters.decoder_iterations);
    early_exits += static_cast<double>(counters.reconcile_early_exit_frames);
    leak_bits += static_cast<double>(leak);
  }

  void report(PerLayer& layers, double blocks) const {
    layers.set("reconcile.frames_per_block", frames / blocks);
    layers.set("reconcile.iterations_per_frame",
               frames > 0 ? iterations / frames : 0);
    layers.set("reconcile.early_exit_rate",
               frames > 0 ? early_exits / frames : 0);
    layers.set("reconcile.leak_bits_per_block", leak_bits / blocks);
  }
};

/// Seed of the i-th stream derived from the workload seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  Digest digest;
  digest.mix(seed);
  digest.mix(i);
  return digest.value();
}

Result run_block_workload(const Options& options);  // metro-ldpc, noisy-cascade
Result run_fleet(const Options& options);
Result run_delivery(const Options& options);

}  // namespace ladder
