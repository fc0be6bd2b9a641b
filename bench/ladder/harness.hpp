// Shared harness of the wall-clock ladder benchmark: the clock, fixed-time
// loops, the tail-percentile rule, named metrics and their JSON line, the
// host fingerprint, and the in-memory span recorder behind --trace.
//
// Everything here observes the library from outside: spans wrap calls into
// the library's public API, never code inside it.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"

namespace ladder {

// ---------------------------------------------------------------------------
// Clock and loops

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Fixed-time loop: runs `op(i)` for i = 0, 1, ... until `seconds` have
/// passed and at least `min_ops` ops ran (a run never ends on a prefix the
/// correctness gates need). Returns the number of ops run.
template <typename Op>
std::uint64_t run_for(double seconds, std::uint64_t min_ops, Op&& op) {
  const std::int64_t start = now_ns();
  std::uint64_t i = 0;
  while (i < min_ops || seconds_since(start) < seconds) op(i++);
  return i;
}

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank percentile of sorted samples, q in (0, 1].
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The tail percentile of a workload with `samples` samples: `q` (fixed
/// per workload, so a faster commit with more samples reports the same
/// percentile), or the highest of p99/p95/p90/p75/p50 below it that leaves
/// at least ten samples beyond it when the run is too short for `q` (a p99
/// of 200 samples is the 2nd-largest sample, which measures nothing).
inline double tail_q(std::size_t samples, double q) {
  for (const double candidate : {q, 0.99, 0.95, 0.90, 0.75}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(candidate * static_cast<double>(samples)));
    if (candidate <= q && samples >= rank + 10) return candidate;
  }
  return 0.5;
}

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 0.5);
}

// ---------------------------------------------------------------------------
// Windows
//
// The host is shared. When co-tenants load it, its cores run ~1.45x slower,
// for a fraction of a second up to minutes, and a run whose timings average
// over that reads whatever the co-tenants did. So a run is cut into windows
// that all do the same work (one pass over the block inputs, one round, a
// tenth of a second of requests), and the timed metrics are read from the
// quarter of the windows with the highest rates: the program's own speed,
// unless three quarters of the run were slowed.

/// Output and operation latencies of a set of windows.
struct Timings {
  std::size_t windows = 0;
  double amount = 0;   ///< output (key bits)
  double seconds = 0;  ///< time that produced it
  std::vector<double> latency_ms;  ///< sorted

  double rate() const { return seconds > 0 ? amount / seconds : 0.0; }
  double mean_ms() const {
    double sum = 0;
    for (const double ms : latency_ms) sum += ms;
    return latency_ms.empty() ? 0.0 : sum / latency_ms.size();
  }
};

class Windows {
 public:
  /// One window: `amount` of output in `seconds`, and the latencies of
  /// (some of) its operations.
  void add(double amount, double seconds, std::vector<double> latency_ms) {
    if (seconds > 0) {
      windows_.push_back({amount, seconds, std::move(latency_ms)});
    }
  }

  /// The ceil(n/4) of the n windows with the highest rates.
  Timings fast_quarter() const {
    std::vector<const Window*> fast;
    for (const auto& window : windows_) fast.push_back(&window);
    std::sort(fast.begin(), fast.end(), [](const auto* a, const auto* b) {
      return a->amount * b->seconds > b->amount * a->seconds;
    });
    fast.resize((fast.size() + 3) / 4);
    return timings(fast);
  }
  Timings whole_run() const {
    std::vector<const Window*> all;
    for (const auto& window : windows_) all.push_back(&window);
    return timings(all);
  }

 private:
  struct Window {
    double amount = 0;
    double seconds = 0;
    std::vector<double> latency_ms;
  };

  static Timings timings(const std::vector<const Window*>& windows) {
    Timings out;
    for (const Window* window : windows) {
      out.amount += window->amount;
      out.seconds += window->seconds;
      out.latency_ms.insert(out.latency_ms.end(), window->latency_ms.begin(),
                            window->latency_ms.end());
    }
    out.windows = windows.size();
    std::sort(out.latency_ms.begin(), out.latency_ms.end());
    return out;
  }

  std::vector<Window> windows_;
};

// ---------------------------------------------------------------------------
// Metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every untraced run on every workload.
/// What each means per workload is in README.md.
inline constexpr std::array<MetricSpec, 6> kEndToEnd = {{
    {"secret_bits_per_s", "bit/s"},
    {"latency_mean_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"key_yield", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
}};

/// Per-layer metrics, printed by every traced run on every workload; a
/// layer the workload never calls reads 0.
inline constexpr std::array<MetricSpec, 29> kPerLayer = {{
    {"protocol.sift_ms", "ms"},
    {"engine.estimate_ms", "ms"},
    {"reconcile.stage_ms", "ms"},
    {"privacy.verify_ms", "ms"},
    {"privacy.amplify_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"ladder.block_gap", "ratio"},
    {"reconcile.frames_per_block", "count"},
    {"reconcile.iterations_per_frame", "count"},
    {"reconcile.early_exit_rate", "ratio"},
    {"reconcile.us_per_frame_iteration", "us"},
    {"reconcile.rounds_per_block", "count"},
    {"reconcile.leak_bits_per_block", "bit"},
    {"reconcile.efficiency_f", "ratio"},
    {"hetero.charged_block_ms_modeled", "ms"},
    {"sim.block_ms", "ms"},
    {"sim.share", "ratio"},
    {"service.round_s", "s"},
    {"service.worker_busy_share", "ratio"},
    {"service.link_imbalance", "ratio"},
    {"api.parse_us", "us"},
    {"api.service_us", "us"},
    {"api.serialize_us", "us"},
    {"ladder.request_gap", "ratio"},
    {"kms.draw_us", "us"},
    {"network.relay_draw_us", "us"},
    {"kms.deposit_us", "us"},
    {"kms.deposit_reject_rate", "ratio"},
    {"trace.overhead", "ratio"},
}};

/// One value per name of a fixed table, all present from construction so
/// a workload that skips a layer still prints it (as 0).
template <std::size_t N>
class MetricSet {
 public:
  explicit MetricSet(const std::array<MetricSpec, N>& specs) : specs_(&specs) {}

  void set(std::string_view name, double value) {
    for (std::size_t i = 0; i < N; ++i) {
      if (name == (*specs_)[i].name) {
        values_[i] = std::isfinite(value) ? value : 0.0;
        return;
      }
    }
    std::fprintf(stderr, "ladder: unknown metric %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
      char buffer[192];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", (*specs_)[i].name, values_[i],
                    (*specs_)[i].unit);
      out += buffer;
    }
    return out + "}";
  }

  void print_table() const {
    for (std::size_t i = 0; i < N; ++i) {
      std::printf("  %-34s %14.6g %s\n", (*specs_)[i].name, values_[i],
                  (*specs_)[i].unit);
    }
  }

 private:
  const std::array<MetricSpec, N>* specs_;
  std::array<double, N> values_{};
};

using EndToEnd = MetricSet<kEndToEnd.size()>;
using PerLayer = MetricSet<kPerLayer.size()>;

/// Peak resident set of this process, in MB (VmHWM).
double peak_rss_mb();

/// One-line JSON host fingerprint: nproc, CPU model, clmul hardware,
/// AVX2/AVX-512, compiler, build type, git SHA (LADDER_GIT_SHA).
std::string host_fingerprint_json();

/// Threads a workload may keep busy: the host's core count.
std::size_t host_threads();

/// Order-sensitive 64-bit digest of a key sequence (the traced-vs-untraced
/// equality gate compares these, never the keys themselves).
class Digest {
 public:
  void add(const qkdpp::BitVec& bits) noexcept {
    mix(bits.size());
    for (const std::uint64_t word : bits.words()) mix(word);
  }
  void mix(std::uint64_t value) noexcept {
    std::uint64_t z = state_ ^ (value + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state_ = z ^ (z >> 31);
  }
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x6c61646465722121ULL;
};

// ---------------------------------------------------------------------------
// Tracing

/// Span names, one per public call the traced runs wrap. The layer of a
/// span is the part of its name before the dot.
enum class SpanName : std::uint8_t {
  kBlock,          // engine.block      one block through the stage chain
  kSift,           // protocol.sift
  kEstimate,       // engine.estimate
  kReconcile,      // reconcile.stage
  kVerify,         // privacy.verify
  kAmplify,        // privacy.amplify
  kSimBlock,       // sim.block         one simulator batch
  kRound,          // service.round     one LinkOrchestrator::run()
  kRequest,        // api.request       one ETSI request, end to end
  kParse,          // api.parse         Json::parse + Request::from_json
  kService,        // api.service       Dispatcher::dispatch(Request)
  kSerialize,      // api.serialize     Response::to_json().dump()
  kDraw,           // kms.draw          LinkStoreSource::draw
  kRelayDraw,      // network.relay_draw  RelaySource::draw
  kDeposit,        // kms.deposit       KeyStore::deposit
  kCount_,
};

inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kCount_);

inline constexpr std::array<const char*, kSpanNameCount> kSpanNames = {
    "engine.block",  "protocol.sift", "engine.estimate",    "reconcile.stage",
    "privacy.verify", "privacy.amplify", "sim.block",       "service.round",
    "api.request",   "api.parse",     "api.service",        "api.serialize",
    "kms.draw",      "network.relay_draw", "kms.deposit",
};

/// Spans of one thread, kept in memory. Not thread-safe: every thread that
/// records owns one. Per-name totals and self time (duration minus the
/// child spans it contains) cover every span; the span records themselves
/// are kept for the first `keep` spans only, so a million-request run
/// writes a bounded file.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Record {
    std::uint32_t seq = 0;
    std::int32_t parent = -1;  ///< seq of the enclosing span, -1 at top
    SpanName name = SpanName::kBlock;
    std::uint64_t op = 0;      ///< block or request id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit SpanLog(std::size_t keep = 5000) : keep_(keep) {}

  void begin(SpanName name, std::uint64_t op) {
    open_.push_back({next_seq_++, name, op, now_ns(), 0});
  }

  /// Closes the innermost open span.
  void end() {
    const std::int64_t end = now_ns();
    const Open span = open_.back();
    open_.pop_back();
    const std::int64_t duration = end - span.start_ns;
    Totals& totals = totals_[static_cast<std::size_t>(span.name)];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - span.child_ns;
    std::int32_t parent = -1;
    if (!open_.empty()) {
      open_.back().child_ns += duration;
      parent = static_cast<std::int32_t>(open_.back().seq);
    }
    if (span.seq < keep_) {
      kept_.push_back({span.seq, parent, span.name, span.op, span.start_ns,
                       end});
    } else {
      ++dropped_;
    }
  }

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  /// Mean span duration in ns (0 without spans).
  double mean_ns(SpanName name) const {
    const Totals& t = totals(name);
    return t.count ? static_cast<double>(t.total_ns) /
                         static_cast<double>(t.count)
                   : 0.0;
  }
  const std::vector<Record>& kept() const noexcept { return kept_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Adds another thread's totals (records stay per log).
  void merge_totals(const SpanLog& other) {
    for (std::size_t i = 0; i < kSpanNameCount; ++i) {
      totals_[i].count += other.totals_[i].count;
      totals_[i].total_ns += other.totals_[i].total_ns;
      totals_[i].self_ns += other.totals_[i].self_ns;
    }
  }

 private:
  struct Open {
    std::uint32_t seq;
    SpanName name;
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::size_t keep_;
  std::uint32_t next_seq_ = 0;
  std::vector<Open> open_;
  std::array<Totals, kSpanNameCount> totals_{};
  std::vector<Record> kept_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, std::uint64_t op) : log_(log) {
    if (log_) log_->begin(name, op);
  }
  ~ScopedSpan() {
    if (log_) log_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Writes every log's kept spans to `path` as JSON ({name, start_ns,
/// end_ns, parent, id, thread}; parent indexes the spans array) and prints
/// the per-layer self time. Returns false when the file cannot be written.
bool write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<const SpanLog*>& logs);

}  // namespace ladder
