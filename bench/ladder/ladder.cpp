// Wall-clock ladder benchmark: one process runs one workload once.
//
//   ladder --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//          [--setup-only] [--smoke]
//
// Workloads: metro-ldpc, noisy-cascade, fleet, delivery (see README.md).
// The last stdout line is one JSON object: the correctness verdict, the
// attempted/failed operation counts, the end-to-end metrics (untraced
// run) or the per-layer metrics (--trace 1), and the host fingerprint.
// With --trace 1 the spans go to build-ladder/trace-<workload>-<seed>.json
// under the working directory.
// Exit status: 0 when every correctness gate passed, 1 when one failed,
// 2 on a usage error. bench/ladder/run.py is the usual entry point.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using namespace ladder;

constexpr const char* kTraceDir = "build-ladder";

int usage(const char* message) {
  std::fprintf(stderr,
               "ladder: %s\nusage: ladder --workload "
               "{metro-ldpc|noisy-cascade|fleet|delivery} [--seed N] "
               "[--seconds S] [--trace 0|1] [--setup-only] [--smoke]\n",
               message);
  return 2;
}

std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", \"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") {
      usage("wall-clock ladder benchmark");
      return 0;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return usage("missing value");
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view(argv[++i]) == "1";
    } else {
      return usage("unknown argument");
    }
  }
  if (options.seconds <= 0) return usage("--seconds must be positive");

  Result result;
  try {
    if (options.workload == "metro-ldpc" ||
        options.workload == "noisy-cascade") {
      result = run_block_workload(options);
    } else if (options.workload == "fleet") {
      result = run_fleet(options);
    } else if (options.workload == "delivery") {
      result = run_delivery(options);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ladder: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }
  result.e2e.set("setup_s", result.setup_s);

  std::string trace_file;
  if (options.trace) {
    std::error_code unwritable;  // reported by the write_trace gate below
    std::filesystem::create_directories(kTraceDir, unwritable);
    trace_file = std::string(kTraceDir) + "/trace-" + options.workload +
                 "-" + std::to_string(options.seed) + ".json";
    std::vector<const SpanLog*> logs;
    for (const auto& log : result.spans) logs.push_back(&log);
    result.gate(write_trace(trace_file, options.workload, options.seed, logs),
                "cannot write " + trace_file);
  }
  const bool correct = result.gate_failures.empty();
  for (const auto& failure : result.gate_failures) {
    std::fprintf(stderr, "ladder: GATE FAILED: %s\n", failure.c_str());
  }
  if (!options.setup_only) {
    std::printf("%s seed=%llu: %llu attempted, %llu failed, gates %s\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                correct ? "ok" : "FAILED");
    for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
    if (options.trace) {
      result.layers.print_table();
    } else {
      result.e2e.print_table();
    }
  }
  // One metric group per run: end-to-end untraced, per-layer traced.
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"smoke\": %s, "
      "\"correct\": %s, \"gate_failures\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"trace_file\": \"%s\", \"%s\": %s, \"host\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, options.smoke ? "true" : "false",
      correct ? "true" : "false",
      json_string_list(result.gate_failures).c_str(),
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), trace_file.c_str(),
      options.trace ? "per_layer" : "end_to_end",
      (options.trace ? result.layers.json() : result.e2e.json()).c_str(),
      host_fingerprint_json().c_str());
  return correct ? 0 : 1;
}
