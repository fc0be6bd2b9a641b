#include "harness.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "common/clmul.hpp"

namespace ladder {

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::size_t host_threads() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online)
                    : std::max(1u, std::thread::hardware_concurrency());
}

std::string host_fingerprint_json() {
  const char* sha = std::getenv("LADDER_GIT_SHA");
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool avx512 = __builtin_cpu_supports("avx512f");
#else
  const bool avx2 = false;
  const bool avx512 = false;
#endif
  std::string out = "{\"nproc\": " + std::to_string(host_threads());
  out += ", \"cpu\": \"" + json_escape(cpu_model()) + "\"";
  out += std::string(", \"clmul_hw\": ") +
         (qkdpp::clmul_has_hardware() ? "true" : "false");
  out += std::string(", \"avx2\": ") + (avx2 ? "true" : "false");
  out += std::string(", \"avx512f\": ") + (avx512 ? "true" : "false");
  out += ", \"compiler\": \"" + json_escape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" LADDER_BUILD_TYPE "\"";
  out += ", \"git_sha\": \"" + json_escape(sha ? sha : "unknown") + "\"}";
  return out;
}

bool write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"clock\": \"steady_clock ns\", \"spans\": [";
  std::int64_t epoch = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const auto& record : log->kept()) {
      epoch = std::min(epoch, record.start_ns);
    }
  }
  std::uint64_t dropped = 0;
  std::size_t base = 0;
  bool first = true;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    // Records are stored at span close (children first); order them by
    // open sequence so a parent index always points backwards.
    std::vector<SpanLog::Record> records = logs[t]->kept();
    std::sort(records.begin(), records.end(),
              [](const auto& a, const auto& b) { return a.seq < b.seq; });
    std::map<std::uint32_t, std::size_t> index_of_seq;
    for (std::size_t i = 0; i < records.size(); ++i) {
      index_of_seq[records[i].seq] = base + i;
    }
    for (const auto& record : records) {
      const auto parent = record.parent < 0
                              ? -1
                              : static_cast<long long>(index_of_seq.at(
                                    static_cast<std::uint32_t>(record.parent)));
      out << (first ? "\n" : ",\n") << "{\"name\": \""
          << kSpanNames[static_cast<std::size_t>(record.name)]
          << "\", \"start_ns\": " << record.start_ns - epoch
          << ", \"end_ns\": " << record.end_ns - epoch
          << ", \"parent\": " << parent << ", \"id\": " << record.op
          << ", \"thread\": " << t << "}";
      first = false;
    }
    base += records.size();
    dropped += logs[t]->dropped();
  }
  out << "\n], \"dropped_spans\": " << dropped << "}\n";

  // Per-layer self time over every span (kept or not).
  SpanLog all;
  for (const SpanLog* log : logs) all.merge_totals(*log);
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> layers;
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    const auto& totals = all.totals(static_cast<SpanName>(i));
    if (totals.count == 0) continue;
    const std::string name = kSpanNames[i];
    auto& layer = layers[name.substr(0, name.find('.'))];
    layer.first += totals.count;
    layer.second += totals.self_ns;
  }
  std::printf("per-layer self time (%s):\n", path.c_str());
  for (const auto& [layer, totals] : layers) {
    std::printf("  %-10s %10llu spans %12.3f ms self\n", layer.c_str(),
                static_cast<unsigned long long>(totals.first),
                static_cast<double>(totals.second) * 1e-6);
  }
  return static_cast<bool>(out);
}

}  // namespace ladder
