// Experiment F5 - privacy-amplification throughput vs input block length:
// direct word-sliced Toeplitz vs clmul carry-less convolution vs NTT
// convolution. Expected shape: clmul (Karatsuba over PCLMUL/windowed
// schoolbook) leads from ~2^6 bits up - >= 100x over the NTT at 10^5-bit
// blocks with hardware carry-less multiply; direct only wins on tiny or
// very sparse inputs. The 100000-bit point is the acceptance anchor
// recorded by scripts/run_benches.sh. google-benchmark binary.
#include <benchmark/benchmark.h>

#include "common/clmul.hpp"
#include "common/rng.hpp"
#include "privacy/toeplitz.hpp"

namespace {

using namespace qkdpp;

struct PaCase {
  BitVec input;
  BitVec seed;
  std::size_t out_len;
};

PaCase make_case(std::size_t n) {
  Xoshiro256 rng(n * 17 + 3);
  PaCase c;
  c.out_len = n / 2;  // typical compression at metro QBER
  c.input = rng.random_bits(n);
  c.seed = rng.random_bits(n + c.out_len - 1);
  return c;
}

void BM_ToeplitzDirect(benchmark::State& state) {
  const auto c = make_case(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        privacy::toeplitz_hash_direct(c.input, c.seed, c.out_len));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.input.size() / 8));
}

void BM_ToeplitzClmul(benchmark::State& state) {
  const auto c = make_case(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        privacy::toeplitz_hash_clmul(c.input, c.seed, c.out_len));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.input.size() / 8));
  state.counters["hw_clmul"] =
      benchmark::Counter(clmul_has_hardware() ? 1.0 : 0.0);
}

void BM_ToeplitzNtt(benchmark::State& state) {
  const auto c = make_case(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        privacy::toeplitz_hash_ntt(c.input, c.seed, c.out_len));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.input.size() / 8));
}

}  // namespace

// Max input is 2^21: with out_len = n/2 the convolution length 2.5n must
// stay under the NTT transform limit of 2^23. The explicit 100000-bit arg
// is the paper-sized PA block the acceptance criteria compare at.
BENCHMARK(BM_ToeplitzDirect)->RangeMultiplier(4)->Range(1 << 12, 1 << 20)
    ->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ToeplitzClmul)->RangeMultiplier(4)->Range(1 << 8, 1 << 21)
    ->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ToeplitzNtt)->RangeMultiplier(4)->Range(1 << 12, 1 << 21)
    ->Arg(100000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
