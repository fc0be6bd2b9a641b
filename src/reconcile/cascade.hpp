// Cascade error reconciliation (Brassard-Salvail), Bob side.
//
// Full protocol: multiple passes with doubling block sizes over seeded
// shuffles, BINARY bisection of odd-parity blocks, and the eponymous
// cascading re-searches of earlier passes whenever a correction flips their
// block parities. Bisections of all odd blocks of a pass run
// level-synchronously so a batch of parity queries costs one round-trip -
// the batching that makes Cascade deployable over real links and that the
// round-count benches measure.
//
// Bob keeps one packed copy of his key per started pass, gathered through
// that pass's permutation when the pass begins and flipped at the permuted
// position of every correction, so each of his range parities is a word
// scan (BitVec::parity_range) rather than a per-bit walk through the
// permutation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "reconcile/parity_oracle.hpp"

namespace qkdpp::reconcile {

/// Per-deployment Cascade knobs. What changes per block - the QBER hint
/// that sizes the first pass and the seed both sides derive the pass
/// permutations from - is an argument of cascade_reconcile instead.
struct CascadeConfig {
  std::uint32_t passes = 4;
  /// Upper clamp for the first-pass block size (protects against a ~zero
  /// QBER hint).
  std::uint32_t initial_block_cap = 1u << 14;
  /// Safety valve: a desynchronized peer (wrong permutation seed) makes the
  /// cascade chase phantom errors forever; stop after this many oracle
  /// round-trips and let verification fail the block.
  std::uint64_t max_rounds = 100000;
};

struct CascadeResult {
  std::size_t corrected_bits = 0;  ///< number of bit flips applied
  std::uint64_t leaked_bits = 0;   ///< parity bits received from Alice
  std::uint64_t rounds = 0;        ///< oracle batches (protocol round-trips)
  /// False when the round budget ran out with odd-parity blocks still
  /// unresolved: the keys provably still differ, and the caller must route
  /// the block into its verification-failure path instead of treating the
  /// output as reconciled.
  bool converged = true;

  /// Reconciliation efficiency f = leak / (n h2(q)); 1.0 is the Shannon
  /// limit, production Cascade sits around 1.05-1.2.
  double efficiency(std::size_t n, double qber) const;
};

/// First-pass block size rule of thumb (Brassard-Salvail).
std::uint32_t cascade_block_size(double qber, std::uint32_t cap);

/// Run Cascade, correcting `bob_key` in place toward Alice's key behind the
/// oracle. `qber_hint` sizes the first pass, k1 = ceil(0.73 / qber_hint)
/// (clamped). `permutations` must hold at least config.passes permutations
/// of [0, bob_key.size()), the ones the oracle answers for. The oracle's
/// pass count must be >= config.passes.
CascadeResult cascade_reconcile(
    BitVec& bob_key, ParityOracle& oracle, double qber_hint,
    const CascadeConfig& config,
    std::span<const std::vector<std::uint32_t>> permutations);

/// As above, with the permutations derived from `seed`.
CascadeResult cascade_reconcile(BitVec& bob_key, ParityOracle& oracle,
                                double qber_hint, std::uint64_t seed,
                                const CascadeConfig& config);

}  // namespace qkdpp::reconcile
