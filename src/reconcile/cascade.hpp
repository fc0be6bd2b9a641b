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

struct CascadeConfig {
  std::uint32_t passes = 4;
  /// Drives the first-pass block size k1 = ceil(0.73 / qber) (clamped).
  double qber_hint = 0.02;
  /// Both sides derive pass permutations from this seed.
  std::uint64_t seed = 0;
  /// Upper clamp for k1 (protects against a ~zero QBER hint).
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
/// oracle. `permutations` must hold at least config.passes permutations of
/// [0, bob_key.size()), the ones the oracle answers for (config.seed is not
/// read). The oracle's pass count must be >= config.passes.
CascadeResult cascade_reconcile(
    BitVec& bob_key, ParityOracle& oracle, const CascadeConfig& config,
    std::span<const std::vector<std::uint32_t>> permutations);

/// As above, with the permutations derived from config.seed.
CascadeResult cascade_reconcile(BitVec& bob_key, ParityOracle& oracle,
                                const CascadeConfig& config);

}  // namespace qkdpp::reconcile
