// Parity oracle: Bob-side Cascade's window onto Alice.
//
// Cascade is an interactive protocol; everything Bob learns from Alice is
// parities of ranges of her (permuted) key. Abstracting that behind an
// oracle lets the same Cascade engine run in-process (benches, tests) and
// over the authenticated classical channel (sessions) - and makes leakage
// accounting exact: every parity bit crossing the oracle is one leaked bit.
//
// Both sides work on whole 64-bit words. Alice keeps, per pass, the prefix
// parities of her permuted key: one BitVec::gather through the pass
// permutation (none for pass 0, the identity), then an in-register prefix
// XOR per word (x ^= x << 1, 2, 4, ..., 32) with the running parity carried
// into the next word, so any range parity is two bit reads. In-process runs
// (cascade_reconcile_local) derive each pass permutation once and hand the
// same vectors to both sides; the two session peers each derive their own
// from the seed on the wire.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"

namespace qkdpp::reconcile {

/// Half-open range [begin, end) in the pass-permuted domain.
struct ParityRange {
  std::uint32_t begin;
  std::uint32_t end;
};

/// One permutation per pass: entry j of pass p is the original key index
/// that lands at permuted position j. Pass 0 is the identity by
/// construction: its entry is empty, and both sides read pass 0 straight
/// from the key instead of gathering it.
using CascadePermutations = std::vector<std::vector<std::uint32_t>>;

class ParityOracle {
 public:
  virtual ~ParityOracle() = default;

  /// One batch = one protocol round-trip. Returns one parity bit per range,
  /// computed over Alice's key as permuted for `pass`.
  virtual BitVec parities(std::uint32_t pass,
                          std::span<const ParityRange> ranges) = 0;
};

/// Alice-side parity computation shared by the local oracle and the remote
/// session responder.
class CascadeResponder {
 public:
  /// `permutations` holds one entry per pass (at least one pass), laid out
  /// as fill_cascade_permutations writes them: empty for pass 0, a
  /// permutation of [0, alice_key.size()) for every later pass.
  CascadeResponder(const BitVec& alice_key,
                   std::span<const std::vector<std::uint32_t>> permutations);

  /// Requires pass < passes() and begin <= end <= key_size() for every
  /// range; callers serving untrusted requests check both first.
  BitVec parities(std::uint32_t pass,
                  std::span<const ParityRange> ranges) const;

  std::size_t key_size() const noexcept { return n_; }
  std::uint32_t passes() const noexcept {
    return static_cast<std::uint32_t>(prefix_.size());
  }

 private:
  std::size_t n_;
  // Per pass: prefix parity bits (n+1 of them) of the permuted key, so any
  // range parity is two bit-reads.
  std::vector<BitVec> prefix_;
};

/// The pass-`pass` permutation for key length n and the session seed,
/// written out: the identity for pass 0, as in standard Cascade, and the
/// stored entry of cascade_permutations for every later pass. Tests check
/// the parities both sides compute against it.
std::vector<std::uint32_t> cascade_permutation(std::size_t n,
                                               std::uint64_t seed,
                                               std::uint32_t pass);

/// The permutations of passes [0, passes) for key length n, pass 0 left
/// empty (see CascadePermutations). Both sides must call this with
/// identical arguments.
CascadePermutations cascade_permutations(std::size_t n, std::uint64_t seed,
                                         std::uint32_t passes);

/// cascade_permutations into `out`, reusing the capacity of its vectors: a
/// caller that reconciles one key after another keeps `out` between them.
void fill_cascade_permutations(std::size_t n, std::uint64_t seed,
                               std::uint32_t passes, CascadePermutations& out);

/// In-process oracle with exact accounting (used by tests and benches).
class LocalParityOracle final : public ParityOracle {
 public:
  LocalParityOracle(const BitVec& alice_key,
                    std::span<const std::vector<std::uint32_t>> permutations)
      : responder_(alice_key, permutations) {}
  LocalParityOracle(const BitVec& alice_key, std::uint64_t seed,
                    std::uint32_t passes)
      : LocalParityOracle(
            alice_key, cascade_permutations(alice_key.size(), seed, passes)) {}

  BitVec parities(std::uint32_t pass,
                  std::span<const ParityRange> ranges) override {
    ++rounds_;
    bits_leaked_ += ranges.size();
    return responder_.parities(pass, ranges);
  }

  std::uint64_t rounds() const noexcept { return rounds_; }
  std::uint64_t bits_leaked() const noexcept { return bits_leaked_; }

 private:
  CascadeResponder responder_;
  std::uint64_t rounds_ = 0;
  std::uint64_t bits_leaked_ = 0;
};

}  // namespace qkdpp::reconcile
