#include "reconcile/cascade.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/entropy.hpp"
#include "common/error.hpp"

namespace qkdpp::reconcile {

double CascadeResult::efficiency(std::size_t n, double qber) const {
  const double ideal = static_cast<double>(n) * binary_entropy(qber);
  return ideal > 0 ? static_cast<double>(leaked_bits) / ideal : 0.0;
}

std::uint32_t cascade_block_size(double qber, std::uint32_t cap) {
  if (qber <= 0) return cap;
  const double k = std::ceil(0.73 / qber);
  return static_cast<std::uint32_t>(
      std::clamp(k, 2.0, static_cast<double>(cap)));
}

namespace {

/// The inverse permutations (4 bytes per key bit and pass), sized by the
/// largest run on this thread and reused across runs: an engine reconciles
/// block after block on one thread, and ~1 MB freed and reallocated every
/// block can go back to the OS (glibc trims a free heap top above its
/// threshold) and be page-faulted in again.
std::vector<std::vector<std::uint32_t>>& tls_inverse_permutations() {
  thread_local std::vector<std::vector<std::uint32_t>> inverse;
  return inverse;
}

/// Bob-side working state for one Cascade run.
class CascadeEngine {
 public:
  CascadeEngine(BitVec& key, ParityOracle& oracle, double qber_hint,
                const CascadeConfig& config,
                std::span<const std::vector<std::uint32_t>> permutations)
      : key_(key),
        oracle_(oracle),
        config_(config),
        perm_(permutations),
        n_(key.size()),
        inv_(tls_inverse_permutations()) {
    QKDPP_REQUIRE(n_ > 0, "cascade on empty key");
    QKDPP_REQUIRE(perm_.size() >= config.passes,
                  "fewer permutations than cascade passes");
    const std::uint32_t cap = std::min<std::uint32_t>(
        config.initial_block_cap, static_cast<std::uint32_t>(n_));
    // Cap later passes at n/2: a single whole-key block can never split a
    // residual error pair, so every pass must keep at least two blocks.
    const auto half = static_cast<std::uint32_t>(std::max<std::size_t>(n_ / 2, 1));
    block_size_.resize(config.passes);
    block_size_[0] =
        std::min(cascade_block_size(qber_hint, cap), std::max(half, 2u));
    for (std::uint32_t p = 1; p < config.passes; ++p) {
      block_size_[p] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          std::uint64_t{block_size_[p - 1]} * 2, half));
    }
    permuted_.resize(config.passes);
    inv_.resize(config.passes);
    odd_.resize(config.passes);
  }

  CascadeResult run() {
    for (std::uint32_t pass = 0; pass < config_.passes; ++pass) {
      begin_pass(pass);
      resolve_all(pass);
      // Round budget exhausted: later passes could only burn more budget on
      // a key that already failed, so stop leaking parities now.
      if (!result_.converged) break;
    }
    result_.corrected_bits = corrected_;
    return result_;
  }

 private:
  std::uint32_t blocks_in_pass(std::uint32_t pass) const {
    return static_cast<std::uint32_t>(
        (n_ + block_size_[pass] - 1) / block_size_[pass]);
  }

  ParityRange block_range(std::uint32_t pass, std::uint32_t block) const {
    const std::uint64_t begin = std::uint64_t{block} * block_size_[pass];
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + block_size_[pass], n_);
    return {static_cast<std::uint32_t>(begin), static_cast<std::uint32_t>(end)};
  }

  /// Bob's parity over a permuted-domain range of the live key; pass 0,
  /// the identity, reads the key itself.
  bool local_parity(std::uint32_t pass, ParityRange range) const {
    const BitVec& permuted = pass == 0 ? key_ : permuted_[pass];
    return permuted.parity_range(range.begin, range.end);
  }

  BitVec query(std::uint32_t pass, std::span<const ParityRange> ranges) {
    ++result_.rounds;
    result_.leaked_bits += ranges.size();
    return oracle_.parities(pass, ranges);
  }

  /// Where pass `pass` puts original index `original`, and which original
  /// index sits at its permuted position `j`. Pass 0 is the identity.
  std::uint32_t permuted_index(std::uint32_t pass,
                               std::uint32_t original) const {
    return pass == 0 ? original : inv_[pass][original];
  }
  std::uint32_t original_index(std::uint32_t pass, std::uint32_t j) const {
    return pass == 0 ? j : perm_[pass][j];
  }

  void begin_pass(std::uint32_t pass) {
    const auto& perm = perm_[pass];
    if (pass == 0) {
      QKDPP_REQUIRE(perm.empty(),
                    "pass 0 is the identity and takes no permutation");
    } else {
      QKDPP_REQUIRE(perm.size() == n_,
                    "permutation does not match key length");
      permuted_[pass] = key_.gather(perm);
      inv_[pass].resize(n_);
      for (std::uint32_t j = 0; j < n_; ++j) inv_[pass][perm[j]] = j;
    }

    const std::uint32_t blocks = blocks_in_pass(pass);
    std::vector<ParityRange> ranges;
    ranges.reserve(blocks);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      ranges.push_back(block_range(pass, b));
    }
    const BitVec alice = query(pass, ranges);
    odd_[pass].assign(blocks, 0);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      odd_[pass][b] =
          alice.get(b) != local_parity(pass, ranges[b]) ? 1 : 0;
    }
  }

  /// A correction at original index flips that bit in the key and in every
  /// later started pass's permuted copy, and the parity-diff flag of its
  /// block in every started pass.
  void apply_correction(std::uint32_t original, std::uint32_t up_to_pass) {
    key_.flip(original);
    ++corrected_;
    for (std::uint32_t p = 0; p <= up_to_pass; ++p) {
      const std::uint32_t j = permuted_index(p, original);
      if (p != 0) permuted_[p].flip(j);
      odd_[p][j / block_size_[p]] ^= 1;
    }
  }

  /// Drain odd blocks across all initialized passes. Each iteration batches
  /// every odd block of one pass and bisects them level-synchronously.
  void resolve_all(std::uint32_t up_to_pass) {
    for (;;) {
      std::uint32_t pass = up_to_pass + 1;
      std::size_t most = 0;
      for (std::uint32_t p = 0; p <= up_to_pass; ++p) {
        const auto count = static_cast<std::size_t>(
            std::count(odd_[p].begin(), odd_[p].end(), 1));
        if (count > most) {
          most = count;
          pass = p;
        }
      }
      if (most == 0) return;
      if (result_.rounds >= config_.max_rounds) {
        // Desync safety valve tripped with odd blocks still outstanding:
        // the keys still differ and the caller must be able to tell.
        result_.converged = false;
        return;
      }
      bisect_batch(pass, up_to_pass);
    }
  }

  /// Level-synchronous BINARY over all odd blocks of `pass`: one oracle
  /// batch per bisection level, one correction per block at the end.
  void bisect_batch(std::uint32_t pass, std::uint32_t up_to_pass) {
    std::vector<ParityRange> active;
    for (std::uint32_t b = 0; b < blocks_in_pass(pass); ++b) {
      if (odd_[pass][b]) active.push_back(block_range(pass, b));
    }

    while (!active.empty()) {
      // Finished searches (single position) get corrected and retired.
      std::vector<ParityRange> still_active;
      for (const auto range : active) {
        if (range.end - range.begin == 1) {
          apply_correction(original_index(pass, range.begin), up_to_pass);
        } else {
          still_active.push_back(range);
        }
      }
      active.swap(still_active);
      if (active.empty()) break;

      // Query left halves in one batch; descend into the half that still
      // disagrees.
      std::vector<ParityRange> lefts;
      lefts.reserve(active.size());
      for (const auto range : active) {
        const std::uint32_t mid = range.begin + (range.end - range.begin) / 2;
        lefts.push_back({range.begin, mid});
      }
      const BitVec alice = query(pass, lefts);
      for (std::size_t i = 0; i < active.size(); ++i) {
        const bool mismatch_left =
            alice.get(i) != local_parity(pass, lefts[i]);
        if (mismatch_left) {
          active[i].end = lefts[i].end;
        } else {
          active[i].begin = lefts[i].end;
        }
      }
    }
  }

  BitVec& key_;
  ParityOracle& oracle_;
  const CascadeConfig& config_;
  std::span<const std::vector<std::uint32_t>> perm_;
  std::size_t n_;
  std::vector<std::uint32_t> block_size_;
  /// Per started pass from 1 on: the key as permuted for it, kept in step
  /// with key_.
  std::vector<BitVec> permuted_;
  /// Entries of passes not yet started hold a previous run's data and are
  /// never read; pass 0's is never built.
  std::vector<std::vector<std::uint32_t>>& inv_;
  std::vector<std::vector<std::uint8_t>> odd_;
  CascadeResult result_;
  std::size_t corrected_ = 0;
};

}  // namespace

CascadeResult cascade_reconcile(
    BitVec& bob_key, ParityOracle& oracle, double qber_hint,
    const CascadeConfig& config,
    std::span<const std::vector<std::uint32_t>> permutations) {
  QKDPP_REQUIRE(config.passes >= 1, "cascade needs at least one pass");
  CascadeEngine engine(bob_key, oracle, qber_hint, config, permutations);
  return engine.run();
}

CascadeResult cascade_reconcile(BitVec& bob_key, ParityOracle& oracle,
                                double qber_hint, std::uint64_t seed,
                                const CascadeConfig& config) {
  return cascade_reconcile(
      bob_key, oracle, qber_hint, config,
      cascade_permutations(bob_key.size(), seed, config.passes));
}

}  // namespace qkdpp::reconcile
