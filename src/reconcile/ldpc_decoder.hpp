// Belief-propagation decoding to a target syndrome: the shared types.
//
// QKD reconciliation decodes Alice's word x_A given Bob's noisy copy: the
// decoder receives per-position LLRs (sign = Bob's bit, magnitude =
// channel confidence; 0 for punctured, +/-inf-like for shortened/revealed)
// and Alice's syndrome s_A, and searches for x with H x = s_A. The decoder
// itself is the int8 layered min-sum kernel in batch_decoder.hpp.
#pragma once

#include "common/bitvec.hpp"
#include "reconcile/ldpc_code.hpp"

namespace qkdpp {
class BlockArena;
}

namespace qkdpp::reconcile {

struct DecoderConfig {
  unsigned max_iterations = 60;
  /// Optional scratch arena for decoder message/posterior buffers; null
  /// falls back to thread-local vectors.
  BlockArena* arena = nullptr;
};

struct DecodeResult {
  bool converged = false;
  unsigned iterations = 0;  ///< iterations actually executed
  BitVec word;              ///< hard decision (valid iff converged)
};

/// LLR magnitude for a BSC with crossover probability q.
float bsc_llr(double qber) noexcept;

/// Saturation magnitude used for "known" positions (shortened / revealed).
constexpr float kKnownLlr = 64.0f;

}  // namespace qkdpp::reconcile
