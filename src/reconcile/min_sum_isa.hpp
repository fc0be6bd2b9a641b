// Instruction-set instantiations of the lane-vector min-sum kernel.
//
// Internal to the reconcile layer, not public API. decode_syndrome_batch
// runs the widest instantiation the CPU executes, picked once at startup;
// no runtime caller selects one. The tests call each instantiation the
// host can run, so the portable body stays pinned on AVX2 machines too.
#pragma once

#include <span>
#include <vector>

#include "reconcile/batch_decoder.hpp"

namespace qkdpp::reconcile::detail {

enum class MinSumIsa {
  kPortable,  ///< baseline target: SSE2 on x86-64, NEON on aarch64
  kAvx2,      ///< x86-64 with AVX2, through a function target attribute
};

/// True when this build contains `isa` and the CPU can execute it.
bool min_sum_isa_available(MinSumIsa isa) noexcept;

/// decode_syndrome_batch on the given instantiation. Requires
/// min_sum_isa_available(isa).
void decode_syndrome_batch_on(MinSumIsa isa, const LdpcCode& code,
                              std::span<const QuantDecodeJob> jobs,
                              const DecoderConfig& config,
                              std::vector<DecodeResult>& results);

}  // namespace qkdpp::reconcile::detail
