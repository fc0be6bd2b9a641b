// Instruction-set bodies of BitVec::gather.
//
// Internal to the common layer, not public API. BitVec::gather runs the
// widest body the CPU executes, picked once at startup; no runtime caller
// selects one. The tests call each body the host can run, so the portable
// loop stays pinned on AVX2 machines too.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.hpp"

namespace qkdpp::detail {

enum class GatherIsa {
  kPortable,  ///< one scalar load per position
  kAvx2,      ///< x86-64 with AVX2: eight positions per vpgatherdd
};

/// True when this build contains `isa` and the CPU can execute it.
bool gather_isa_available(GatherIsa isa) noexcept;

/// source.gather(positions) on the given body. Requires
/// gather_isa_available(isa).
BitVec gather_on(GatherIsa isa, const BitVec& source,
                 std::span<const std::uint32_t> positions);

}  // namespace qkdpp::detail
