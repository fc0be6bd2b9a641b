// Adapter from the link simulator's batch record to the engine's
// BlockInput. Header-only so the engine core stays independent of sim/;
// include this only where simulated blocks feed the engine or the session
// (the orchestrator, examples, tests).
#pragma once

#include <cstdint>
#include <utility>

#include "engine/block.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::engine {

/// Takes the record by value and moves its logs into the input: a caller
/// that moves its record in makes no per-pulse copy, and one that passes an
/// lvalue keeps it.
inline BlockInput make_block_input(sim::DetectionRecord record,
                                   std::uint64_t block_id) {
  BlockInput input;
  input.log = {std::move(record.alice_bits), std::move(record.alice_bases),
               std::move(record.alice_signal)};
  input.report.block_id = block_id;
  input.report.n_pulses = record.n_pulses;
  input.report.detected_idx = std::move(record.detected_idx);
  input.report.bob_bases = std::move(record.bob_bases);
  input.bob_bits = std::move(record.bob_bits);
  return input;
}

}  // namespace qkdpp::engine
