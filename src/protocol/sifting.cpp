#include "protocol/sifting.hpp"

#include <cstdint>
#include <span>

#include "common/error.hpp"

namespace qkdpp::protocol {

AliceSiftOutcome sift_alice(const AliceTransmitLog& log,
                            const DetectionReport& report) {
  const std::size_t n_pulses = log.bits.size();
  if (log.bases.size() != n_pulses || log.signal.size() != n_pulses) {
    throw_error(ErrorCode::kProtocol, "inconsistent transmit log");
  }
  const std::size_t n_detected = report.detected_idx.size();
  if (report.bob_bases.size() != n_detected) {
    throw_error(ErrorCode::kProtocol,
                "detection report bases/indices shape mismatch");
  }

  // The indices come off the wire: every one must name a pulse, in
  // strictly increasing order, so it is enough that they increase and the
  // last is in range. One branch-free pass checks that; only a bad report
  // walks them again to raise the first offence's error.
  const std::span<const std::uint32_t> idx = report.detected_idx;
  bool increasing = true;
  for (std::size_t d = 1; d < n_detected; ++d) {
    increasing &= idx[d] > idx[d - 1];
  }
  if (!increasing || (n_detected != 0 && idx.back() >= n_pulses)) {
    for (std::size_t d = 0; d < n_detected; ++d) {
      if (idx[d] >= n_pulses) {
        throw_error(ErrorCode::kProtocol, "detection index out of range");
      }
      if (d != 0 && idx[d] <= idx[d - 1]) {
        throw_error(ErrorCode::kProtocol, "detection indices not increasing");
      }
    }
  }

  // Alice's basis, bit and signal flag at every detection; the keep mask
  // (bases equal) then compresses the bits and flags at once.
  AliceSiftOutcome out;
  out.result.block_id = report.block_id;
  out.result.keep_mask = log.bases.gather(idx);
  const auto keep = out.result.keep_mask.mutable_words();
  const auto bob_bases = report.bob_bases.words();
  for (std::size_t w = 0; w < keep.size(); ++w) {
    keep[w] = ~(keep[w] ^ bob_bases[w]);
  }
  if (n_detected % 64 != 0) {
    keep.back() &= (std::uint64_t{1} << (n_detected % 64)) - 1;
  }
  out.sifted_key = log.bits.gather(idx).select(out.result.keep_mask);
  out.result.signal_mask =
      log.signal.gather(idx).select(out.result.keep_mask);
  return out;
}

BitVec sift_bob(const BitVec& bob_bits, const SiftResult& result) {
  if (bob_bits.size() != result.keep_mask.size()) {
    throw_error(ErrorCode::kProtocol, "keep mask does not match detections");
  }
  BitVec sifted = bob_bits.select(result.keep_mask);
  if (sifted.size() != result.signal_mask.size()) {
    throw_error(ErrorCode::kProtocol, "signal mask does not match kept bits");
  }
  return sifted;
}

}  // namespace qkdpp::protocol
