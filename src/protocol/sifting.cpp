#include "protocol/sifting.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qkdpp::protocol {

AliceSiftOutcome sift_alice(const AliceTransmitLog& log,
                            const DetectionReport& report) {
  const std::size_t n_pulses = log.bits.size();
  if (log.bases.size() != n_pulses || log.pulse_class.size() != n_pulses) {
    throw_error(ErrorCode::kProtocol, "inconsistent transmit log");
  }
  const std::size_t n_detected = report.detected_idx.size();
  if (report.bob_bases.size() != n_detected) {
    throw_error(ErrorCode::kProtocol,
                "detection report bases/indices shape mismatch");
  }

  AliceSiftOutcome out;
  out.result.block_id = report.block_id;
  out.result.keep_mask = BitVec(n_detected);
  // Alice's bit and signal flag at every detection, one word per 64
  // detections; the keep mask then compresses both at once.
  BitVec detected_bits(n_detected);
  BitVec detected_signal(n_detected);
  const auto keep = out.result.keep_mask.mutable_words();
  const auto bits = detected_bits.mutable_words();
  const auto signal = detected_signal.mutable_words();
  const auto bob_bases = report.bob_bases.words();

  std::uint32_t previous = 0;
  for (std::size_t base = 0; base < n_detected; base += 64) {
    const std::size_t lim = std::min<std::size_t>(64, n_detected - base);
    std::uint64_t basis_word = 0;
    std::uint64_t bit_word = 0;
    std::uint64_t signal_word = 0;
    for (std::size_t k = 0; k < lim; ++k) {
      const std::uint32_t pulse = report.detected_idx[base + k];
      if (pulse >= n_pulses) {
        throw_error(ErrorCode::kProtocol, "detection index out of range");
      }
      if (base + k != 0 && pulse <= previous) {
        throw_error(ErrorCode::kProtocol, "detection indices not increasing");
      }
      previous = pulse;
      basis_word |= std::uint64_t{log.bases.get(pulse)} << k;
      bit_word |= std::uint64_t{log.bits.get(pulse)} << k;
      signal_word |= std::uint64_t{log.pulse_class[pulse] == 0} << k;
    }
    const std::uint64_t live =
        lim == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lim) - 1;
    const std::size_t w = base >> 6;
    keep[w] = ~(basis_word ^ bob_bases[w]) & live;
    bits[w] = bit_word;
    signal[w] = signal_word;
  }
  out.sifted_key = detected_bits.select(out.result.keep_mask);
  out.result.signal_mask = detected_signal.select(out.result.keep_mask);
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
