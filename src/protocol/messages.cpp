#include "protocol/messages.hpp"

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace qkdpp::protocol {

namespace {

enum : std::uint8_t {
  kTagDetectionReport = 1,
  kTagSiftResult,
  kTagPeReveal,
  kTagPeReport,
  kTagPeVerdict,
  kTagReconcileStart,
  kTagParityRequest,
  kTagParityResponse,
  kTagReconcileDone,
  kTagBlindRequest,
  kTagBlindResponse,
  kTagVerifyRequest,
  kTagVerifyResponse,
  kTagPaParams,
  kTagKeyConfirm,
  kTagAbort,
};

struct TypeOf {
  std::uint8_t operator()(const DetectionReport&) const { return kTagDetectionReport; }
  std::uint8_t operator()(const SiftResult&) const { return kTagSiftResult; }
  std::uint8_t operator()(const PeReveal&) const { return kTagPeReveal; }
  std::uint8_t operator()(const PeReport&) const { return kTagPeReport; }
  std::uint8_t operator()(const PeVerdict&) const { return kTagPeVerdict; }
  std::uint8_t operator()(const ReconcileStart&) const { return kTagReconcileStart; }
  std::uint8_t operator()(const ParityRequest&) const { return kTagParityRequest; }
  std::uint8_t operator()(const ParityResponse&) const { return kTagParityResponse; }
  std::uint8_t operator()(const ReconcileDone&) const { return kTagReconcileDone; }
  std::uint8_t operator()(const BlindRequest&) const { return kTagBlindRequest; }
  std::uint8_t operator()(const BlindResponse&) const { return kTagBlindResponse; }
  std::uint8_t operator()(const VerifyRequest&) const { return kTagVerifyRequest; }
  std::uint8_t operator()(const VerifyResponse&) const { return kTagVerifyResponse; }
  std::uint8_t operator()(const PaParams&) const { return kTagPaParams; }
  std::uint8_t operator()(const KeyConfirm&) const { return kTagKeyConfirm; }
  std::uint8_t operator()(const Abort&) const { return kTagAbort; }
};

struct NameOf {
  const char* operator()(const DetectionReport&) const { return "DetectionReport"; }
  const char* operator()(const SiftResult&) const { return "SiftResult"; }
  const char* operator()(const PeReveal&) const { return "PeReveal"; }
  const char* operator()(const PeReport&) const { return "PeReport"; }
  const char* operator()(const PeVerdict&) const { return "PeVerdict"; }
  const char* operator()(const ReconcileStart&) const { return "ReconcileStart"; }
  const char* operator()(const ParityRequest&) const { return "ParityRequest"; }
  const char* operator()(const ParityResponse&) const { return "ParityResponse"; }
  const char* operator()(const ReconcileDone&) const { return "ReconcileDone"; }
  const char* operator()(const BlindRequest&) const { return "BlindRequest"; }
  const char* operator()(const BlindResponse&) const { return "BlindResponse"; }
  const char* operator()(const VerifyRequest&) const { return "VerifyRequest"; }
  const char* operator()(const VerifyResponse&) const { return "VerifyResponse"; }
  const char* operator()(const PaParams&) const { return "PaParams"; }
  const char* operator()(const KeyConfirm&) const { return "KeyConfirm"; }
  const char* operator()(const Abort&) const { return "Abort"; }
};

struct Encoder {
  ByteWriter& w;

  void operator()(const DetectionReport& m) {
    w.put_u64(m.block_id);
    w.put_u64(m.n_pulses);
    w.put_u32_vec(m.detected_idx);
    w.put_bitvec(m.bob_bases);
  }
  void operator()(const SiftResult& m) {
    w.put_u64(m.block_id);
    w.put_bitvec(m.keep_mask);
    w.put_bitvec(m.signal_mask);
  }
  void operator()(const PeReveal& m) {
    w.put_u64(m.block_id);
    w.put_u32_vec(m.positions);
    w.put_bitvec(m.alice_bits);
  }
  void operator()(const PeReport& m) {
    w.put_u64(m.block_id);
    w.put_bitvec(m.bob_bits);
  }
  void operator()(const PeVerdict& m) {
    w.put_u64(m.block_id);
    w.put_u8(m.proceed ? 1 : 0);
    w.put_f64(m.qber_estimate);
    w.put_f64(m.qber_upper);
  }
  void operator()(const ReconcileStart& m) {
    w.put_u64(m.block_id);
    w.put_u8(static_cast<std::uint8_t>(m.method));
    w.put_u64(m.perm_seed);
    w.put_u32(m.code_id);
    w.put_u32(m.n_punctured);
    w.put_u32(m.n_shortened);
    w.put_f64(m.qber_hint);
    w.put_bitvec(m.syndrome);
  }
  void operator()(const ParityRequest& m) {
    w.put_u64(m.block_id);
    w.put_u32(m.pass);
    w.put_u32_vec(m.range_begins);
    w.put_u32_vec(m.range_ends);
  }
  void operator()(const ParityResponse& m) {
    w.put_u64(m.block_id);
    w.put_u32(m.pass);
    w.put_bitvec(m.parities);
  }
  void operator()(const ReconcileDone& m) {
    w.put_u64(m.block_id);
    w.put_bitvec(m.converged);
  }
  void operator()(const BlindRequest& m) {
    w.put_u64(m.block_id);
    w.put_u32(m.frame);
    w.put_u32(m.round);
  }
  void operator()(const BlindResponse& m) {
    w.put_u64(m.block_id);
    w.put_u32(m.frame);
    w.put_u32(m.round);
    w.put_u32_vec(m.positions);
    w.put_bitvec(m.values);
  }
  void operator()(const VerifyRequest& m) {
    w.put_u64(m.block_id);
    w.put_u64(m.seed);
    w.put_u64(m.tag_hi);
    w.put_u64(m.tag_lo);
  }
  void operator()(const VerifyResponse& m) {
    w.put_u64(m.block_id);
    w.put_u8(m.match ? 1 : 0);
  }
  void operator()(const PaParams& m) {
    w.put_u64(m.block_id);
    w.put_u64(m.seed);
    w.put_u64(m.out_len);
  }
  void operator()(const KeyConfirm& m) {
    w.put_u64(m.block_id);
    w.put_u64(m.key_id);
    w.put_u32(m.crc);
  }
  void operator()(const Abort& m) {
    w.put_u64(m.block_id);
    w.put_u8(m.reason);
    w.put_string(m.detail);
  }
};

}  // namespace

std::uint8_t message_type(const Message& m) noexcept {
  return std::visit(TypeOf{}, m);
}

const char* message_name(const Message& m) noexcept {
  return std::visit(NameOf{}, m);
}

std::vector<std::uint8_t> encode_message(const Message& m) {
  ByteWriter w;
  w.put_u8(message_type(m));
  std::visit(Encoder{w}, m);
  return w.take();
}

Message decode_message(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const std::uint8_t tag = r.get_u8();
  Message m;
  switch (tag) {
    case kTagDetectionReport: {
      DetectionReport v;
      v.block_id = r.get_u64();
      v.n_pulses = r.get_u64();
      v.detected_idx = r.get_u32_vec();
      v.bob_bases = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagSiftResult: {
      SiftResult v;
      v.block_id = r.get_u64();
      v.keep_mask = r.get_bitvec();
      v.signal_mask = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagPeReveal: {
      PeReveal v;
      v.block_id = r.get_u64();
      v.positions = r.get_u32_vec();
      v.alice_bits = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagPeReport: {
      PeReport v;
      v.block_id = r.get_u64();
      v.bob_bits = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagPeVerdict: {
      PeVerdict v;
      v.block_id = r.get_u64();
      v.proceed = r.get_u8() != 0;
      v.qber_estimate = r.get_f64();
      v.qber_upper = r.get_f64();
      m = v;
      break;
    }
    case kTagReconcileStart: {
      ReconcileStart v;
      v.block_id = r.get_u64();
      v.method = static_cast<ReconcileMethod>(r.get_u8());
      v.perm_seed = r.get_u64();
      v.code_id = r.get_u32();
      v.n_punctured = r.get_u32();
      v.n_shortened = r.get_u32();
      v.qber_hint = r.get_f64();
      v.syndrome = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagParityRequest: {
      ParityRequest v;
      v.block_id = r.get_u64();
      v.pass = r.get_u32();
      v.range_begins = r.get_u32_vec();
      v.range_ends = r.get_u32_vec();
      m = std::move(v);
      break;
    }
    case kTagParityResponse: {
      ParityResponse v;
      v.block_id = r.get_u64();
      v.pass = r.get_u32();
      v.parities = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagReconcileDone: {
      ReconcileDone v;
      v.block_id = r.get_u64();
      v.converged = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagBlindRequest: {
      BlindRequest v;
      v.block_id = r.get_u64();
      v.frame = r.get_u32();
      v.round = r.get_u32();
      m = v;
      break;
    }
    case kTagBlindResponse: {
      BlindResponse v;
      v.block_id = r.get_u64();
      v.frame = r.get_u32();
      v.round = r.get_u32();
      v.positions = r.get_u32_vec();
      v.values = r.get_bitvec();
      m = std::move(v);
      break;
    }
    case kTagVerifyRequest: {
      VerifyRequest v;
      v.block_id = r.get_u64();
      v.seed = r.get_u64();
      v.tag_hi = r.get_u64();
      v.tag_lo = r.get_u64();
      m = v;
      break;
    }
    case kTagVerifyResponse: {
      VerifyResponse v;
      v.block_id = r.get_u64();
      v.match = r.get_u8() != 0;
      m = v;
      break;
    }
    case kTagPaParams: {
      PaParams v;
      v.block_id = r.get_u64();
      v.seed = r.get_u64();
      v.out_len = r.get_u64();
      m = v;
      break;
    }
    case kTagKeyConfirm: {
      KeyConfirm v;
      v.block_id = r.get_u64();
      v.key_id = r.get_u64();
      v.crc = r.get_u32();
      m = v;
      break;
    }
    case kTagAbort: {
      Abort v;
      v.block_id = r.get_u64();
      v.reason = r.get_u8();
      v.detail = r.get_string();
      m = std::move(v);
      break;
    }
    default:
      throw_error(ErrorCode::kSerialization,
                  "unknown message tag " + std::to_string(tag));
  }
  r.expect_exhausted();
  return m;
}

}  // namespace qkdpp::protocol
