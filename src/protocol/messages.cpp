#include "protocol/messages.hpp"

#include <array>
#include <concepts>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace qkdpp::protocol {

namespace {

/// `T` is message type `M`, const (encoding) or not (decoding).
template <class T, class M>
concept Is = std::same_as<std::remove_const_t<T>, M>;

// Each message's fields in wire order, after the tag byte. This is the only
// place a layout is written: encode_message and decode_message both walk it.
auto fields(Is<DetectionReport> auto& m) {
  return std::tie(m.block_id, m.n_pulses, m.detected_idx, m.bob_bases);
}
auto fields(Is<SiftResult> auto& m) {
  return std::tie(m.block_id, m.keep_mask, m.signal_mask);
}
auto fields(Is<PeReveal> auto& m) {
  return std::tie(m.block_id, m.positions, m.alice_bits);
}
auto fields(Is<PeReport> auto& m) { return std::tie(m.block_id, m.bob_bits); }
auto fields(Is<PeVerdict> auto& m) {
  return std::tie(m.block_id, m.proceed, m.qber_estimate, m.qber_upper);
}
auto fields(Is<ReconcileStart> auto& m) {
  return std::tie(m.block_id, m.method, m.perm_seed, m.code_id, m.n_punctured,
                  m.n_shortened, m.qber_hint, m.syndrome);
}
auto fields(Is<ParityRequest> auto& m) {
  return std::tie(m.block_id, m.pass, m.range_begins, m.range_ends);
}
auto fields(Is<ParityResponse> auto& m) {
  return std::tie(m.block_id, m.pass, m.parities);
}
auto fields(Is<ReconcileDone> auto& m) {
  return std::tie(m.block_id, m.converged);
}
auto fields(Is<BlindRequest> auto& m) {
  return std::tie(m.block_id, m.frame, m.round);
}
auto fields(Is<BlindResponse> auto& m) {
  return std::tie(m.block_id, m.frame, m.round, m.positions, m.values);
}
auto fields(Is<VerifyRequest> auto& m) {
  return std::tie(m.block_id, m.seed, m.tag_hi, m.tag_lo);
}
auto fields(Is<VerifyResponse> auto& m) {
  return std::tie(m.block_id, m.match);
}
auto fields(Is<PaParams> auto& m) {
  return std::tie(m.block_id, m.seed, m.out_len);
}
auto fields(Is<KeyConfirm> auto& m) {
  return std::tie(m.block_id, m.key_id, m.crc);
}
auto fields(Is<Abort> auto& m) {
  return std::tie(m.block_id, m.reason, m.detail);
}

constexpr std::array<const char*, std::variant_size_v<Message>> kNames = {
    "DetectionReport", "SiftResult",    "PeReveal",       "PeReport",
    "PeVerdict",       "ReconcileStart", "ParityRequest", "ParityResponse",
    "ReconcileDone",   "BlindRequest",  "BlindResponse",  "VerifyRequest",
    "VerifyResponse",  "PaParams",      "KeyConfirm",     "Abort"};
static_assert(kNames.back() != nullptr, "every message needs a name");

// One field's bytes, by its type. bool and the method enum travel as one
// byte; vectors, bit vectors and strings carry a varint length.
void put_field(ByteWriter& w, bool v) { w.put_u8(v ? 1 : 0); }
void put_field(ByteWriter& w, std::uint8_t v) { w.put_u8(v); }
void put_field(ByteWriter& w, ReconcileMethod v) {
  w.put_u8(static_cast<std::uint8_t>(v));
}
void put_field(ByteWriter& w, std::uint32_t v) { w.put_u32(v); }
void put_field(ByteWriter& w, std::uint64_t v) { w.put_u64(v); }
void put_field(ByteWriter& w, double v) { w.put_f64(v); }
void put_field(ByteWriter& w, const std::vector<std::uint32_t>& v) {
  w.put_u32_vec(v);
}
void put_field(ByteWriter& w, const BitVec& v) { w.put_bitvec(v); }
void put_field(ByteWriter& w, const std::string& v) { w.put_string(v); }

void get_field(ByteReader& r, bool& v) { v = r.get_u8() != 0; }
void get_field(ByteReader& r, std::uint8_t& v) { v = r.get_u8(); }
void get_field(ByteReader& r, ReconcileMethod& v) {
  v = static_cast<ReconcileMethod>(r.get_u8());
}
void get_field(ByteReader& r, std::uint32_t& v) { v = r.get_u32(); }
void get_field(ByteReader& r, std::uint64_t& v) { v = r.get_u64(); }
void get_field(ByteReader& r, double& v) { v = r.get_f64(); }
void get_field(ByteReader& r, std::vector<std::uint32_t>& v) {
  v = r.get_u32_vec();
}
void get_field(ByteReader& r, BitVec& v) { v = r.get_bitvec(); }
void get_field(ByteReader& r, std::string& v) { v = r.get_string(); }

template <class M>
Message decode_as(ByteReader& r) {
  M m;
  std::apply([&r](auto&... field) { (get_field(r, field), ...); }, fields(m));
  return m;
}

/// decode_as for the alternative at each variant index.
template <std::size_t... I>
constexpr auto make_decoders(std::index_sequence<I...>) {
  return std::array<Message (*)(ByteReader&), sizeof...(I)>{
      &decode_as<std::variant_alternative_t<I, Message>>...};
}
constexpr auto kDecoders =
    make_decoders(std::make_index_sequence<std::variant_size_v<Message>>{});

}  // namespace

std::uint8_t message_type(const Message& m) noexcept {
  return static_cast<std::uint8_t>(m.index() + 1);
}

const char* message_name(const Message& m) noexcept {
  return kNames[m.index()];
}

std::vector<std::uint8_t> encode_message(const Message& m) {
  ByteWriter w;
  w.put_u8(message_type(m));
  std::visit(
      [&w](const auto& v) {
        std::apply([&w](const auto&... field) { (put_field(w, field), ...); },
                   fields(v));
      },
      m);
  return w.take();
}

Message decode_message(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  const std::uint8_t tag = r.get_u8();
  if (tag == 0 || tag > kDecoders.size()) {
    throw_error(ErrorCode::kSerialization,
                "unknown message tag " + std::to_string(tag));
  }
  Message m = kDecoders[tag - 1](r);
  r.expect_exhausted();
  return m;
}

}  // namespace qkdpp::protocol
