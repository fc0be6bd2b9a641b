#include "pipeline/session.hpp"

#include <algorithm>
#include <optional>

#include "common/crc.hpp"
#include "common/error.hpp"
#include "engine/primitives.hpp"
#include "privacy/pa_planner.hpp"
#include "privacy/verification.hpp"
#include "protocol/messages.hpp"
#include "protocol/param_estimation.hpp"

namespace qkdpp::pipeline {

namespace {

using protocol::Abort;
using protocol::BlindRequest;
using protocol::BlindResponse;
using protocol::ClassicalChannel;
using protocol::DetectionReport;
using protocol::KeyConfirm;
using protocol::Message;
using protocol::PaParams;
using protocol::ParityRequest;
using protocol::ParityResponse;
using protocol::PeReport;
using protocol::PeReveal;
using protocol::PeVerdict;
using protocol::ReconcileDone;
using protocol::ReconcileMethod;
using protocol::ReconcileStart;
using protocol::SiftResult;
using protocol::VerifyRequest;
using protocol::VerifyResponse;

/// Control-flow unwind for peer-initiated aborts (expected outcome, turned
/// into SessionResult at the top level - never escapes this file).
struct AbortSignal {
  std::string reason;
};

void send_msg(ClassicalChannel& channel, const Message& message) {
  channel.send(protocol::encode_message(message));
}

void send_abort(ClassicalChannel& channel, std::uint64_t block_id,
                const std::string& reason) {
  send_msg(channel, Abort{block_id, 0, reason});
}

template <typename T>
T expect_msg(ClassicalChannel& channel) {
  Message message = protocol::decode_message(channel.receive());
  if (auto* abort = std::get_if<Abort>(&message)) {
    throw AbortSignal{abort->detail};
  }
  auto* typed = std::get_if<T>(&message);
  if (typed == nullptr) {
    throw_error(ErrorCode::kProtocol,
                std::string("unexpected message ") +
                    protocol::message_name(message));
  }
  return std::move(*typed);
}

/// Convert a channel/auth failure into a typed abort on `result` and tell
/// the peer (best effort — the channel may already be dead; a lost Abort
/// just means the peer aborts on its own deadline instead).
void record_fault(SessionResult& result, ClassicalChannel& channel,
                  std::uint64_t block_id, const Error& error) {
  result.success = false;
  result.abort_reason = error.what();
  result.fault_code = error.code();
  if (error.code() != ErrorCode::kChannelClosed) {
    try {
      send_abort(channel, block_id, error.what());
    } catch (const Error&) {
    }
  }
}

std::uint32_t pa_params_crc(const PaParams& params) {
  std::uint8_t bytes[24];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(params.block_id >> (8 * i));
    bytes[8 + i] = static_cast<std::uint8_t>(params.seed >> (8 * i));
    bytes[16 + i] = static_cast<std::uint8_t>(params.out_len >> (8 * i));
  }
  return crc32c(bytes);
}

/// Bob-side oracle that forwards parity queries over the channel.
class RemoteParityOracle final : public reconcile::ParityOracle {
 public:
  RemoteParityOracle(ClassicalChannel& channel, std::uint64_t block_id)
      : channel_(channel), block_id_(block_id) {}

  BitVec parities(std::uint32_t pass,
                  std::span<const reconcile::ParityRange> ranges) override {
    ParityRequest request;
    request.block_id = block_id_;
    request.pass = pass;
    request.range_begins.reserve(ranges.size());
    request.range_ends.reserve(ranges.size());
    for (const auto range : ranges) {
      request.range_begins.push_back(range.begin);
      request.range_ends.push_back(range.end);
    }
    send_msg(channel_, request);
    auto response = expect_msg<ParityResponse>(channel_);
    if (response.parities.size() != ranges.size()) {
      throw_error(ErrorCode::kProtocol, "parity response shape mismatch");
    }
    return std::move(response.parities);
  }

 private:
  ClassicalChannel& channel_;
  std::uint64_t block_id_;
};

/// Bob-side reveal oracle: one BlindRequest per query, all sent before the
/// first BlindResponse is read, so a blind stage costs one round trip
/// however many frames it covers.
class RemoteRevealOracle final : public reconcile::RevealOracle {
 public:
  RemoteRevealOracle(ClassicalChannel& channel, std::uint64_t block_id,
                     std::size_t code_n)
      : channel_(channel), block_id_(block_id), code_n_(code_n) {}

  std::vector<reconcile::BlindReveal> reveal(
      std::span<const reconcile::RevealQuery> queries) override {
    for (const auto& query : queries) {
      send_msg(channel_, BlindRequest{block_id_, query.frame, query.round});
    }
    std::vector<reconcile::BlindReveal> reveals;
    reveals.reserve(queries.size());
    for (const auto& query : queries) {
      auto response = expect_msg<BlindResponse>(channel_);
      if (response.frame != query.frame || response.round != query.round) {
        throw_error(ErrorCode::kProtocol,
                    "blind response for a frame not asked about");
      }
      if (response.positions.size() != response.values.size()) {
        throw_error(ErrorCode::kProtocol, "blind response shape mismatch");
      }
      for (const auto p : response.positions) {
        if (p >= code_n_) {
          throw_error(ErrorCode::kProtocol, "blind position out of range");
        }
      }
      reveals.push_back({std::move(response.positions),
                         std::move(response.values)});
    }
    return reveals;
  }

 private:
  ClassicalChannel& channel_;
  std::uint64_t block_id_;
  std::size_t code_n_;
};

}  // namespace

SessionResult run_alice_session(ClassicalChannel& channel,
                                const protocol::AliceTransmitLog& log,
                                std::uint64_t block_id,
                                const engine::PostprocessParams& params,
                                Xoshiro256& rng) {
  SessionResult result;
  result.key_id = block_id;
  try {
    // --- sifting ---------------------------------------------------------
    const auto report = expect_msg<DetectionReport>(channel);
    if (report.block_id != block_id) {
      throw_error(ErrorCode::kProtocol, "detection report for wrong block");
    }
    const auto sift = protocol::sift_alice(log, report);
    send_msg(channel, sift.result);
    result.sifted_bits = sift.sifted_key.size();

    // --- parameter estimation ---------------------------------------------
    const auto split =
        engine::split_sifted(sift.sifted_key, sift.result.signal_mask);
    result.key_candidate_bits = split.signal_positions.size();
    if (split.signal_positions.size() < 64) {
      send_abort(channel, block_id, "insufficient sifted key");
      result.abort_reason = "insufficient sifted key";
      result.channel = channel.counters();
      return result;
    }
    PeReveal reveal;
    reveal.block_id = block_id;
    reveal.positions =
        engine::choose_pe_positions(split, params.pe_fraction, rng);
    for (const auto p : reveal.positions) {
      reveal.alice_bits.push_back(sift.sifted_key.get(p));
    }
    send_msg(channel, reveal);

    const auto pe_report = expect_msg<PeReport>(channel);
    if (pe_report.bob_bits.size() != reveal.positions.size()) {
      throw_error(ErrorCode::kProtocol, "PE report shape mismatch");
    }
    const std::size_t mismatches =
        BitVec::hamming_distance(reveal.alice_bits, pe_report.bob_bits);
    const auto estimate = protocol::estimate_qber(
        reveal.positions.size(), mismatches, params.security.eps_pe);
    result.qber_estimate = estimate.qber;

    PeVerdict verdict;
    verdict.block_id = block_id;
    verdict.qber_estimate = estimate.qber;
    verdict.qber_upper = estimate.qber_upper;
    // Go/no-go on the point estimate (the confidence bound feeds PA).
    verdict.proceed = estimate.qber < params.qber_abort;
    send_msg(channel, verdict);
    if (!verdict.proceed) {
      result.abort_reason = "qber above abort threshold";
      result.channel = channel.counters();
      return result;
    }

    const BitVec key = engine::remaining_key(
        sift.sifted_key, sift.result.signal_mask, reveal.positions);
    const double qber_hint = engine::qber_floor(estimate.qber);

    // --- reconciliation -----------------------------------------------------
    // Framing and seeds come from the block id exactly as in the engine's
    // reconcile stage, so both deployments reconcile a block the same way.
    ReconcileStart start;
    start.block_id = block_id;
    start.method = params.method;
    start.qber_hint = qber_hint;
    std::optional<reconcile::LdpcResponder> ldpc;
    std::optional<reconcile::CascadeResponder> cascade;
    std::size_t frame_bits = key.size();  // Cascade: the key is one frame
    std::size_t frames = 1;
    if (params.method == ReconcileMethod::kLdpc) {
      reconcile::LdpcBlockFraming framing;
      try {
        framing = reconcile::frame_ldpc_block(key.size(), qber_hint, block_id,
                                              params.ldpc);
      } catch (const Error&) {
        send_abort(channel, block_id, "key shorter than one frame");
        result.abort_reason = "key shorter than one frame";
        result.channel = channel.counters();
        return result;
      }
      const reconcile::FramePlan& plan = framing.plan;
      ldpc.emplace(key, plan, framing.frame_seeds,
                   params.ldpc.max_blind_rounds, rng);
      frame_bits = plan.payload_bits;
      frames = ldpc->frames();
      start.code_id = plan.code_id;
      start.n_punctured = plan.n_punctured;
      start.n_shortened = plan.n_shortened;
      // Stream every frame's syndrome; Bob decodes the block in lockstep.
      const std::size_t m = reconcile::code_by_id(plan.code_id).m();
      for (std::size_t f = 0; f < frames; ++f) {
        start.perm_seed = framing.frame_seeds[f];
        start.syndrome = ldpc->syndromes()[f];
        send_msg(channel, start);
        result.leak_ec_bits += m - plan.n_punctured;
      }
    } else {
      // Cascade: Alice is the parity server.
      start.perm_seed = reconcile::cascade_block_seed(block_id);
      send_msg(channel, start);
      cascade.emplace(key, reconcile::cascade_permutations(
                               key.size(), start.perm_seed,
                               params.cascade.passes));
    }

    // Serve Bob's requests until he reports each frame's outcome. Request
    // fields come off the wire; the responders only assert them.
    BitVec reconciled;
    for (;;) {
      Message message = protocol::decode_message(channel.receive());
      if (auto* abort = std::get_if<Abort>(&message)) {
        throw AbortSignal{abort->detail};
      }
      const auto* request = std::get_if<ParityRequest>(&message);
      if (request != nullptr && cascade) {
        if (request->range_begins.size() != request->range_ends.size()) {
          throw_error(ErrorCode::kProtocol, "parity request shape");
        }
        if (request->pass >= cascade->passes()) {
          throw_error(ErrorCode::kProtocol,
                      "parity request pass out of range");
        }
        std::vector<reconcile::ParityRange> ranges;
        ranges.reserve(request->range_begins.size());
        for (std::size_t i = 0; i < request->range_begins.size(); ++i) {
          const reconcile::ParityRange range{request->range_begins[i],
                                             request->range_ends[i]};
          if (range.begin > range.end || range.end > cascade->key_size()) {
            throw_error(ErrorCode::kProtocol,
                        "parity request range out of bounds");
          }
          ranges.push_back(range);
        }
        send_msg(channel,
                 ParityResponse{block_id, request->pass,
                                cascade->parities(request->pass, ranges)});
        result.leak_ec_bits += ranges.size();
        continue;
      }
      const auto* blind = std::get_if<BlindRequest>(&message);
      if (blind != nullptr && ldpc) {
        if (blind->frame >= frames || blind->round == 0) {
          throw_error(ErrorCode::kProtocol, "blind request out of range");
        }
        auto chunk = ldpc->reveal(blind->frame, blind->round);
        result.leak_ec_bits += chunk.positions.size();
        send_msg(channel,
                 BlindResponse{block_id, blind->frame, blind->round,
                               std::move(chunk.positions),
                               std::move(chunk.values)});
        continue;
      }
      if (const auto* done = std::get_if<ReconcileDone>(&message)) {
        if (done->converged.size() != frames) {
          throw_error(ErrorCode::kProtocol, "reconcile outcome count mismatch");
        }
        // Frames Bob failed to decode stay out of the key; a Cascade that
        // ran out of rounds (keys provably still differ) leaves it empty,
        // so the no-reconciled-frames abort below fires instead of leaking
        // a doomed verification tag.
        reconcile::append_converged_frames(key, frame_bits, done->converged,
                                           reconciled);
        break;
      }
      throw_error(ErrorCode::kProtocol,
                  std::string("unexpected message during reconciliation: ") +
                      protocol::message_name(message));
    }
    result.reconciled_bits = reconciled.size();
    if (reconciled.empty()) {
      send_abort(channel, block_id, "no reconciled frames");
      result.abort_reason = "no reconciled frames";
      result.channel = channel.counters();
      return result;
    }

    // --- verification ---------------------------------------------------------
    VerifyRequest verify;
    verify.block_id = block_id;
    verify.seed = rng.next_u64();
    const U128 tag = privacy::verification_tag(reconciled, verify.seed);
    verify.tag_hi = tag.hi;
    verify.tag_lo = tag.lo;
    send_msg(channel, verify);
    const auto verify_response = expect_msg<VerifyResponse>(channel);
    if (!verify_response.match) {
      send_abort(channel, block_id, "verification mismatch");
      result.abort_reason = "verification mismatch";
      result.channel = channel.counters();
      return result;
    }

    // --- privacy amplification --------------------------------------------------
    const auto pa_plan = privacy::plan_privacy_amplification(
        reconciled.size(), reveal.positions.size(), estimate.qber,
        result.leak_ec_bits + engine::kVerifyTagBits, params.security);
    if (!pa_plan.viable) {
      send_abort(channel, block_id, "no extractable secret key");
      result.abort_reason = "no extractable secret key";
      result.channel = channel.counters();
      return result;
    }
    PaParams pa;
    pa.block_id = block_id;
    pa.seed = rng.next_u64();
    pa.out_len = pa_plan.output_bits;
    send_msg(channel, pa);
    BitVec final_key =
        engine::apply_toeplitz(pa.seed, reconciled, pa_plan.output_bits);

    // --- confirmation (non-secret parameter checksum) ---------------------------
    KeyConfirm confirm{block_id, block_id, pa_params_crc(pa)};
    send_msg(channel, confirm);
    const auto bob_confirm = expect_msg<KeyConfirm>(channel);
    if (bob_confirm.crc != confirm.crc) {
      throw_error(ErrorCode::kProtocol, "key confirmation mismatch");
    }
    // The key is the result only once every check has passed: a fault
    // above unwinds with it.
    result.final_key = std::move(final_key);
    result.success = true;
  } catch (const AbortSignal& abort) {
    result.abort_reason = abort.reason;
  } catch (const Error& error) {
    record_fault(result, channel, block_id, error);
  }
  result.channel = channel.counters();
  return result;
}

SessionResult run_bob_session(ClassicalChannel& channel,
                              const DetectionReport& report,
                              const BitVec& bob_bits,
                              const engine::PostprocessParams& params) {
  SessionResult result;
  result.key_id = report.block_id;
  const std::uint64_t block_id = report.block_id;
  try {
    // --- sifting ---------------------------------------------------------
    send_msg(channel, report);

    const auto sift_result = expect_msg<SiftResult>(channel);
    const BitVec sifted = protocol::sift_bob(bob_bits, sift_result);
    result.sifted_bits = sifted.size();
    // Signal-class sifted bits, counted before the estimation sample
    // leaves, as Alice and the engine count them.
    result.key_candidate_bits = sift_result.signal_mask.popcount();

    // --- parameter estimation ---------------------------------------------
    const auto reveal = expect_msg<PeReveal>(channel);
    PeReport pe_report;
    pe_report.block_id = block_id;
    for (const auto p : reveal.positions) {
      if (p >= sifted.size()) {
        throw_error(ErrorCode::kProtocol, "PE position out of range");
      }
      pe_report.bob_bits.push_back(sifted.get(p));
    }
    send_msg(channel, pe_report);

    const auto verdict = expect_msg<PeVerdict>(channel);
    result.qber_estimate = verdict.qber_estimate;
    if (!verdict.proceed) {
      result.abort_reason = "qber above abort threshold";
      result.channel = channel.counters();
      return result;
    }

    const BitVec key = engine::remaining_key(sifted, sift_result.signal_mask,
                                             reveal.positions);

    // --- reconciliation -----------------------------------------------------
    const auto first_start = expect_msg<ReconcileStart>(channel);
    // The hint comes off the wire and sizes the LLRs or Cascade blocks: a
    // NaN or out-of-range value would reach a float-to-int cast.
    if (!(first_start.qber_hint >= 0.0 && first_start.qber_hint < 0.5)) {
      throw_error(ErrorCode::kProtocol, "qber hint out of range");
    }
    const double qber = engine::qber_floor(first_start.qber_hint);
    BitVec reconciled;
    BitVec converged;
    if (first_start.method == ReconcileMethod::kLdpc) {
      // Alice streams one ReconcileStart per frame, all on the first one's
      // plan; the block is decoded once every syndrome is in. The plan
      // comes off the wire: an unknown code, one that leaves no payload
      // (a division by zero below), or one that punctures more bits than
      // the syndrome has (a leak count that would wrap) is a protocol
      // fault.
      const auto table = reconcile::code_table();
      if (std::none_of(table.begin(), table.end(), [&](const auto& spec) {
            return spec.id == first_start.code_id;
          })) {
        throw_error(ErrorCode::kProtocol, "unknown LDPC code id");
      }
      const reconcile::LdpcCode& code =
          reconcile::code_by_id(first_start.code_id);
      reconcile::FramePlan plan;
      plan.code_id = first_start.code_id;
      plan.n_punctured = first_start.n_punctured;
      plan.n_shortened = first_start.n_shortened;
      if (std::uint64_t{plan.n_punctured} + plan.n_shortened >= code.n()) {
        throw_error(ErrorCode::kProtocol, "frame plan leaves no payload");
      }
      if (plan.n_punctured > code.m()) {
        throw_error(ErrorCode::kProtocol,
                    "frame plan punctures more bits than the syndrome has");
      }
      plan.payload_bits = code.n() - plan.n_punctured - plan.n_shortened;
      const std::size_t frames = key.size() / plan.payload_bits;
      if (frames == 0) {
        throw_error(ErrorCode::kProtocol, "frame plan larger than key");
      }
      std::vector<reconcile::RateAdaptation> adaptations;
      std::vector<BitVec> syndromes;
      for (std::size_t f = 0; f < frames; ++f) {
        ReconcileStart start =
            f == 0 ? first_start : expect_msg<ReconcileStart>(channel);
        if (start.method != first_start.method ||
            start.code_id != plan.code_id ||
            start.n_punctured != plan.n_punctured ||
            start.n_shortened != plan.n_shortened ||
            start.qber_hint != first_start.qber_hint) {
          throw_error(ErrorCode::kProtocol, "frame plan changed mid-block");
        }
        if (start.syndrome.size() != code.m()) {
          throw_error(ErrorCode::kProtocol, "syndrome length mismatch");
        }
        adaptations.push_back(reconcile::derive_adaptation(
            code.n(), plan.n_punctured, plan.n_shortened, start.perm_seed));
        syndromes.push_back(std::move(start.syndrome));
      }
      RemoteRevealOracle oracle(channel, block_id, code.n());
      const auto stats = reconcile::ldpc_decode_block(
          key, qber, plan, adaptations, syndromes, params.ldpc, oracle,
          /*arena=*/nullptr, reconciled);
      result.leak_ec_bits += stats.leaked_bits;
      converged = stats.converged;
    } else {
      // Cascade: Bob drives, Alice serves parities.
      RemoteParityOracle oracle(channel, block_id);
      BitVec corrected = key;
      const auto cascade_result = reconcile::cascade_reconcile(
          corrected, oracle, qber, first_start.perm_seed, params.cascade);
      result.leak_ec_bits += cascade_result.leaked_bits;
      // Report the real convergence state: on round-budget exhaustion the
      // keys provably still differ and verification (which both peers still
      // run, keeping the message flow fixed) is guaranteed to fail.
      converged = BitVec(1, cascade_result.converged);
      reconciled = std::move(corrected);
    }
    send_msg(channel, ReconcileDone{block_id, converged});
    result.reconciled_bits = reconciled.size();

    // --- verification ---------------------------------------------------------
    const auto verify = expect_msg<VerifyRequest>(channel);
    const U128 tag = privacy::verification_tag(reconciled, verify.seed);
    const bool match = tag.hi == verify.tag_hi && tag.lo == verify.tag_lo;
    send_msg(channel, VerifyResponse{block_id, match});
    if (!match) {
      // Alice will send Abort; consume it for a clean shutdown.
      try {
        (void)expect_msg<VerifyResponse>(channel);
      } catch (const AbortSignal&) {
      }
      result.abort_reason = "verification mismatch";
      result.channel = channel.counters();
      return result;
    }

    // --- privacy amplification --------------------------------------------------
    const auto pa = expect_msg<PaParams>(channel);
    // Hashing cannot add entropy: a longer output than input (or an empty
    // one) is a hostile peer, not a key.
    if (pa.out_len == 0 || pa.out_len > reconciled.size()) {
      throw_error(ErrorCode::kProtocol,
                  "privacy amplification length " + std::to_string(pa.out_len) +
                      " outside 1.." + std::to_string(reconciled.size()));
    }
    BitVec final_key = engine::apply_toeplitz(
        pa.seed, reconciled, static_cast<std::size_t>(pa.out_len));

    // --- confirmation -----------------------------------------------------------
    const auto alice_confirm = expect_msg<KeyConfirm>(channel);
    KeyConfirm confirm{block_id, block_id, pa_params_crc(pa)};
    send_msg(channel, confirm);
    if (alice_confirm.crc != confirm.crc) {
      throw_error(ErrorCode::kProtocol, "key confirmation mismatch");
    }
    result.final_key = std::move(final_key);
    result.success = true;
  } catch (const AbortSignal& abort) {
    result.abort_reason = abort.reason;
  } catch (const Error& error) {
    record_fault(result, channel, block_id, error);
  }
  result.channel = channel.counters();
  return result;
}

}  // namespace qkdpp::pipeline
