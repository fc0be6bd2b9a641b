#include "api/key_delivery.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.hpp"

namespace qkdpp::api {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Lowercase hex of bits.to_bytes(), read straight from the words: byte i
/// is bits [8i, 8i + 8) of the little-endian word i / 8.
std::string to_hex(const BitVec& bits) {
  const std::size_t bytes = (bits.size() + 7) / 8;
  const auto words = bits.words();
  std::string out(2 * bytes, '\0');
  for (std::size_t i = 0; i < bytes; ++i) {
    const auto byte = static_cast<std::uint8_t>(words[i / 8] >> (i % 8 * 8));
    out[2 * i] = kHexDigits[byte >> 4];
    out[2 * i + 1] = kHexDigits[byte & 0x0F];
  }
  return out;
}

bool is_hex_lower(char c) noexcept {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

/// Index of the first id that equals an earlier one, or ids.size(): what
/// inserting them one by one into a set would stop at, found by sorting
/// (id, index) pairs in one buffer instead of allocating a node per id.
std::size_t first_repeat(const std::vector<std::string>& ids) {
  std::vector<std::pair<std::string_view, std::size_t>> order;
  order.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) order.emplace_back(ids[i], i);
  std::sort(order.begin(), order.end());
  std::size_t repeat = ids.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i].first == order[i - 1].first) {
      repeat = std::min(repeat, order[i].second);
    }
  }
  return repeat;
}

/// Composite registry key; '/' is rejected in SAE ids, so unambiguous.
std::string pair_key(std::string_view master, std::string_view slave) {
  std::string key;
  key.reserve(master.size() + slave.size() + 1);
  key.append(master);
  key.push_back('/');
  key.append(slave);
  return key;
}

}  // namespace

bool KeyDeliveryService::is_uuid(std::string_view text) noexcept {
  if (text.size() != 36) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (i == 8 || i == 13 || i == 18 || i == 23) {
      if (text[i] != '-') return false;
    } else if (!is_hex_lower(text[i])) {
      return false;
    }
  }
  return true;
}

void KeySource::describe_exhaustion(std::vector<std::string>&) const {}

std::optional<BitVec> LinkStoreSource::draw(std::string_view consumer) {
  auto drawn = store_.get_key(consumer);
  if (!drawn.has_value()) return std::nullopt;
  return std::move(drawn->bits);
}

void LinkStoreSource::describe_exhaustion(
    std::vector<std::string>& details) const {
  // If the store has been refusing deposits, say why: a capacity-bound
  // store explains an exhausted pair better than "no material" does.
  for (std::size_t r = 1; r < pipeline::kRejectReasonCount; ++r) {
    const auto reason = static_cast<pipeline::RejectReason>(r);
    if (const auto count = store_.rejected_keys(reason); count > 0) {
      details.push_back(std::string("store_rejected_") +
                        pipeline::to_string(reason) + "=" +
                        std::to_string(count));
    }
  }
  if (orchestrator_ == nullptr) return;
  // Say whether the starvation is transient (link distilling, wait) or
  // structural (breaker open: the classical channel is timing out and no
  // deposits will land until a probe re-closes it).
  const service::LinkHealth health = orchestrator_->link_health(link_);
  details.push_back(std::string("link_distilling=") +
                    (health.distilling ? "true" : "false"));
  if (health.breaker_open) {
    details.push_back("link_breaker=open");
    details.push_back("link_consecutive_aborts=" +
                      std::to_string(health.consecutive_aborts));
  }
}

std::uint64_t LinkStoreSource::retry_after_hint_ms() const {
  if (orchestrator_ == nullptr) return 0;
  const service::LinkHealth health = orchestrator_->link_health(link_);
  // Breaker open: material resumes only after the cooldown's half-open
  // probe succeeds, so tell clients to stay away longer than the
  // block-cadence hint a healthy-but-drained link gets.
  if (health.breaker_open) return 2000;
  if (health.distilling) return 250;
  return 0;
}

KeyDeliveryService::KeyDeliveryService(
    service::LinkOrchestrator& orchestrator, KeyDeliveryConfig config)
    : orchestrator_(orchestrator), config_(std::move(config)) {}

void KeyDeliveryService::register_pair(SaePair pair) {
  const auto link = orchestrator_.link_index(pair.link_name);
  if (!link.has_value()) {
    throw_error(ErrorCode::kConfig,
                "unknown link '" + pair.link_name + "'");
  }
  register_pair(std::move(pair),
                std::make_shared<LinkStoreSource>(
                    orchestrator_.key_store(*link), orchestrator_, *link));
}

void KeyDeliveryService::register_pair(SaePair pair,
                                       std::shared_ptr<KeySource> source) {
  if (source == nullptr) {
    throw_error(ErrorCode::kConfig, "pair needs a key source");
  }
  if (pair.master_sae_id.empty() || pair.slave_sae_id.empty()) {
    throw_error(ErrorCode::kConfig, "SAE ids must be non-empty");
  }
  // The dispatcher routes on "/api/v1/keys/{SAE}/{endpoint}": an id with
  // a '/' would register fine yet be unreachable over the wire (the path
  // splitter would cut it short and 404 every request).
  if (pair.master_sae_id.find('/') != std::string::npos ||
      pair.slave_sae_id.find('/') != std::string::npos) {
    throw_error(ErrorCode::kConfig, "SAE ids must not contain '/'");
  }
  if (pair.master_sae_id == pair.slave_sae_id) {
    throw_error(ErrorCode::kConfig, "master and slave SAE must differ");
  }
  // The store's ledger reserves this name for unlabeled draws; an SAE
  // registered under it would have its accounting silently merged with
  // anonymous traffic.
  if (pair.master_sae_id == pipeline::kAnonymousConsumer ||
      pair.slave_sae_id == pipeline::kAnonymousConsumer) {
    std::string what = "reserved consumer name: ";
    what += pipeline::kAnonymousConsumer;
    throw_error(ErrorCode::kConfig, what);
  }
  if (pair.default_key_size == 0 || pair.default_key_size % 8 != 0 ||
      pair.min_key_size == 0 || pair.min_key_size % 8 != 0 ||
      pair.max_key_size % 8 != 0 || pair.min_key_size > pair.max_key_size ||
      pair.default_key_size < pair.min_key_size ||
      pair.default_key_size > pair.max_key_size) {
    throw_error(ErrorCode::kConfig,
                "key sizes must be multiples of 8 bits with "
                "min <= default <= max");
  }
  if (pair.max_key_per_request == 0) {
    throw_error(ErrorCode::kConfig, "max_key_per_request must be >= 1");
  }
  if (pair.max_pending_keys == 0) {
    throw_error(ErrorCode::kConfig, "max_pending_keys must be >= 1");
  }
  WriterLock lock(registry_mutex_);
  const std::string key = pair_key(pair.master_sae_id, pair.slave_sae_id);
  if (index_.find(key) != index_.end()) {
    throw_error(ErrorCode::kConfig,
                "pair (" + pair.master_sae_id + ", " + pair.slave_sae_id +
                    ") already registered");
  }
  // The UUID scheme encodes 14 bits of pair index (mint_uuid_locked);
  // past that, structural uniqueness across pairs would silently degrade
  // to rng collision odds.
  if (pairs_.size() >= (std::size_t{1} << 14)) {
    throw_error(ErrorCode::kConfig, "pair registry full (2^14 pairs)");
  }
  // Golden-ratio stride: distinct, well-mixed UUID stream per pair.
  const std::uint64_t seed =
      config_.uuid_seed + 0x9e3779b97f4a7c15ULL * (pairs_.size() + 1);
  pairs_.emplace_back(std::move(pair), std::move(source), pairs_.size(),
                      seed);
  index_.emplace(key, &pairs_.back());  // deque elements are pinned
}

const KeyDeliveryService::PairState* KeyDeliveryService::find_pair(
    std::string_view master, std::string_view slave) const {
  ReaderLock lock(registry_mutex_);
  const auto it = index_.find(pair_key(master, slave));
  return it != index_.end() ? it->second : nullptr;
}

KeyDeliveryService::PairState* KeyDeliveryService::find_pair(
    std::string_view master, std::string_view slave) {
  return const_cast<PairState*>(
      std::as_const(*this).find_pair(master, slave));
}

std::string KeyDeliveryService::mint_uuid_locked(PairState& pair) {
  // RFC 4122 shaped, but structurally unique instead of merely
  // probabilistically: the first half is the pair's seeded rng stream, the
  // second half encodes (pair index, per-pair counter), so two deliveries
  // can never share an id - the tests' zero-duplicate gate is a property
  // of construction, not of 128-bit collision odds.
  std::array<std::uint8_t, 16> bytes{};
  const std::uint64_t random = pair.uuid_rng.next_u64();
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(random >> (8 * i));
  }
  const std::uint64_t counter = pair.uuid_counter++;
  bytes[8] = static_cast<std::uint8_t>(0x80 | ((pair.index >> 8) & 0x3F));
  bytes[9] = static_cast<std::uint8_t>(pair.index);
  for (int i = 0; i < 6; ++i) {
    bytes[10 + i] = static_cast<std::uint8_t>(counter >> (8 * (5 - i)));
  }
  bytes[6] = static_cast<std::uint8_t>(0x40 | (bytes[6] & 0x0F));  // v4

  std::string out;
  out.reserve(36);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i == 4 || i == 6 || i == 8 || i == 10) out.push_back('-');
    out.push_back(kHexDigits[bytes[i] >> 4]);
    out.push_back(kHexDigits[bytes[i] & 0x0F]);
  }
  return out;
}

Result<StatusResponse> KeyDeliveryService::get_status(
    std::string_view caller_sae, std::string_view peer_sae) const {
  if (caller_sae.empty() || peer_sae.empty()) {
    return Result<StatusResponse>::failure(kStatusBadRequest,
                                           "SAE ids must be non-empty");
  }
  // Either side of the pair may ask for status, naming its peer.
  const PairState* pair = find_pair(caller_sae, peer_sae);
  if (pair == nullptr) pair = find_pair(peer_sae, caller_sae);
  if (pair == nullptr) {
    return Result<StatusResponse>::failure(
        kStatusUnauthorized,
        "no registered SAE pair for caller '" + std::string(caller_sae) +
            "' and peer '" + std::string(peer_sae) + "'");
  }

  const auto capacity = pair->source->capacity_bits();
  MutexLock lock(pair->mutex);
  StatusResponse status;
  status.source_kme_id = config_.source_kme_id;
  status.target_kme_id = config_.target_kme_id;
  status.master_sae_id = pair->spec.master_sae_id;
  status.slave_sae_id = pair->spec.slave_sae_id;
  status.key_size = pair->spec.default_key_size;
  status.stored_key_count =
      (pair->source->bits_available() + pair->residual.size()) /
      pair->spec.default_key_size;
  status.max_key_count =
      capacity == 0 ? 0 : capacity / pair->spec.default_key_size;
  status.max_key_per_request = pair->spec.max_key_per_request;
  status.max_key_size = pair->spec.max_key_size;
  status.min_key_size = pair->spec.min_key_size;
  status.pending_key_count = pair->pending.size();
  return Result<StatusResponse>::success(std::move(status));
}

Result<KeyContainer> KeyDeliveryService::get_key(std::string_view caller_sae,
                                                 std::string_view slave_sae,
                                                 const KeyRequest& request) {
  if (caller_sae.empty() || slave_sae.empty()) {
    return Result<KeyContainer>::failure(kStatusBadRequest,
                                         "SAE ids must be non-empty");
  }
  PairState* pair = find_pair(caller_sae, slave_sae);
  if (pair == nullptr) {
    return Result<KeyContainer>::failure(
        kStatusUnauthorized,
        "SAE '" + std::string(caller_sae) +
            "' is not the registered master for slave '" +
            std::string(slave_sae) + "'");
  }
  if (request.number == 0) {
    return Result<KeyContainer>::failure(kStatusBadRequest,
                                         "number must be >= 1");
  }
  if (request.number > pair->spec.max_key_per_request) {
    return Result<KeyContainer>::failure(
        kStatusBadRequest,
        "number exceeds max_key_per_request",
        {std::to_string(request.number) + " > " +
         std::to_string(pair->spec.max_key_per_request)});
  }
  const std::uint64_t size =
      request.size == 0 ? pair->spec.default_key_size : request.size;
  if (size % 8 != 0 || size < pair->spec.min_key_size ||
      size > pair->spec.max_key_size) {
    return Result<KeyContainer>::failure(
        kStatusBadRequest,
        "size must be a multiple of 8 in [min_key_size, max_key_size]",
        {"size=" + std::to_string(size)});
  }

  KeySource& source = *pair->source;
  MutexLock lock(pair->mutex);
  KeyContainer container;
  container.keys.reserve(request.number);  // <= max_key_per_request
  // Segments are cut at a moving offset and the residual is compacted
  // once at the end: per-key subvec-of-the-remainder would re-copy the
  // whole (possibly multi-kilobit) buffer for every minted key.
  std::size_t offset = 0;
  bool backpressured = false;
  for (std::uint64_t n = 0; n < request.number; ++n) {
    // Handover backpressure: stop minting for a slave that is not
    // collecting, instead of retaining unbounded copies.
    if (pair->pending.size() >= pair->spec.max_pending_keys) {
      backpressured = true;
      break;
    }
    // Top the residual up to one key's worth from the source; chunk
    // tails below `size` stay buffered for the next request, so
    // segmentation never drops a distilled bit. Only draw while this key
    // can still be completed: draining a shared source into this pair's
    // private residual on a hopeless request would starve the other pairs
    // of material the source could have served them.
    while (pair->residual.size() - offset < size) {
      if (pair->residual.size() - offset + source.bits_available() < size) {
        break;
      }
      auto drawn = source.draw(pair->spec.master_sae_id);
      if (!drawn.has_value()) break;
      pair->residual.append(*drawn);
    }
    if (pair->residual.size() - offset < size) break;
    BitVec bits = pair->residual.subvec(offset, size);
    offset += size;

    DeliveredKey delivered;
    delivered.key_id = mint_uuid_locked(*pair);
    delivered.key = to_hex(bits);
    pair->pending.emplace(delivered.key_id, std::move(bits));
    container.keys.push_back(std::move(delivered));

    ++pair->stats.delivered_keys;
    pair->stats.delivered_bits += size;
    ++pair->stats.pending_keys;
    pair->stats.pending_bits += size;
  }
  if (offset > 0) {
    pair->residual =
        pair->residual.subvec(offset, pair->residual.size() - offset);
  }
  pair->stats.buffered_bits = pair->residual.size();

  if (container.keys.empty()) {
    if (backpressured) {
      return Result<KeyContainer>::failure(
          kStatusUnavailable, "pending handover backlog full",
          {"pending_keys=" + std::to_string(pair->pending.size()),
           "max_pending_keys=" +
               std::to_string(pair->spec.max_pending_keys)});
    }
    std::vector<std::string> details = {
        "source_bits=" + std::to_string(source.bits_available()),
        "buffered_bits=" + std::to_string(pair->residual.size()),
        "requested_size=" + std::to_string(size)};
    if (const auto hint = source.retry_after_hint_ms(); hint > 0) {
      details.push_back("retry_after_ms=" + std::to_string(hint));
    }
    source.describe_exhaustion(details);
    return Result<KeyContainer>::failure(
        kStatusUnavailable, "key material exhausted for this pair",
        std::move(details));
  }
  return Result<KeyContainer>::success(std::move(container));
}

Result<KeyContainer> KeyDeliveryService::get_key_with_ids(
    std::string_view caller_sae, std::string_view master_sae,
    const KeyIdsRequest& request) {
  if (caller_sae.empty() || master_sae.empty()) {
    return Result<KeyContainer>::failure(kStatusBadRequest,
                                         "SAE ids must be non-empty");
  }
  PairState* pair = find_pair(master_sae, caller_sae);
  if (pair == nullptr) {
    return Result<KeyContainer>::failure(
        kStatusUnauthorized,
        "SAE '" + std::string(caller_sae) +
            "' is not the registered slave for master '" +
            std::string(master_sae) + "'");
  }
  if (request.key_ids.empty()) {
    return Result<KeyContainer>::failure(kStatusBadRequest,
                                         "key_IDs must be non-empty");
  }
  if (request.key_ids.size() > pair->spec.max_key_per_request) {
    return Result<KeyContainer>::failure(
        kStatusBadRequest, "key_IDs exceeds max_key_per_request");
  }
  std::vector<std::string> bad;
  for (const auto& id : request.key_ids) {
    if (!is_uuid(id)) bad.push_back(id);
  }
  if (!bad.empty()) {
    return Result<KeyContainer>::failure(
        kStatusBadRequest, "malformed key_ID", std::move(bad));
  }
  // A repeated id inside one batch would be a double delivery of the same
  // key: reject it as malformed before touching the handover state. The id
  // named is the first one, in request order, that repeats an earlier one.
  if (const auto repeat = first_repeat(request.key_ids);
      repeat < request.key_ids.size()) {
    return Result<KeyContainer>::failure(kStatusBadRequest,
                                         "duplicate key_ID in request",
                                         {request.key_ids[repeat]});
  }

  MutexLock lock(pair->mutex);
  // All-or-nothing: verify every id is retained before consuming any, so
  // a failed batch leaves the handover state untouched.
  std::vector<decltype(pair->pending)::iterator> retained;
  retained.reserve(request.key_ids.size());
  std::vector<std::string> missing;
  for (const auto& id : request.key_ids) {
    const auto it = pair->pending.find(id);
    if (it == pair->pending.end()) {
      missing.push_back(id);
    } else {
      retained.push_back(it);
    }
  }
  if (!missing.empty()) {
    return Result<KeyContainer>::failure(
        kStatusBadRequest, "unknown or already-collected key_ID",
        std::move(missing));
  }

  KeyContainer container;
  container.keys.reserve(retained.size());
  for (const auto it : retained) {
    // The ids are distinct, so each erase leaves the other iterators valid;
    // extracting the node hands its id string over instead of copying it.
    auto node = pair->pending.extract(it);
    const std::size_t bits = node.mapped().size();
    ++pair->stats.collected_keys;
    pair->stats.collected_bits += bits;
    --pair->stats.pending_keys;
    pair->stats.pending_bits -= bits;
    container.keys.push_back(
        DeliveredKey{std::move(node.key()), to_hex(node.mapped())});
  }
  return Result<KeyContainer>::success(std::move(container));
}

std::optional<PairStats> KeyDeliveryService::pair_stats(
    std::string_view master_sae, std::string_view slave_sae) const {
  const PairState* pair = find_pair(master_sae, slave_sae);
  if (pair == nullptr) return std::nullopt;
  MutexLock lock(pair->mutex);
  return pair->stats;
}

std::size_t KeyDeliveryService::pair_count() const {
  ReaderLock lock(registry_mutex_);
  return pairs_.size();
}

}  // namespace qkdpp::api
