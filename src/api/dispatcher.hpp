// Dispatcher: routes serialized ETSI 014-shaped requests to the
// KeyDeliveryService.
//
// This is the transport-independent half of an HTTP server: it consumes a
// Request envelope (method + target path + authenticated caller + JSON
// body - exactly the tuple an HTTP/socket shim would decode) and produces
// a Response envelope (status + JSON body). Plugging in a real transport
// is then a thin loop: read bytes, call dispatch(), write bytes.
//
// Routes (ETSI GS QKD 014 local key delivery API paths):
//   GET  /api/v1/keys/{slave_SAE_ID}/status     -> get_status
//   POST /api/v1/keys/{slave_SAE_ID}/enc_keys   -> get_key
//   GET  /api/v1/keys/{slave_SAE_ID}/enc_keys   -> get_key (defaults)
//   POST /api/v1/keys/{master_SAE_ID}/dec_keys  -> get_key_with_ids
//
// Error mapping: malformed envelope/body JSON -> 400, unknown route ->
// 404, unsupported method on a known route -> 405 (the expected method is
// named in the error details), service-level failures keep the ApiError
// status the service chose (400/401/503).
#pragma once

#include <string>
#include <string_view>

#include "api/dtos.hpp"
#include "api/key_delivery.hpp"

namespace qkdpp::api {

class Dispatcher {
 public:
  explicit Dispatcher(KeyDeliveryService& service) : service_(service) {}

  /// Route one decoded request. Never throws on bad input: every failure
  /// becomes a Response carrying an ApiError body.
  Response dispatch(const Request& request);

  /// Fully serialized path: parse the request envelope from JSON text,
  /// route it, serialize the response envelope. The live tests drive this -
  /// it is the complete serialize -> dispatch -> segment -> deliver path
  /// a transport would exercise.
  std::string dispatch(std::string_view request_json);

 private:
  Response route(const Request& request);

  KeyDeliveryService& service_;
};

}  // namespace qkdpp::api
