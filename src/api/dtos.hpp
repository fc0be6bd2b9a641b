// ETSI GS QKD 014-shaped data transfer objects for the key-delivery API.
//
// One struct per wire object of the ETSI local key delivery API, each with
// a to_json()/from_json() pair so the service and dispatcher exchange
// *serialized* requests - exactly what an HTTP transport shim would carry.
// JSON field names follow the ETSI spelling (key_ID, stored_key_count,
// master_SAE_ID, ...) so a compliant client maps 1:1:
//
//   StatusResponse  <-> "Status"        (GET  /keys/{slave}/status)
//   KeyRequest      <-> "Key request"   (POST /keys/{slave}/enc_keys)
//   KeyIdsRequest   <-> "Key IDs"       (POST /keys/{master}/dec_keys)
//   KeyContainer    <-> "Key container" (response carrying key_ID + key)
//   ApiError        <-> "Error"         (message + details, plus the
//                                        HTTP-like status the transport
//                                        would put on the wire)
//
// from_json() throws qkdpp::Error{kSerialization} on malformed or
// wrongly-typed input; the dispatcher maps that to status 400.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/json.hpp"

namespace qkdpp::api {

/// ETSI "Status": what one SAE pair's delivery endpoint can do right now.
struct StatusResponse {
  std::string source_kme_id;   ///< KME terminating the master SAE's side
  std::string target_kme_id;   ///< KME terminating the slave SAE's side
  std::string master_sae_id;
  std::string slave_sae_id;
  std::uint64_t key_size = 0;            ///< default delivered-key size, bits
  std::uint64_t stored_key_count = 0;    ///< keys deliverable right now
  std::uint64_t max_key_count = 0;       ///< store bound, in keys (0 = none)
  std::uint64_t max_key_per_request = 0;
  std::uint64_t max_key_size = 0;        ///< bits
  std::uint64_t min_key_size = 0;        ///< bits
  /// Extension: keys delivered to the master and retained for the slave
  /// (ETSI allows vendor extensions; exposed so both SAEs can see the
  /// handover backlog).
  std::uint64_t pending_key_count = 0;

  Json to_json() const;
  static StatusResponse from_json(const Json& json);
  friend bool operator==(const StatusResponse&,
                         const StatusResponse&) = default;
};

/// ETSI "Key request": the master SAE asks for `number` keys of `size`
/// bits each (0 = the pair's default size).
struct KeyRequest {
  std::uint64_t number = 1;
  std::uint64_t size = 0;

  Json to_json() const;
  static KeyRequest from_json(const Json& json);
  friend bool operator==(const KeyRequest&, const KeyRequest&) = default;
};

/// ETSI "Key IDs": the slave SAE names the keys (by UUID) the master
/// already holds.
struct KeyIdsRequest {
  std::vector<std::string> key_ids;

  Json to_json() const;
  static KeyIdsRequest from_json(const Json& json);
  friend bool operator==(const KeyIdsRequest&, const KeyIdsRequest&) = default;
};

/// ETSI "Key": one delivered key - a 128-bit UUID both SAEs reference plus
/// the key material (lowercase hex of the little-endian byte serialization).
struct DeliveredKey {
  std::string key_id;
  std::string key;

  Json to_json() const;
  static DeliveredKey from_json(const Json& json);
  friend bool operator==(const DeliveredKey&, const DeliveredKey&) = default;
};

/// ETSI "Key container": the batch a single request delivered.
struct KeyContainer {
  std::vector<DeliveredKey> keys;

  Json to_json() const;
  static KeyContainer from_json(const Json& json);
  friend bool operator==(const KeyContainer&, const KeyContainer&) = default;
};

/// HTTP-like status codes the service speaks (the subset ETSI 014 uses).
inline constexpr int kStatusOk = 200;
inline constexpr int kStatusBadRequest = 400;    ///< malformed request
inline constexpr int kStatusUnauthorized = 401;  ///< unknown SAE / pair
inline constexpr int kStatusNotFound = 404;      ///< no such route
/// Known route, unsupported method; details name the expected method(s),
/// so a client can distinguish "wrong verb" from "no such path" (404).
inline constexpr int kStatusMethodNotAllowed = 405;
inline constexpr int kStatusUnavailable = 503;   ///< exhausted / backpressure
inline constexpr int kStatusInternal = 500;      ///< unexpected typed error

/// ETSI "Error" plus the transport status code.
struct ApiError {
  int status = 0;
  std::string message;
  std::vector<std::string> details;

  Json to_json() const;
  static ApiError from_json(const Json& json);
  friend bool operator==(const ApiError&, const ApiError&) = default;
};

/// Transport envelope for one request: what an HTTP shim would decompose
/// into method + path + authenticated caller identity + body. The caller
/// field stands in for the TLS client identity ETSI relies on.
struct Request {
  std::string method;  ///< "GET" or "POST"
  std::string target;  ///< e.g. "/api/v1/keys/sae-bob/enc_keys"
  std::string caller;  ///< authenticated SAE id of the requester
  Json body;           ///< null for GET

  Json to_json() const;
  /// Takes the document by value: a temporary one (from_json(Json::parse(
  /// text))) hands its body over instead of having it deep-copied.
  static Request from_json(Json json);
  friend bool operator==(const Request&, const Request&) = default;
};

/// Transport envelope for one response.
struct Response {
  int status = kStatusOk;
  Json body;

  bool ok() const noexcept { return status == kStatusOk; }

  Json to_json() const&;
  /// Moves the body into the envelope: a response serialized as it is
  /// returned (dispatch(request).to_json().dump()) is never deep-copied.
  Json to_json() &&;
  /// By value, like Request::from_json: a temporary document's body is
  /// moved, not copied.
  static Response from_json(Json json);
  friend bool operator==(const Response&, const Response&) = default;
};

}  // namespace qkdpp::api
