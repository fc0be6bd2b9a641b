#include "api/dtos.hpp"

#include <utility>

#include "common/error.hpp"

namespace qkdpp::api {

namespace {

[[noreturn]] void bad_shape(const std::string& what) {
  throw_error(ErrorCode::kSerialization, "dto: " + what);
}

/// Optional unsigned field with a default (ETSI omits fields at their
/// defaults; a present field must still be a non-negative integer).
std::uint64_t uint_or(const Json& json, std::string_view key,
                      std::uint64_t fallback) {
  const Json* field = json.find(key);
  return field ? field->as_uint() : fallback;
}

}  // namespace

Json StatusResponse::to_json() const {
  Json json = Json::object();
  json.set("source_KME_ID", source_kme_id);
  json.set("target_KME_ID", target_kme_id);
  json.set("master_SAE_ID", master_sae_id);
  json.set("slave_SAE_ID", slave_sae_id);
  json.set("key_size", key_size);
  json.set("stored_key_count", stored_key_count);
  json.set("max_key_count", max_key_count);
  json.set("max_key_per_request", max_key_per_request);
  json.set("max_key_size", max_key_size);
  json.set("min_key_size", min_key_size);
  json.set("pending_key_count", pending_key_count);
  return json;
}

StatusResponse StatusResponse::from_json(const Json& json) {
  StatusResponse status;
  status.source_kme_id = json.at("source_KME_ID").as_string();
  status.target_kme_id = json.at("target_KME_ID").as_string();
  status.master_sae_id = json.at("master_SAE_ID").as_string();
  status.slave_sae_id = json.at("slave_SAE_ID").as_string();
  status.key_size = json.at("key_size").as_uint();
  status.stored_key_count = json.at("stored_key_count").as_uint();
  status.max_key_count = json.at("max_key_count").as_uint();
  status.max_key_per_request = json.at("max_key_per_request").as_uint();
  status.max_key_size = json.at("max_key_size").as_uint();
  status.min_key_size = json.at("min_key_size").as_uint();
  status.pending_key_count = uint_or(json, "pending_key_count", 0);
  return status;
}

Json KeyRequest::to_json() const {
  Json json = Json::object();
  json.set("number", number);
  json.set("size", size);
  return json;
}

KeyRequest KeyRequest::from_json(const Json& json) {
  if (!json.is_object()) bad_shape("key request must be an object");
  KeyRequest request;
  request.number = uint_or(json, "number", 1);
  request.size = uint_or(json, "size", 0);
  return request;
}

Json KeyIdsRequest::to_json() const {
  Json ids = Json::array();
  for (const auto& id : key_ids) {
    Json entry = Json::object();
    entry.set("key_ID", id);
    ids.push_back(std::move(entry));
  }
  Json json = Json::object();
  json.set("key_IDs", std::move(ids));
  return json;
}

KeyIdsRequest KeyIdsRequest::from_json(const Json& json) {
  KeyIdsRequest request;
  for (const Json& entry : json.at("key_IDs").as_array()) {
    request.key_ids.push_back(entry.at("key_ID").as_string());
  }
  return request;
}

Json DeliveredKey::to_json() const {
  Json json = Json::object();
  json.set("key_ID", key_id);
  json.set("key", key);
  return json;
}

DeliveredKey DeliveredKey::from_json(const Json& json) {
  DeliveredKey delivered;
  delivered.key_id = json.at("key_ID").as_string();
  delivered.key = json.at("key").as_string();
  return delivered;
}

Json KeyContainer::to_json() const {
  Json keys_json = Json::array();
  for (const auto& key : keys) keys_json.push_back(key.to_json());
  Json json = Json::object();
  json.set("keys", std::move(keys_json));
  return json;
}

KeyContainer KeyContainer::from_json(const Json& json) {
  KeyContainer container;
  for (const Json& entry : json.at("keys").as_array()) {
    container.keys.push_back(DeliveredKey::from_json(entry));
  }
  return container;
}

Json ApiError::to_json() const {
  Json json = Json::object();
  json.set("status", std::int64_t{status});
  json.set("message", message);
  if (!details.empty()) {
    Json details_json = Json::array();
    for (const auto& detail : details) details_json.push_back(detail);
    json.set("details", std::move(details_json));
  }
  return json;
}

ApiError ApiError::from_json(const Json& json) {
  ApiError error;
  error.status = static_cast<int>(json.at("status").as_int());
  error.message = json.at("message").as_string();
  if (const Json* details = json.find("details")) {
    for (const Json& entry : details->as_array()) {
      error.details.push_back(entry.as_string());
    }
  }
  return error;
}

Json Request::to_json() const {
  Json json = Json::object();
  json.set("method", method);
  json.set("target", target);
  json.set("caller", caller);
  json.set("body", body);
  return json;
}

Request Request::from_json(Json json) {
  Request request;
  request.method = json.at("method").as_string();
  request.target = json.at("target").as_string();
  request.caller = json.at("caller").as_string();
  if (Json* body = json.find("body")) request.body = std::move(*body);
  return request;
}

Json Response::to_json() const& { return Response(*this).to_json(); }

Json Response::to_json() && {
  Json json = Json::object();
  json.set("status", std::int64_t{status});
  json.set("body", std::move(body));
  return json;
}

Response Response::from_json(Json json) {
  Response response;
  response.status = static_cast<int>(json.at("status").as_int());
  if (Json* body = json.find("body")) response.body = std::move(*body);
  return response;
}

}  // namespace qkdpp::api
