// JSON + DTO tests: strict parser behaviour (malformed input throws
// kSerialization), deterministic dumps, and the round-trip property
// DTO -> to_json -> dump -> parse -> from_json == DTO for *every* DTO the
// key-delivery API speaks, over seeded randomized instances.
#include "api/dtos.hpp"
#include "api/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "service/link_orchestrator.hpp"

namespace qkdpp::api {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("[1,2,3]").size(), 3u);
  EXPECT_EQ(Json::parse("{\"a\":{\"b\":[false]}}")
                .at("a")
                .at("b")
                .as_array()[0]
                .as_bool(),
            false);
}

TEST(Json, IntegersSurviveBeyondDoubleMantissa) {
  // 2^63 - 1 is not representable in a double; the parser must keep the
  // int64 path for key/bit counters.
  const std::int64_t big = 9223372036854775807LL;
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(), big);
  EXPECT_EQ(Json(big).dump(), "9223372036854775807");
}

TEST(Json, DoublesStayDoublesThroughDump) {
  // An integral double must not come back as an integer: as_int() would
  // then accept what the sender wrote as a double.
  for (const char* text : {"1e2", "-1E+2", "1.0", "-0.0", "2.5", "1e300",
                           "0.1", "123456789012345678901234567890"}) {
    const Json json = Json::parse(text);
    ASSERT_TRUE(json.is_double()) << text;
    const Json again = Json::parse(json.dump());
    EXPECT_TRUE(again.is_double()) << text << " -> " << json.dump();
    EXPECT_EQ(again, json) << text;
  }
  EXPECT_EQ(Json(100.0).dump(), "100.0");
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json(1e300).dump(), "1e+300");
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string raw = "line\nbreak \"quote\" back\\slash \t tab \x01";
  const Json json(raw);
  EXPECT_EQ(Json::parse(json.dump()).as_string(), raw);
  // UTF-16 escapes, including a surrogate pair, decode to UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, DumpIsDeterministicRegardlessOfInsertionOrder) {
  Json a = Json::object();
  a.set("zeta", 1);
  a.set("alpha", 2);
  Json b = Json::object();
  b.set("alpha", 2);
  b.set("zeta", 1);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(a.dump(), "{\"alpha\":2,\"zeta\":1}");
}

TEST(Json, MalformedInputThrowsSerialization) {
  const char* broken[] = {
      "",           "{",        "[1,",     "{\"a\":}",   "{'a':1}",
      "[1 2]",      "01",       "1.",      "1e",         "tru",
      "\"unterminated", "\"bad \\q escape\"", "{\"a\":1}extra",
      "\"\\ud800\"",  // unpaired surrogate
      "nan",
  };
  for (const char* text : broken) {
    EXPECT_THROW((void)Json::parse(text), Error) << text;
    try {
      (void)Json::parse(text);
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kSerialization) << text;
    }
  }
}

// --- UTF-8: raw string bytes must be well-formed (RFC 8259 section 8.1) --

/// Parses `text` as a JSON string, in a value and as an object key, and
/// expects each to be rejected with kSerialization.
void expect_invalid_utf8(const std::string& bytes) {
  for (const std::string& text :
       {"\"" + bytes + "\"", "{\"" + bytes + "\":1}",
        "[\"ok\",\"a" + bytes + "b\"]"}) {
    try {
      (void)Json::parse(text);
      ADD_FAILURE() << "accepted " << testing::PrintToString(text);
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kSerialization);
    }
  }
}

TEST(JsonUtf8, RejectsAByteThatCannotStartASequence) {
  expect_invalid_utf8("\xff");
  expect_invalid_utf8("\x80");  // a continuation byte with no lead
}

TEST(JsonUtf8, RejectsOverlongEncodings) {
  expect_invalid_utf8("\xc0\xaf");          // '/' in two bytes
  expect_invalid_utf8("\xe0\x80\xaf");      // '/' in three bytes
  expect_invalid_utf8("\xf0\x80\x80\xaf");  // '/' in four bytes
}

TEST(JsonUtf8, RejectsEncodedSurrogates) {
  expect_invalid_utf8("\xed\xa0\x80");  // U+D800
  expect_invalid_utf8("\xed\xbf\xbf");  // U+DFFF
}

TEST(JsonUtf8, RejectsTruncatedSequences) {
  expect_invalid_utf8("\xe2\x82");  // the euro sign without its last byte
  expect_invalid_utf8("\xf0\x9f\x98");
  EXPECT_THROW((void)Json::parse("\"\xe2\x82"), Error);  // at end of input
}

TEST(JsonUtf8, RejectsCodePointsAboveTheUnicodeRange) {
  expect_invalid_utf8("\xf4\x90\x80\x80");  // U+110000
  expect_invalid_utf8("\xf5\x80\x80\x80");
}

TEST(JsonUtf8, AcceptsWellFormedTextAndEchoesItVerbatim) {
  for (const char* text : {"\xc3\xa9", "\xf0\x9f\x98\x80", "\xe2\x82\xac",
                           "\xed\x9f\xbf", "\xee\x80\x80", "\xf4\x8f\xbf\xbf",
                           "a\xc3\xa9z \xf0\x9f\x98\x80!"}) {
    const std::string quoted = std::string("\"") + text + "\"";
    const Json json = Json::parse(quoted);
    EXPECT_EQ(json.as_string(), text);
    EXPECT_EQ(json.dump(), quoted);
  }
}

TEST(JsonUtf8, DispatcherAnswersInvalidUtf8With400) {
  service::OrchestratorConfig config;
  config.links.emplace_back();
  config.links.back().name = "metro";
  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  Dispatcher dispatcher(service);
  const std::string request =
      "{\"caller\":\"sae-\xff\",\"method\":\"GET\","
      "\"target\":\"/api/v1/keys/sae-b/status\"}";
  const auto response =
      Response::from_json(Json::parse(dispatcher.dispatch(request)));
  EXPECT_EQ(response.status, kStatusBadRequest);
}

// Every position of every byte the serializer escapes, in strings long
// enough to take the eight-byte scan: dump() equals a byte-at-a-time
// reference escaper, and parse() gives the string back.
TEST(Json, StringScanMatchesByteReferenceAtEveryPosition) {
  const auto reference = [](const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      if (c == '"') {
        out += "\\\"";
      } else if (c == '\\') {
        out += "\\\\";
      } else if (c == '\n') {
        out += "\\n";
      } else if (c < 0x20) {
        const char hex[] = "0123456789abcdef";
        out += "\\u00";
        out += hex[c >> 4];
        out += hex[c & 15];
      } else {
        out += ch;
      }
    }
    return out + "\"";
  };
  const std::string specials[] = {
      "\"", "\\", "\n", std::string(1, '\0'), "\x1f", "\xc3\xa9", "\x7f"};
  for (const std::string& special : specials) {
    for (std::size_t length = 0; length < 40; ++length) {
      for (std::size_t at = 0; at <= length; ++at) {
        std::string s(length, 'k');
        s.insert(at, special);
        const std::string dumped = Json(s).dump();
        ASSERT_EQ(dumped, reference(s)) << length << " " << at;
        ASSERT_EQ(Json::parse(dumped).as_string(), s) << length << " " << at;
      }
    }
  }
}

TEST(Json, DepthLimitRejectsAdversarialNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW((void)Json::parse(deep), Error);
}

TEST(Json, TypeMismatchesThrowOnUntrustedInput) {
  const Json json = Json::parse("{\"n\":-1}");
  EXPECT_THROW((void)json.at("n").as_string(), Error);
  EXPECT_THROW((void)json.at("n").as_uint(), Error);  // negative
  EXPECT_THROW((void)json.at("missing"), Error);
  EXPECT_THROW((void)json.as_array(), Error);
}

// --- randomized DTO round-trip property ----------------------------------

std::string random_name(Xoshiro256& rng) {
  static const char* const kNames[] = {"sae-vpn-a", "sae-voip-b", "kme-1",
                                       "", "with \"quotes\"", "utf8 \xc3\xa9",
                                       "a/b?c=d"};
  return kNames[rng.uniform(std::size(kNames))];
}

std::string random_hex(Xoshiro256& rng, std::size_t bytes) {
  std::string out;
  for (std::size_t i = 0; i < bytes * 2; ++i) {
    out.push_back("0123456789abcdef"[rng.uniform(16)]);
  }
  return out;
}

std::string random_uuid(Xoshiro256& rng) {
  std::string out = random_hex(rng, 16);
  out.insert(8, "-");
  out.insert(13, "-");
  out.insert(18, "-");
  out.insert(23, "-");
  return out;
}

StatusResponse random_status(Xoshiro256& rng) {
  StatusResponse status;
  status.source_kme_id = random_name(rng);
  status.target_kme_id = random_name(rng);
  status.master_sae_id = random_name(rng);
  status.slave_sae_id = random_name(rng);
  status.key_size = rng.uniform(1 << 16);
  status.stored_key_count = rng.next_u64() >> 1;  // any non-negative int64
  status.max_key_count = rng.uniform(1 << 20);
  status.max_key_per_request = rng.uniform(1 << 10);
  status.max_key_size = rng.uniform(1 << 16);
  status.min_key_size = rng.uniform(1 << 10);
  status.pending_key_count = rng.uniform(1 << 10);
  return status;
}

KeyContainer random_container(Xoshiro256& rng) {
  KeyContainer container;
  const std::size_t n = rng.uniform(5);
  for (std::size_t i = 0; i < n; ++i) {
    container.keys.push_back(
        DeliveredKey{random_uuid(rng), random_hex(rng, 32)});
  }
  return container;
}

ApiError random_error(Xoshiro256& rng) {
  static const int kStatuses[] = {kStatusBadRequest, kStatusUnauthorized,
                                  kStatusNotFound, kStatusUnavailable};
  ApiError error;
  error.status = kStatuses[rng.uniform(std::size(kStatuses))];
  error.message = random_name(rng);
  const std::size_t n = rng.uniform(4);
  for (std::size_t i = 0; i < n; ++i) {
    error.details.push_back(random_name(rng));
  }
  return error;
}

/// One generic round trip: serialize to text, reparse, decode, compare.
template <typename T>
void expect_round_trip(const T& dto) {
  const std::string wire = dto.to_json().dump();
  const T decoded = T::from_json(Json::parse(wire));
  EXPECT_EQ(decoded, dto) << wire;
  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(decoded.to_json().dump(), wire);
}

TEST(DtoRoundTrip, EveryDtoSurvivesSerializeParseDecode) {
  Xoshiro256 rng(20260726);
  for (int iteration = 0; iteration < 200; ++iteration) {
    expect_round_trip(random_status(rng));

    KeyRequest key_request;
    key_request.number = rng.uniform(1 << 10);
    key_request.size = rng.uniform(1 << 16);
    expect_round_trip(key_request);

    KeyIdsRequest ids;
    const std::size_t n = rng.uniform(5);
    for (std::size_t i = 0; i < n; ++i) {
      ids.key_ids.push_back(random_uuid(rng));
    }
    expect_round_trip(ids);

    expect_round_trip(DeliveredKey{random_uuid(rng), random_hex(rng, 32)});
    expect_round_trip(random_container(rng));
    expect_round_trip(random_error(rng));

    Request request;
    request.method = rng.bernoulli(0.5) ? "GET" : "POST";
    request.target = "/api/v1/keys/" + random_name(rng) + "/enc_keys";
    request.caller = random_name(rng);
    request.body = rng.bernoulli(0.5) ? Json() : random_container(rng).to_json();
    expect_round_trip(request);

    Response response;
    response.status = rng.bernoulli(0.5) ? kStatusOk : kStatusUnavailable;
    response.body = rng.bernoulli(0.5) ? random_error(rng).to_json()
                                       : random_status(rng).to_json();
    expect_round_trip(response);
  }
}

TEST(DtoRoundTrip, OptionalFieldsTakeDefaults) {
  // ETSI clients may omit fields at their defaults; decoding must fill
  // them in instead of rejecting the document.
  const KeyRequest request = KeyRequest::from_json(Json::parse("{}"));
  EXPECT_EQ(request.number, 1u);
  EXPECT_EQ(request.size, 0u);
  const ApiError error =
      ApiError::from_json(Json::parse("{\"status\":503,\"message\":\"m\"}"));
  EXPECT_TRUE(error.details.empty());
}

// --- wire bytes pinned -----------------------------------------------------
//
// The exact bytes every DTO and the dispatcher put on the wire. How the
// codec stores a document may change; what a client receives may not.

TEST(WireGolden, DuplicateKeyKeepsTheLastValue) {
  const Json json = Json::parse(R"({"a":1,"a":2})");
  EXPECT_EQ(json.at("a").as_int(), 2);
  EXPECT_EQ(json.size(), 1u);
  EXPECT_EQ(json.dump(), R"({"a":2})");
  EXPECT_EQ(Json::parse(R"({"a":{"x":1},"b":0,"a":[true]})").dump(),
            R"({"a":[true],"b":0})");
  Json set = Json::object();
  set.set("a", 1);
  set.set("a", "two");
  EXPECT_EQ(set.dump(), R"({"a":"two"})");
}

TEST(WireGolden, KeysSortByteWiseAcrossCaseAndPrefix) {
  // Unsigned byte order: upper case < '_' < lower case, a prefix before
  // its extensions, and UTF-8 lead bytes (>= 0xC2) after every ASCII key.
  const char* expected =
      "{\"\":4,\"B\":5,\"_\":3,\"a\":2,\"ab\":0,\"a\x7f\":6,\"\xc3\xa9\":1}";
  Json json = Json::object();
  for (const char* key : {"ab", "\xc3\xa9", "a", "_", "", "B", "a\x7f"}) {
    json.set(key, static_cast<int>(json.size()));
  }
  EXPECT_EQ(json.dump(), expected);
  EXPECT_EQ(Json::parse(expected).dump(), expected);
  EXPECT_EQ(Json::parse(R"({"_":3,"ab":0,"B":5,"a":2})").dump(),
            R"({"B":5,"_":3,"a":2,"ab":0})");
  for (const char* key : {"", "B", "_", "a", "ab", "a\x7f", "\xc3\xa9"}) {
    EXPECT_NE(json.find(key), nullptr) << key;
  }
  EXPECT_EQ(json.find("A"), nullptr);
  EXPECT_EQ(json.find("abc"), nullptr);
}

TEST(WireGolden, EveryDtoDumpsTheRecordedBytes) {
  StatusResponse status;
  status.source_kme_id = "kme \"a\"";
  status.target_kme_id = "kme\\b/c";
  status.master_sae_id = "sae-\xc3\xa9-\xf0\x9f\x98\x80";
  status.slave_sae_id = "sae\t\x01\x1f\n\r\b\f";
  status.key_size = 256;
  status.stored_key_count = 9223372036854775807ULL;
  status.max_key_count = 0;
  status.max_key_per_request = 128;
  status.max_key_size = 4096;
  status.min_key_size = 64;
  status.pending_key_count = 3;
  EXPECT_EQ(status.to_json().dump(),
            R"({"key_size":256,"master_SAE_ID":)"
            "\"sae-\xc3\xa9-\xf0\x9f\x98\x80\","
            R"("max_key_count":0,"max_key_per_request":128,)"
            R"("max_key_size":4096,)"
            R"("min_key_size":64,"pending_key_count":3,)"
            R"("slave_SAE_ID":"sae\t\u0001\u001f\n\r\b\f",)"
            R"("source_KME_ID":"kme \"a\"",)"
            R"("stored_key_count":9223372036854775807,)"
            R"("target_KME_ID":"kme\\b/c"})");

  EXPECT_EQ((KeyRequest{8, 256}.to_json().dump()),
            R"({"number":8,"size":256})");
  EXPECT_EQ(KeyIdsRequest{}.to_json().dump(), R"({"key_IDs":[]})");
  const KeyIdsRequest ids{{"6f1a0e52-7c3b-4d1e-8a00-000000000001",
                           "0b9c7d31-1e2f-4a55-8a00-000000000002"}};
  EXPECT_EQ(ids.to_json().dump(),
            R"({"key_IDs":[{"key_ID":"6f1a0e52-7c3b-4d1e-8a00-000000000001"},)"
            R"({"key_ID":"0b9c7d31-1e2f-4a55-8a00-000000000002"}]})");
  const DeliveredKey key{"6f1a0e52-7c3b-4d1e-8a00-000000000001",
                         "00ff10ab"};
  EXPECT_EQ(key.to_json().dump(),
            R"({"key":"00ff10ab",)"
            R"("key_ID":"6f1a0e52-7c3b-4d1e-8a00-000000000001"})");
  EXPECT_EQ(KeyContainer{}.to_json().dump(), R"({"keys":[]})");
  const KeyContainer container{
      {key, DeliveredKey{"0b9c7d31-1e2f-4a55-8a00-000000000002", ""}}};
  EXPECT_EQ(container.to_json().dump(),
            R"({"keys":[{"key":"00ff10ab",)"
            R"("key_ID":"6f1a0e52-7c3b-4d1e-8a00-000000000001"},)"
            R"({"key":"","key_ID":"0b9c7d31-1e2f-4a55-8a00-000000000002"}]})");
  EXPECT_EQ((ApiError{kStatusNotFound, "no such route: /x", {}}
                 .to_json()
                 .dump()),
            R"({"message":"no such route: /x","status":404})");
  const ApiError error{kStatusUnavailable,
                       "key material exhausted",
                       {"source_bits=0", "quote \" and \\", ""}};
  EXPECT_EQ(error.to_json().dump(),
            R"({"details":["source_bits=0","quote \" and \\",""],)"
            R"("message":"key material exhausted","status":503})");
  EXPECT_EQ((Request{"GET", "/api/v1/keys/sae-b/status", "sae-a", {}}
                 .to_json()
                 .dump()),
            R"({"body":null,"caller":"sae-a","method":"GET",)"
            R"("target":"/api/v1/keys/sae-b/status"})");
  EXPECT_EQ((Request{"POST", "/api/v1/keys/sae-b/dec_keys", "sae-\xc3\xa9",
                     ids.to_json()}
                 .to_json()
                 .dump()),
            R"({"body":{"key_IDs":[)"
            R"({"key_ID":"6f1a0e52-7c3b-4d1e-8a00-000000000001"},)"
            R"({"key_ID":"0b9c7d31-1e2f-4a55-8a00-000000000002"}]},)"
            "\"caller\":\"sae-\xc3\xa9\","
            R"("method":"POST","target":"/api/v1/keys/sae-b/dec_keys"})");
  EXPECT_EQ((Response{kStatusOk, container.to_json()}.to_json().dump()),
            R"({"body":{"keys":[{"key":"00ff10ab",)"
            R"("key_ID":"6f1a0e52-7c3b-4d1e-8a00-000000000001"},)"
            R"({"key":"","key_ID":"0b9c7d31-1e2f-4a55-8a00-000000000002"}]},)"
            R"("status":200})");
  const Response refused{kStatusUnavailable, error.to_json()};
  EXPECT_EQ(refused.to_json().dump(),
            R"({"body":{"details":["source_bits=0","quote \" and \\",""],)"
            R"("message":"key material exhausted","status":503},)"
            R"("status":503})");
  EXPECT_EQ(Response{}.to_json().dump(), R"({"body":null,"status":200})");
}

TEST(WireGolden, DispatcherAnswersTheRecordedBytes) {
  // One pair on one never-run link, 1000 seeded bits in its store, the
  // default UUID seed: every answer is a pure function of the requests.
  service::OrchestratorConfig config;
  config.store.capacity_bits = 1 << 14;
  config.links.emplace_back();
  config.links.back().name = "metro";
  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  SaePair pair;
  pair.master_sae_id = "sae-a";
  pair.slave_sae_id = "sae-b";
  pair.link_name = "metro";
  pair.default_key_size = 256;
  pair.max_key_per_request = 4;
  pair.max_key_size = 1024;
  pair.min_key_size = 64;
  service.register_pair(pair);
  Xoshiro256 rng(20261020);
  ASSERT_TRUE(orchestrator.key_store(0)
                  .deposit(rng.random_bits(1000))
                  .accepted());
  Dispatcher dispatcher(service);

  const struct {
    const char* request;
    const char* response;
  } script[] = {
      // 200: status, enc_keys by POST and by GET, dec_keys.
      {R"({"method":"GET","target":"/api/v1/keys/sae-b/status",)"
       R"("caller":"sae-a"})",
       R"({"body":{"key_size":256,"master_SAE_ID":"sae-a","max_key_count":64,)"
       R"("max_key_per_request":4,"max_key_size":1024,"min_key_size":64,)"
       R"("pending_key_count":0,"slave_SAE_ID":"sae-b",)"
       R"("source_KME_ID":"kme-local",)"
       R"("stored_key_count":3,"target_KME_ID":"kme-peer"},"status":200})"},
      {R"({"body":{"number":2,"size":128},"caller":"sae-a","method":"POST",)"
       R"("target":"/api/v1/keys/sae-b/enc_keys"})",
       R"({"body":{"keys":[{"key":"281c25d53390c1f6c9c9f043da93a3e1",)"
       R"("key_ID":"a936bc4e-781d-49b4-8000-000000000000"},)"
       R"({"key":"06309db4ac8470e3beec834d5d1cfc4f",)"
       R"("key_ID":"1cbd1d53-47d2-4825-8000-000000000001"}]},"status":200})"},
      {R"({"body":null,"caller":"sae-a","method":"GET",)"
       R"("target":"/api/v1/keys/sae-b/enc_keys"})",
       R"({"body":{"keys":[{"key":"027363bd30ef9c8685ff5fe52c3aec3c)"
       R"(3b301aff11b790579ad6dab3d2ca3fb9",)"
       R"("key_ID":"e2cb2b89-7dc6-4951-8000-000000000002"}]},"status":200})"},
      {R"({"body":{"key_IDs":[)"
       R"({"key_ID":"a936bc4e-781d-49b4-8000-000000000000"},)"
       R"({"key_ID":"e2cb2b89-7dc6-4951-8000-000000000002"}]},)"
       R"("caller":"sae-b","method":"POST",)"
       R"("target":"/api/v1/keys/sae-a/dec_keys"})",
       R"({"body":{"keys":[{"key":"281c25d53390c1f6c9c9f043da93a3e1",)"
       R"("key_ID":"a936bc4e-781d-49b4-8000-000000000000"},)"
       R"({"key":"027363bd30ef9c8685ff5fe52c3aec3c)"
       R"(3b301aff11b790579ad6dab3d2ca3fb9",)"
       R"("key_ID":"e2cb2b89-7dc6-4951-8000-000000000002"}]},"status":200})"},
      // 400: broken envelope JSON, a missing envelope field, a body of the
      // wrong type, a refused number, an unknown and a repeated key id.
      {R"({"method":"GET", "target":)",
       R"({"body":{"message":"serialization error: json: unexpected end of )"
       R"(input at byte 26","status":400},"status":400})"},
      {R"({"method":"GET"})",
       R"({"body":{"message":"serialization error: json: missing field )"
       R"('target'","status":400},"status":400})"},
      {R"({"body":{"number":-1},"caller":"sae-a","method":"POST",)"
       R"("target":"/api/v1/keys/sae-b/enc_keys"})",
       R"({"body":{"message":"serialization error: json: expected )"
       R"(non-negative integer","status":400},"status":400})"},
      {R"({"body":{"number":0},"caller":"sae-a","method":"POST",)"
       R"("target":"/api/v1/keys/sae-b/enc_keys"})",
       R"({"body":{"message":"number must be >= 1","status":400},)"
       R"("status":400})"},
      {R"({"body":{"key_IDs":[)"
       R"({"key_ID":"a936bc4e-781d-49b4-8000-000000000000"}]},)"
       R"("caller":"sae-b","method":"POST",)"
       R"("target":"/api/v1/keys/sae-a/dec_keys"})",
       R"({"body":{"details":["a936bc4e-781d-49b4-8000-000000000000"],)"
       R"("message":"unknown or already-collected key_ID","status":400},)"
       R"("status":400})"},
      {R"({"body":{"key_IDs":[)"
       R"({"key_ID":"1cbd1d53-47d2-4825-8000-000000000001"},)"
       R"({"key_ID":"1cbd1d53-47d2-4825-8000-000000000001"}]},)"
       R"("caller":"sae-b","method":"POST",)"
       R"("target":"/api/v1/keys/sae-a/dec_keys"})",
       R"({"body":{"details":["1cbd1d53-47d2-4825-8000-000000000001"],)"
       R"("message":"duplicate key_ID in request","status":400},)"
       R"("status":400})"},
      // 401: an SAE that is not the pair's master, named through escapes.
      {R"({"body":{},"caller":"sae-\u00e9\t","method":"POST",)"
       R"("target":"/api/v1/keys/sae-b/enc_keys"})",
       "{\"body\":{\"message\":\"SAE 'sae-\xc3\xa9\\t' is not the registered "
       R"(master for slave 'sae-b'","status":401},"status":401})"},
      // 404 and 405.
      {R"({"caller":"sae-a","method":"GET",)"
       R"("target":"/api/v2/keys/sae-b/status"})",
       R"({"body":{"message":"no such route: /api/v2/keys/sae-b/status",)"
       R"("status":404},"status":404})"},
      {R"({"caller":"sae-a","method":"POST",)"
       R"("target":"/api/v1/keys/sae-b/status"})",
       R"({"body":{"details":["expected: GET"],)"
       R"("message":"status does not support POST","status":405},)"
       R"("status":405})"},
      // 503: more than the store and the residual hold.
      {R"({"body":{"number":2,"size":1024},"caller":"sae-a","method":"POST",)"
       R"("target":"/api/v1/keys/sae-b/enc_keys"})",
       R"({"body":{"details":["source_bits=0","buffered_bits=488",)"
       R"("requested_size=1024","link_distilling=false"],)"
       R"("message":"key material exhausted for this pair","status":503},)"
       R"("status":503})"},
      // The pair's state after the script, seen from the slave.
      {R"({"method":"GET","target":"/api/v1/keys/sae-a/status",)"
       R"("caller":"sae-b"})",
       R"({"body":{"key_size":256,"master_SAE_ID":"sae-a","max_key_count":64,)"
       R"("max_key_per_request":4,"max_key_size":1024,"min_key_size":64,)"
       R"("pending_key_count":1,"slave_SAE_ID":"sae-b",)"
       R"("source_KME_ID":"kme-local",)"
       R"("stored_key_count":1,"target_KME_ID":"kme-peer"},"status":200})"},
  };
  for (const auto& step : script) {
    EXPECT_EQ(dispatcher.dispatch(std::string_view(step.request)),
              step.response)
        << step.request;
  }
}

TEST(DispatcherMethods, WrongVerbOnKnownRouteIs405WithExpectedMethod) {
  // Wire-level contract: a known path with an unsupported verb must come
  // back 405 with the expected method(s) named in the details - distinct
  // from 404 (no such path), so a client can fix its verb instead of
  // chasing a typo. Driven through the fully serialized dispatch path so
  // the ApiError round-trips as a real transport would see it.
  service::OrchestratorConfig config;
  config.links.emplace_back();
  config.links.back().name = "metro";
  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  Dispatcher dispatcher(service);

  const struct {
    const char* method;
    const char* endpoint;
    const char* expected;
  } cases[] = {{"POST", "status", "expected: GET"},
               {"DELETE", "enc_keys", "expected: GET or POST"},
               {"GET", "dec_keys", "expected: POST"}};
  for (const auto& c : cases) {
    const Request request{c.method,
                          std::string("/api/v1/keys/sae-b/") + c.endpoint,
                          "sae-a",
                          {}};
    const auto response = Response::from_json(
        Json::parse(dispatcher.dispatch(request.to_json().dump())));
    EXPECT_EQ(response.status, kStatusMethodNotAllowed) << c.endpoint;
    const auto error = ApiError::from_json(response.body);
    EXPECT_EQ(error.status, kStatusMethodNotAllowed) << c.endpoint;
    ASSERT_EQ(error.details.size(), 1u) << c.endpoint;
    EXPECT_EQ(error.details[0], c.expected) << c.endpoint;
  }
  // The 404 boundary is unchanged: an unknown endpoint is still not found.
  const Request unknown{"GET", "/api/v1/keys/sae-b/teapot", "sae-a", {}};
  EXPECT_EQ(dispatcher.dispatch(unknown).status, kStatusNotFound);
}

}  // namespace
}  // namespace qkdpp::api
