// Seeded-mutation test for the JSON layer of the key-delivery API:
// Json::parse, every DTO's from_json, and the serialized
// Dispatcher::dispatch path. Valid documents - every DTO and both
// envelopes - are mutated with bit flips, byte inserts and deletes,
// truncation, duplicated spans, inserted quotes, backslashes and control
// bytes, \u escapes (lone surrogates included), invalid UTF-8 and deep
// nesting, one to three mutations per document. Whatever the bytes:
//   - Json::parse and every from_json either succeed or throw
//     Error{kSerialization};
//   - a document that parses re-parses equal from its own dump(), and a DTO
//     that decodes re-decodes equal from its own to_json();
//   - dispatch() never throws, its answer is itself a response envelope,
//     and input that is not a request envelope is answered with 400.
// 12 documents x 2,000 mutations = 24,000 cases from the seeds in this
// file.
#include "api/dispatcher.hpp"
#include "api/dtos.hpp"
#include "api/json.hpp"
#include "api/key_delivery.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "service/link_orchestrator.hpp"

namespace qkdpp::api {
namespace {

constexpr int kMutationsPerDocument = 2000;

/// Valid documents: every DTO and both envelopes, with escapes and
/// multi-byte UTF-8 in their strings.
std::vector<std::string> seed_documents() {
  StatusResponse status;
  status.source_kme_id = "kme-\"local\"";
  status.target_kme_id = "kme-\xc3\xa9t\xc3\xa9";
  status.master_sae_id = "sae-a";
  status.slave_sae_id = "sae-b\t\xf0\x9f\x98\x80";
  status.key_size = 256;
  status.stored_key_count = 9223372036854775807ULL;
  status.max_key_count = 16384;
  status.max_key_per_request = 8;
  status.max_key_size = 1024;
  status.min_key_size = 64;
  status.pending_key_count = 3;
  const KeyIdsRequest ids{{"6f1a0e52-7c3b-4d1e-8a00-000000000001",
                           "0b9c7d31-1e2f-4a55-8a00-000000000002"}};
  const KeyContainer container{
      {{"6f1a0e52-7c3b-4d1e-8a00-000000000001",
        "281c25d53390c1f6c9c9f043da93a3e1"},
       {"0b9c7d31-1e2f-4a55-8a00-000000000002", "0630"}}};
  const ApiError error{kStatusUnavailable,
                       "key material exhausted for this pair",
                       {"source_bits=0", "back\\slash", "\x01"}};
  return {
      status.to_json().dump(),
      KeyRequest{2, 128}.to_json().dump(),
      ids.to_json().dump(),
      container.keys[0].to_json().dump(),
      container.to_json().dump(),
      error.to_json().dump(),
      Request{"GET", "/api/v1/keys/sae-b/status", "sae-a", {}}
          .to_json()
          .dump(),
      Request{"POST", "/api/v1/keys/sae-b/enc_keys", "sae-a",
              KeyRequest{2, 128}.to_json()}
          .to_json()
          .dump(),
      Request{"POST", "/api/v1/keys/sae-a/dec_keys", "sae-b", ids.to_json()}
          .to_json()
          .dump(),
      Response{kStatusOk, container.to_json()}.to_json().dump(),
      Response{kStatusUnavailable, error.to_json()}.to_json().dump(),
      Response{kStatusOk, status.to_json()}.to_json().dump(),
  };
}

/// Byte sequences a string may not hold raw, and a few it may.
const char* const kUtf8Samples[] = {
    "\xff",         "\x80",         "\xc0\xaf",         "\xc1\xbf",
    "\xe0\x80\xaf", "\xed\xa0\x80", "\xed\xbf\xbf",     "\xe2\x82",
    "\xf0\x9f\x98", "\xf4\x90\x80\x80", "\xf8\x88\x80\x80\x80",
    "\xc3\xa9",     "\xe2\x82\xac", "\xf0\x9f\x98\x80",
};

/// Applies one to three seeded mutations to `doc`; `what` names them.
std::string mutate(std::string doc, Xoshiro256& rng, std::string& what) {
  const auto position = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.uniform(doc.size() + extra));
  };
  const int steps = 1 + static_cast<int>(rng.uniform(3));
  for (int step = 0; step < steps; ++step) {
    switch (rng.uniform(9)) {
      case 0:  // bit flip
        if (!doc.empty()) {
          const std::size_t bit = rng.uniform(doc.size() * 8);
          doc[bit / 8] = static_cast<char>(doc[bit / 8] ^ (1 << (bit % 8)));
          what += " flip " + std::to_string(bit);
        }
        break;
      case 1: {  // byte insert
        const std::size_t at = position(1);
        doc.insert(at, 1, static_cast<char>(rng.uniform(256)));
        what += " insert@" + std::to_string(at);
        break;
      }
      case 2:  // byte delete
        if (!doc.empty()) {
          const std::size_t at = position(0);
          doc.erase(at, 1);
          what += " delete@" + std::to_string(at);
        }
        break;
      case 3:  // truncation
        doc.resize(position(1));
        what += " cut " + std::to_string(doc.size());
        break;
      case 4: {  // a duplicated span
        const std::size_t from = position(0);
        const std::string span = doc.substr(from, 1 + rng.uniform(24));
        const std::size_t at = position(1);
        doc.insert(at, span);
        what += " dup " + std::to_string(span.size()) + "@" +
                std::to_string(at);
        break;
      }
      case 5: {  // a quote, a backslash or a control byte
        const char picks[] = {'"', '\\', static_cast<char>(rng.uniform(0x20))};
        const std::size_t at = position(1);
        doc.insert(at, 1, picks[rng.uniform(3)]);
        what += " special@" + std::to_string(at);
        break;
      }
      case 6: {  // a \u escape; half of them lone surrogates
        const std::uint64_t unit = rng.bernoulli(0.5)
                                       ? 0xD800 + rng.uniform(0x800)
                                       : rng.uniform(0x10000);
        const char hex[] = "0123456789abcdef";
        std::string escape = "\\u";
        for (int shift = 12; shift >= 0; shift -= 4) {
          escape += hex[(unit >> shift) & 15];
        }
        const std::size_t at = position(1);
        doc.insert(at, escape);
        what += " " + escape + "@" + std::to_string(at);
        break;
      }
      case 7: {  // raw UTF-8, mostly ill-formed
        const std::size_t pick = rng.uniform(std::size(kUtf8Samples));
        const std::size_t at = position(1);
        doc.insert(at, kUtf8Samples[pick]);
        what += " utf8#" + std::to_string(pick) + "@" + std::to_string(at);
        break;
      }
      default: {  // deep nesting, closed again half of the time
        const std::size_t depth = 1 + rng.uniform(100);
        const bool object = rng.bernoulli(0.5);
        std::string open;
        for (std::size_t i = 0; i < depth; ++i) {
          open += object ? "{\"n\":" : "[";
        }
        const std::size_t at = position(1);
        doc.insert(at, open);
        if (rng.bernoulli(0.5)) {
          const std::size_t after = at + open.size();
          doc.insert(after + rng.uniform(doc.size() - after + 1),
                     std::string(depth, object ? '}' : ']'));
        }
        what += " nest " + std::to_string(depth) + "@" + std::to_string(at);
        break;
      }
    }
  }
  return doc;
}

/// "" when `f` returns or throws Error{kSerialization}; otherwise what it
/// threw.
template <typename F>
std::string foreign_failure(F&& f) {
  try {
    f();
    return "";
  } catch (const Error& error) {
    if (error.code() == ErrorCode::kSerialization) return "";
    return std::string("error of another code: ") + error.what();
  } catch (const std::exception& e) {
    return std::string("untyped exception: ") + e.what();
  } catch (...) {
    return "non-standard exception";
  }
}

/// Decodes `doc` as a T; a T that decodes must re-decode equal from its
/// own to_json(). Returns "" or what went wrong.
template <typename T>
std::string decode_failure(const Json& doc, const char* name) {
  std::optional<T> dto;
  std::string failure = foreign_failure([&] { dto = T::from_json(doc); });
  if (!failure.empty()) return std::string(name) + ": " + failure;
  if (dto && !(T::from_json(Json::parse(dto->to_json().dump())) == *dto)) {
    return std::string(name) + ": does not re-decode equal";
  }
  return "";
}

/// Every DTO's from_json on `doc`; "" or the first failure.
std::string decode_failures(const Json& doc) {
  for (const std::string& failure :
       {decode_failure<StatusResponse>(doc, "StatusResponse"),
        decode_failure<KeyRequest>(doc, "KeyRequest"),
        decode_failure<KeyIdsRequest>(doc, "KeyIdsRequest"),
        decode_failure<DeliveredKey>(doc, "DeliveredKey"),
        decode_failure<KeyContainer>(doc, "KeyContainer"),
        decode_failure<ApiError>(doc, "ApiError"),
        decode_failure<Request>(doc, "Request"),
        decode_failure<Response>(doc, "Response")}) {
    if (!failure.empty()) return failure;
  }
  return "";
}

TEST(JsonMutation, SeededMutationsOnlyRaiseTypedErrors) {
  // The dispatcher answers from a real service: one pair on one never-run
  // link with seeded material, so mutated requests that still decode reach
  // every route, succeed, or drain the store into 503s.
  service::OrchestratorConfig config;
  config.store.capacity_bits = 1 << 20;
  config.links.emplace_back();
  config.links.back().name = "metro";
  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  SaePair pair;
  pair.master_sae_id = "sae-a";
  pair.slave_sae_id = "sae-b";
  pair.link_name = "metro";
  service.register_pair(pair);
  Xoshiro256 material(11);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(orchestrator.key_store(0)
                    .deposit(material.random_bits(10000))
                    .accepted());
  }
  Dispatcher dispatcher(service);

  Xoshiro256 rng(0x6a736f6e);
  std::size_t cases = 0;
  std::size_t parsed = 0;
  std::size_t requests = 0;
  for (const std::string& valid : seed_documents()) {
    ASSERT_NO_THROW((void)Json::parse(valid)) << valid;
    for (int trial = 0; trial < kMutationsPerDocument; ++trial) {
      std::string what;
      const std::string text = mutate(valid, rng, what);
      const auto trace = [&] {
        return testing::PrintToString(text) + " from" + what;
      };
      ++cases;

      std::optional<Json> doc;
      ASSERT_EQ(foreign_failure([&] { doc = Json::parse(text); }), "")
          << trace();
      bool is_request = false;
      if (doc) {
        ++parsed;
        ASSERT_EQ(Json::parse(doc->dump()), *doc) << trace();
        ASSERT_EQ(decode_failures(*doc), "") << trace();
        if (const Json* body = doc->find("body")) {
          ASSERT_EQ(decode_failures(*body), "") << "body of " << trace();
        }
        try {
          (void)Request::from_json(*doc);
          is_request = true;
        } catch (const Error&) {
        }
      }
      requests += is_request ? 1 : 0;

      std::string answer;
      try {
        answer = dispatcher.dispatch(std::string_view(text));
      } catch (...) {
        FAIL() << "dispatch threw on " << trace();
      }
      std::optional<Response> response;
      ASSERT_EQ(foreign_failure([&] {
                  response = Response::from_json(Json::parse(answer));
                }),
                "")
          << answer << " for " << trace();
      ASSERT_TRUE(response.has_value()) << answer << " for " << trace();
      if (!is_request) {
        EXPECT_EQ(response->status, kStatusBadRequest)
            << answer << " for " << trace();
      }
    }
  }
  EXPECT_EQ(cases, 12u * kMutationsPerDocument);
  // The mix must reach past the parser: some mutants still parse, and some
  // of those are still request envelopes that the service answers.
  EXPECT_GT(parsed, cases / 10);
  EXPECT_GT(requests, cases / 100);
}

// An object of many keys in descending order is sorted once, not by one
// insertion per key: a hostile request of 20,000 fields parses at once,
// in order, with the last of each repeated key.
TEST(JsonMutation, ReverseOrderedKeysParseSortedWithLastDuplicateWinning) {
  std::string text = "{";
  for (int i = 19999; i >= 0; --i) {
    char key[16];
    std::snprintf(key, sizeof key, "k%05d", i);
    text += std::string(i == 19999 ? "" : ",") + "\"" + key + "\":" +
            std::to_string(i);
    if (i % 1000 == 0) text += std::string(",\"") + key + "\":-1";
  }
  text += "}";
  const Json json = Json::parse(text);
  ASSERT_EQ(json.size(), 20000u);
  const auto& members = json.as_object();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto expected = static_cast<std::int64_t>(i % 1000 == 0 ? -1 : i);
    ASSERT_EQ(members[i].second.as_int(), expected) << members[i].first;
    if (i > 0) {
      ASSERT_LT(members[i - 1].first, members[i].first);
    }
  }
  EXPECT_EQ(Json::parse(json.dump()), json);
}

}  // namespace
}  // namespace qkdpp::api
