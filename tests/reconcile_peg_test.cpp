// PEG construction pins: every table PEG code and two test shapes hashed
// down to their CSR and pinned to the digests of the epoch-stamped BFS
// construction, every table code checked free of 4-cycles, and a
// differential test of LdpcCode::peg against that BFS (kept below as a
// labelled test oracle) over random shapes. Code ids are wire values and
// Alice and Bob rebuild codes independently, so a construction change
// that moves one edge breaks every key.
#include "reconcile/ldpc_code.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::reconcile {
namespace {

// FNV-1a, fed 64 bits at a time.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The CSR: each check's degree and variables in check order, then each
// variable's edge ids in variable order.
std::uint64_t csr_digest(const LdpcCode& code) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  digest = fnv1a(digest, code.n());
  digest = fnv1a(digest, code.m());
  for (std::size_t c = 0; c < code.m(); ++c) {
    const auto vars = code.check_vars(c);
    digest = fnv1a(digest, vars.size());
    for (const std::uint32_t v : vars) digest = fnv1a(digest, v);
  }
  for (std::size_t v = 0; v < code.n(); ++v) {
    for (const std::uint32_t e : code.var_edges(v)) digest = fnv1a(digest, e);
  }
  return digest;
}

// Table ids 0-8 (n = 1024 and 4096, the PEG half of the table), digests
// recorded from the epoch-stamped BFS construction.
constexpr std::uint64_t kTableDigests[] = {
    0xa61820b630a0170dULL, 0xe839760f68a7cbafULL, 0xa1401ad36fcc771dULL,
    0x1c93ada8dab5519dULL, 0x2f038ce7fc1d0831ULL, 0xa912f2dc1fac41b7ULL,
    0x682385d3c0e9c217ULL, 0x2a341755dc5597f1ULL, 0xd6973f43649689ddULL,
};

TEST(PegDigest, TableCodesMatchParentDigests) {
  for (std::uint32_t id = 0; id < std::size(kTableDigests); ++id) {
    const LdpcCode& code = code_by_id(id);
    ASSERT_LT(code.n(), 16384u) << "id " << id << " is not a PEG code";
    const std::uint64_t digest = csr_digest(code);
    EXPECT_EQ(digest, kTableDigests[id])
        << "id " << id << ": 0x" << std::hex << digest;
  }
}

TEST(PegDigest, TestShapesMatchParentDigests) {
  // The KernelDigest code and the irregular shape of
  // LdpcCode.IrregularProfileHonoursFractions.
  const LdpcCode regular =
      LdpcCode::peg(1024, 512, DegreeProfile::regular(3), 7);
  const LdpcCode irregular =
      LdpcCode::peg(1000, 400, DegreeProfile{{{2, .5}, {4, .5}}}, 3);
  EXPECT_EQ(csr_digest(regular), 0xbe86dc533318e4dbULL)
      << std::hex << csr_digest(regular);
  EXPECT_EQ(csr_digest(irregular), 0x02639bcb6f144c43ULL)
      << std::hex << csr_digest(irregular);
}

TEST(PegDigest, TableCodesHaveNoFourCycles) {
  for (const CodeSpec& spec : code_table()) {
    EXPECT_FALSE(code_by_id(spec.id).has_four_cycle()) << "id " << spec.id;
  }
}

// --- differential test against the BFS oracle -----------------------------

// Test oracle, not a production path: PEG with an epoch-stamped
// breadth-first search over the variable/check graph, one edge at a time -
// the construction LdpcCode::peg replaced. Returns check -> variables in
// edge insertion order, which is exactly the order the CSR keeps.
std::vector<std::vector<std::uint32_t>> reference_peg(
    std::size_t n, std::size_t m, const DegreeProfile& profile,
    std::uint64_t seed) {
  std::vector<unsigned> degree_of(n);
  {
    auto sorted = profile.entries;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.degree < b.degree; });
    std::size_t v = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      std::size_t count =
          i + 1 == sorted.size()
              ? n - v
              : static_cast<std::size_t>(sorted[i].fraction * n + 0.5);
      count = std::min(count, n - v);
      for (std::size_t j = 0; j < count; ++j) degree_of[v++] = sorted[i].degree;
    }
    while (v < n) degree_of[v++] = sorted.back().degree;
  }

  Xoshiro256 rng(seed);
  std::vector<std::vector<std::uint32_t>> check_adj(m);
  std::vector<std::vector<std::uint32_t>> var_adj(n);
  std::vector<std::uint32_t> check_degree(m, 0);
  std::vector<std::uint32_t> check_epoch(m, 0);
  std::vector<std::uint32_t> var_epoch(n, 0);
  std::vector<std::uint32_t> check_depth(m, 0);
  std::vector<std::uint32_t> frontier_vars;
  std::vector<std::uint32_t> next_vars;
  std::uint32_t epoch = 0;

  auto pick_min_degree = [&](auto&& eligible) -> std::uint32_t {
    std::uint32_t best_degree = ~0u;
    std::uint32_t reservoir = 0;
    std::uint32_t count = 0;
    for (std::uint32_t c = 0; c < m; ++c) {
      if (!eligible(c)) continue;
      if (check_degree[c] < best_degree) {
        best_degree = check_degree[c];
        reservoir = c;
        count = 1;
      } else if (check_degree[c] == best_degree) {
        ++count;
        if (rng.uniform(count) == 0) reservoir = c;
      }
    }
    QKDPP_REQUIRE(count > 0, "PEG found no eligible check");
    return reservoir;
  };

  for (std::uint32_t v = 0; v < n; ++v) {
    for (unsigned k = 0; k < degree_of[v]; ++k) {
      std::uint32_t chosen;
      if (k == 0) {
        chosen = pick_min_degree([](std::uint32_t) { return true; });
      } else {
        ++epoch;
        frontier_vars.clear();
        frontier_vars.push_back(v);
        var_epoch[v] = epoch;
        std::size_t reached_checks = 0;
        std::uint32_t depth = 0;
        std::uint32_t max_depth_seen = 0;
        for (;;) {
          ++depth;
          std::size_t new_checks = 0;
          next_vars.clear();
          for (const std::uint32_t fv : frontier_vars) {
            for (const std::uint32_t c : var_adj[fv]) {
              if (check_epoch[c] == epoch) continue;
              check_epoch[c] = epoch;
              check_depth[c] = depth;
              max_depth_seen = depth;
              ++new_checks;
              for (const std::uint32_t nv : check_adj[c]) {
                if (var_epoch[nv] == epoch) continue;
                var_epoch[nv] = epoch;
                next_vars.push_back(nv);
              }
            }
          }
          reached_checks += new_checks;
          if (new_checks == 0 || reached_checks == m || next_vars.empty()) {
            break;
          }
          frontier_vars.swap(next_vars);
        }
        if (reached_checks < m) {
          chosen = pick_min_degree(
              [&](std::uint32_t c) { return check_epoch[c] != epoch; });
        } else {
          chosen = pick_min_degree([&](std::uint32_t c) {
            return check_depth[c] == max_depth_seen;
          });
        }
      }
      check_adj[chosen].push_back(v);
      var_adj[v].push_back(chosen);
      ++check_degree[chosen];
    }
  }
  return check_adj;
}

struct PegShape {
  std::size_t n;
  std::size_t m;
  DegreeProfile profile;
  std::uint64_t seed;
};

std::string describe(const PegShape& shape) {
  std::ostringstream out;
  out << "n=" << shape.n << " m=" << shape.m << " degrees";
  for (const auto& e : shape.profile.entries) {
    out << ' ' << e.degree << ':' << e.fraction;
  }
  out << " seed=" << shape.seed;
  return out.str();
}

// Random shapes: n log-uniform over [64, 2048] (most small, the first two
// at the ends), m between a fifth and three quarters of n and never a
// multiple of 64 (a partial last word in any per-check bitset), even
// shapes regular and odd shapes irregular over 2-3 distinct degrees, all
// degrees in 2..8.
std::vector<PegShape> random_shapes(std::size_t count) {
  Xoshiro256 rng(0x9e6d1ff);
  std::vector<PegShape> shapes;
  for (std::size_t i = 0; i < count; ++i) {
    PegShape shape;
    shape.n = i == 0   ? 64
              : i == 1 ? 2048
                       : static_cast<std::size_t>(
                             64.0 * std::exp2(5.0 * rng.next_double()));
    shape.m = static_cast<std::size_t>(
        static_cast<double>(shape.n) * (0.2 + 0.55 * rng.next_double()));
    if (shape.m % 64 == 0) ++shape.m;
    if (i % 2 == 0) {
      shape.profile = DegreeProfile::regular(
          2 + static_cast<unsigned>(rng.uniform(7)));
    } else {
      std::vector<unsigned> degrees = {2, 3, 4, 5, 6, 7, 8};
      rng.shuffle(std::span<unsigned>(degrees));
      const std::size_t kinds = 2 + rng.uniform(2);
      double total = 0;
      for (std::size_t k = 0; k < kinds; ++k) {
        const double weight = 0.1 + rng.next_double();
        shape.profile.entries.push_back({degrees[k], weight});
        total += weight;
      }
      for (auto& e : shape.profile.entries) e.fraction /= total;
    }
    shape.seed = rng.next_u64();
    shapes.push_back(shape);
  }
  return shapes;
}

TEST(PegOracle, MatchesReferenceBfsOnRandomShapes) {
  for (const PegShape& shape : random_shapes(50)) {
    SCOPED_TRACE(describe(shape));
    const LdpcCode code =
        LdpcCode::peg(shape.n, shape.m, shape.profile, shape.seed);
    const auto expected =
        reference_peg(shape.n, shape.m, shape.profile, shape.seed);
    ASSERT_EQ(code.m(), expected.size());
    for (std::size_t c = 0; c < code.m(); ++c) {
      const auto vars = code.check_vars(c);
      ASSERT_TRUE(std::equal(vars.begin(), vars.end(), expected[c].begin(),
                             expected[c].end()))
          << "check " << c;
    }
    ASSERT_NO_THROW(code.validate());
  }
}

}  // namespace
}  // namespace qkdpp::reconcile
