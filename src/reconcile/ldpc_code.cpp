#include "reconcile/ldpc_code.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"

namespace qkdpp::reconcile {

LdpcCode LdpcCode::peg(std::size_t n, std::size_t m,
                       const DegreeProfile& profile, std::uint64_t seed) {
  QKDPP_REQUIRE(n > 0 && m > 0 && m < n, "PEG needs 0 < m < n");
  QKDPP_REQUIRE(!profile.entries.empty(), "empty degree profile");

  // Materialize per-variable degrees, low degrees first (PEG convention:
  // constrain the hardest-to-protect nodes while the graph is sparse).
  std::vector<unsigned> degree_of(n);
  {
    double fraction_sum = 0;
    for (const auto& e : profile.entries) fraction_sum += e.fraction;
    QKDPP_REQUIRE(std::abs(fraction_sum - 1.0) < 1e-9,
                  "degree fractions must sum to 1");
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
  std::vector<std::vector<std::uint32_t>> check_adj(m);  // check -> vars
  std::vector<std::uint32_t> check_degree(m, 0);

  // The searches walk the check graph, where two checks are adjacent when
  // they share a variable. Row c is the m-bit set of c's neighbours, grown
  // as edges are added, so a BFS level is a word-parallel union of rows.
  // Its levels are exactly those of a BFS over the variable/check graph.
  const std::size_t words = (m + 63) / 64;
  std::vector<std::uint64_t> rows(m * words, 0);
  const auto row = [&](std::uint32_t c) { return rows.data() + c * words; };
  const auto bit = [](std::uint32_t c) { return std::uint64_t{1} << (c % 64); };
  // Calls f(c) for each check c in an m-bit set, in ascending order.
  const auto for_each_check = [words](const std::vector<std::uint64_t>& set,
                                      auto&& f) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<std::uint32_t>(64 * w + std::countr_zero(bits)));
      }
    }
  };
  std::vector<std::uint64_t> all(words, ~std::uint64_t{0});
  if (m % 64 != 0) all.back() = bit(static_cast<std::uint32_t>(m)) - 1;
  std::vector<std::uint64_t> unreached(words);
  std::vector<std::uint64_t> layer(words);
  std::vector<std::uint64_t> next(words);
  std::vector<std::uint32_t> v_checks;  // the current variable's checks

  // Candidate selection: among the `eligible` checks, lowest current degree
  // wins, ties broken uniformly at random. Ascending check order fixes
  // which rng draw each tie consumes.
  auto pick_min_degree =
      [&](const std::vector<std::uint64_t>& eligible) -> std::uint32_t {
    std::uint32_t best_degree = ~0u;
    std::uint32_t reservoir = 0;
    std::uint32_t count = 0;
    for_each_check(eligible, [&](std::uint32_t c) {
      if (check_degree[c] < best_degree) {
        best_degree = check_degree[c];
        reservoir = c;
        count = 1;
      } else if (check_degree[c] == best_degree) {
        ++count;
        if (rng.uniform(count) == 0) reservoir = c;
      }
    });
    QKDPP_REQUIRE(count > 0, "PEG found no eligible check");
    return reservoir;
  };

  for (std::uint32_t v = 0; v < n; ++v) {
    v_checks.clear();
    for (unsigned k = 0; k < degree_of[v]; ++k) {
      std::uint32_t chosen;
      if (k == 0) {
        chosen = pick_min_degree(all);
      } else {
        // BFS from v: level 1 is v's checks; stop when a level adds nothing
        // or every check is reached.
        std::fill(layer.begin(), layer.end(), 0);
        for (const std::uint32_t c : v_checks) layer[c / 64] |= bit(c);
        for (std::size_t i = 0; i < words; ++i) {
          unreached[i] = all[i] & ~layer[i];
        }
        std::size_t layer_size = v_checks.size();
        std::size_t reached = layer_size;
        while (reached < m) {
          std::fill(next.begin(), next.end(), 0);
          if (layer_size <= m - reached) {
            for_each_check(layer, [&](std::uint32_t c) {
              const std::uint64_t* r = row(c);
              for (std::size_t i = 0; i < words; ++i) next[i] |= r[i];
            });
            for (std::size_t i = 0; i < words; ++i) next[i] &= unreached[i];
          } else {
            // Fewer checks left than in the layer: test each unreached
            // check's row against the layer instead.
            for_each_check(unreached, [&](std::uint32_t c) {
              const std::uint64_t* r = row(c);
              for (std::size_t i = 0; i < words; ++i) {
                if ((r[i] & layer[i]) != 0) {
                  next[c / 64] |= bit(c);
                  return;
                }
              }
            });
          }
          std::size_t added = 0;
          for (std::size_t i = 0; i < words; ++i) {
            added += static_cast<std::size_t>(std::popcount(next[i]));
            unreached[i] &= ~next[i];
          }
          if (added == 0) break;
          reached += added;
          layer.swap(next);
          layer_size = added;
        }
        // Connect outside the reachable set while there is one: no cycle
        // runs through the new edge yet, which maximizes its local girth.
        // Once the whole graph is reachable, take the most distant level.
        chosen = pick_min_degree(reached < m ? unreached : layer);
      }
      for (const std::uint32_t c : v_checks) {
        row(c)[chosen / 64] |= bit(chosen);
        row(chosen)[c / 64] |= bit(c);
      }
      v_checks.push_back(chosen);
      check_adj[chosen].push_back(v);
      ++check_degree[chosen];
    }
  }

  // Pack into CSR form.
  LdpcCode code;
  code.n_ = n;
  code.m_ = m;
  code.check_offset_.resize(m + 1, 0);
  for (std::size_t c = 0; c < m; ++c) {
    code.check_offset_[c + 1] =
        code.check_offset_[c] + static_cast<std::uint32_t>(check_adj[c].size());
  }
  code.edge_var_.resize(code.check_offset_[m]);
  for (std::size_t c = 0; c < m; ++c) {
    std::copy(check_adj[c].begin(), check_adj[c].end(),
              code.edge_var_.begin() + code.check_offset_[c]);
  }
  code.var_offset_.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    code.var_offset_[v + 1] = code.var_offset_[v] + degree_of[v];
  }
  code.var_check_.resize(code.edge_var_.size());
  code.var_edge_.resize(code.edge_var_.size());
  {
    std::vector<std::uint32_t> cursor(n, 0);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::uint32_t e = code.check_offset_[c];
           e < code.check_offset_[c + 1]; ++e) {
        const std::uint32_t v = code.edge_var_[e];
        const std::uint32_t slot = code.var_offset_[v] + cursor[v]++;
        code.var_check_[slot] = static_cast<std::uint32_t>(c);
        code.var_edge_[slot] = e;
      }
    }
  }
  return code;
}

LdpcCode LdpcCode::quasi_cyclic(std::size_t lifting, unsigned check_degree,
                                std::uint64_t seed) {
  QKDPP_REQUIRE(lifting >= 8, "lifting factor too small");
  QKDPP_REQUIRE(check_degree >= 4, "check degree too small");
  constexpr unsigned kVarDegree = 3;
  const std::size_t n = check_degree * lifting;
  const std::size_t m = kVarDegree * lifting;

  // Draw circulant shifts column by column, rejecting columns that create a
  // 4-cycle: for rows i1 != i2 and columns j1 != j2 the condition is
  //   s[i1][j1] - s[i2][j1] + s[i2][j2] - s[i1][j2] != 0 (mod L).
  Xoshiro256 rng(seed ^ 0x9c0de11f7ULL);
  std::vector<std::array<std::int64_t, kVarDegree>> shifts;
  shifts.reserve(check_degree);
  const auto lift = static_cast<std::int64_t>(lifting);
  for (unsigned j = 0; j < check_degree; ++j) {
    std::array<std::int64_t, kVarDegree> column{};
    bool accepted = false;
    for (int attempt = 0; attempt < 400 && !accepted; ++attempt) {
      for (auto& s : column) {
        s = static_cast<std::int64_t>(rng.uniform(lifting));
      }
      accepted = true;
      for (const auto& other : shifts) {
        for (unsigned i1 = 0; i1 < kVarDegree && accepted; ++i1) {
          for (unsigned i2 = i1 + 1; i2 < kVarDegree; ++i2) {
            const std::int64_t delta =
                ((column[i1] - column[i2]) - (other[i1] - other[i2])) % lift;
            if (delta == 0) {
              accepted = false;
              break;
            }
          }
        }
        if (!accepted) break;
      }
    }
    // After 400 draws accept regardless (only possible for tiny liftings;
    // a rare 4-cycle degrades the decoder marginally, never correctness).
    shifts.push_back(column);
  }

  LdpcCode code;
  code.n_ = n;
  code.m_ = m;
  code.check_offset_.resize(m + 1);
  for (std::size_t c = 0; c <= m; ++c) {
    code.check_offset_[c] = static_cast<std::uint32_t>(c * check_degree);
  }
  code.edge_var_.resize(m * check_degree);
  // Check c = i*L + r connects to variable j*L + ((r - s[i][j]) mod L).
  for (unsigned i = 0; i < kVarDegree; ++i) {
    for (std::size_t r = 0; r < lifting; ++r) {
      const std::size_t c = i * lifting + r;
      for (unsigned j = 0; j < check_degree; ++j) {
        const std::int64_t k =
            (static_cast<std::int64_t>(r) - shifts[j][i] % lift + lift) % lift;
        code.edge_var_[code.check_offset_[c] + j] = static_cast<std::uint32_t>(
            j * lifting + static_cast<std::size_t>(k));
      }
    }
  }
  // Var-major view.
  code.var_offset_.resize(n + 1);
  for (std::size_t v = 0; v <= n; ++v) {
    code.var_offset_[v] = static_cast<std::uint32_t>(v * kVarDegree);
  }
  code.var_check_.resize(n * kVarDegree);
  code.var_edge_.resize(n * kVarDegree);
  {
    std::vector<std::uint32_t> cursor(n, 0);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::uint32_t e = code.check_offset_[c];
           e < code.check_offset_[c + 1]; ++e) {
        const std::uint32_t v = code.edge_var_[e];
        const std::uint32_t slot = code.var_offset_[v] + cursor[v]++;
        code.var_check_[slot] = static_cast<std::uint32_t>(c);
        code.var_edge_[slot] = e;
      }
    }
  }
  return code;
}

BitVec LdpcCode::syndrome(const BitVec& x) const {
  QKDPP_REQUIRE(x.size() == n_, "syndrome input length mismatch");
  BitVec s(m_);
  const std::span<const std::uint64_t> in = x.words();
  const std::span<std::uint64_t> out = s.mutable_words();
  for (std::size_t c = 0; c < m_; ++c) {
    std::uint64_t parity = 0;
    for (const std::uint32_t v : check_vars(c)) {
      parity ^= in[v >> 6] >> (v & 63);
    }
    out[c >> 6] |= (parity & 1) << (c & 63);
  }
  return s;
}

bool LdpcCode::syndrome_matches(const BitVec& x, const BitVec& s) const {
  QKDPP_REQUIRE(x.size() == n_ && s.size() == m_,
                "syndrome_matches shape mismatch");
  for (std::size_t c = 0; c < m_; ++c) {
    bool parity = false;
    for (const std::uint32_t v : check_vars(c)) parity ^= x.get(v);
    if (parity != s.get(c)) return false;
  }
  return true;
}

void LdpcCode::validate() const {
  if (check_offset_.size() != m_ + 1 || var_offset_.size() != n_ + 1) {
    throw std::logic_error("LdpcCode: offset table size mismatch");
  }
  if (var_check_.size() != edge_var_.size() ||
      var_edge_.size() != edge_var_.size()) {
    throw std::logic_error("LdpcCode: edge view size mismatch");
  }
  for (std::size_t c = 0; c < m_; ++c) {
    const auto vars = check_vars(c);
    std::set<std::uint32_t> unique(vars.begin(), vars.end());
    if (unique.size() != vars.size()) {
      throw std::logic_error("LdpcCode: duplicate edge at check " +
                             std::to_string(c));
    }
    for (const auto v : vars) {
      if (v >= n_) throw std::logic_error("LdpcCode: variable out of range");
    }
  }
  // Var-major view must agree with check-major edges.
  for (std::size_t v = 0; v < n_; ++v) {
    const auto checks = var_checks(v);
    const auto edges = var_edges(v);
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (edge_var_[edges[i]] != v) {
        throw std::logic_error("LdpcCode: edge view inconsistent");
      }
      const std::uint32_t c = checks[i];
      if (!(edges[i] >= check_offset_[c] && edges[i] < check_offset_[c + 1])) {
        throw std::logic_error("LdpcCode: edge not within its check range");
      }
    }
  }
}

bool LdpcCode::has_four_cycle() const {
  // A 4-cycle is two checks sharing two variables: some check pair occurs
  // under two different variables.
  std::vector<std::uint64_t> pairs;
  for (std::size_t v = 0; v < n_; ++v) {
    const auto checks = var_checks(v);
    for (std::size_t i = 0; i < checks.size(); ++i) {
      for (std::size_t j = i + 1; j < checks.size(); ++j) {
        const std::uint64_t a = std::min(checks[i], checks[j]);
        const std::uint64_t b = std::max(checks[i], checks[j]);
        pairs.push_back((a << 32) | b);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return std::adjacent_find(pairs.begin(), pairs.end()) != pairs.end();
}

namespace {

constexpr CodeSpec kCodeTable[] = {
    // id, n, dc, rate = 1 - 3/dc
    {0, 1024, 6, 0.5},     {1, 1024, 10, 0.7},    {2, 1024, 15, 0.8},
    {3, 4096, 6, 0.5},     {4, 4096, 8, 0.625},   {5, 4096, 10, 0.7},
    {6, 4096, 12, 0.75},   {7, 4096, 15, 0.8},    {8, 4096, 20, 0.85},
    {9, 16384, 6, 0.5},    {10, 16384, 8, 0.625}, {11, 16384, 10, 0.7},
    {12, 16384, 12, 0.75}, {13, 16384, 15, 0.8},  {14, 16384, 20, 0.85},
    {15, 16384, 30, 0.9},  {16, 65536, 6, 0.5},   {17, 65536, 10, 0.7},
    {18, 65536, 15, 0.8},  {19, 65536, 20, 0.85},
};

Mutex g_code_cache_mutex{LockRank::kCodeCache, "ldpc.code_cache"};
std::map<std::uint32_t, std::unique_ptr<LdpcCode>> g_code_cache
    QKD_GUARDED_BY(g_code_cache_mutex);

}  // namespace

std::span<const CodeSpec> code_table() noexcept { return kCodeTable; }

const LdpcCode& code_by_id(std::uint32_t id) {
  {
    MutexLock lock(g_code_cache_mutex);
    const auto it = g_code_cache.find(id);
    if (it != g_code_cache.end()) return *it->second;
  }
  const CodeSpec* spec = nullptr;
  for (const auto& s : kCodeTable) {
    if (s.id == id) {
      spec = &s;
      break;
    }
  }
  if (spec == nullptr) {
    throw_error(ErrorCode::kConfig, "unknown LDPC code id " + std::to_string(id));
  }
  // Build outside the lock (a PEG table code takes up to ~0.2 s in
  // Release); a racing duplicate build is wasted work but harmless. Large blocks use
  // the O(edges) quasi-cyclic construction (n may differ from the nominal
  // spec by < dc bits to keep the lifting integral).
  std::unique_ptr<LdpcCode> code;
  if (spec->n >= 16384) {
    const std::size_t lifting = spec->n / spec->check_degree;
    code = std::make_unique<LdpcCode>(LdpcCode::quasi_cyclic(
        lifting, spec->check_degree, /*seed=*/0x9d5c0e5b0f00dULL + id));
  } else {
    const std::size_t m = spec->n * 3 / spec->check_degree;
    code = std::make_unique<LdpcCode>(
        LdpcCode::peg(spec->n, m, DegreeProfile::regular(3),
                      /*seed=*/0x9d5c0e5b0f00dULL + id));
  }
  MutexLock lock(g_code_cache_mutex);
  auto [it, inserted] = g_code_cache.emplace(id, std::move(code));
  return *it->second;
}

double finite_length_penalty(std::size_t n) noexcept {
  // Finite-length scaling gap: short regular codes need extra rate margin
  // or their frame error rate explodes at the nominal operating point.
  // The 14/sqrt(n) coefficient is calibrated against measured frame error
  // rates (notably: (3,20) at n=4096 still fails ~20% of frames at
  // f_target 1.45, so q ~ 1.1% must select rate 0.8, not 0.85).
  return 1.0 + 14.0 / std::sqrt(static_cast<double>(n));
}

}  // namespace qkdpp::reconcile
