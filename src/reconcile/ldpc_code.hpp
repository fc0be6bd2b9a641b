// LDPC code structure + Progressive-Edge-Growth construction.
//
// QKD reconciliation uses LDPC codes in *syndrome* (Slepian-Wolf) mode: no
// encoder is needed, only H. Codes are built from scratch with PEG
// (Hu/Eleftheriou/Arnold), which maximizes local girth greedily and yields
// reliable regular codes at every rate we need. Construction is
// deterministic given (n, profile, seed), so Alice and Bob can derive the
// same code from a code id without shipping matrices.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.hpp"

namespace qkdpp::reconcile {

/// Variable-degree profile. Regular codes have one entry {degree, 1.0}.
/// Fractions are node-based and must sum to 1.
struct DegreeProfile {
  struct Entry {
    unsigned degree;
    double fraction;
  };
  std::vector<Entry> entries;

  static DegreeProfile regular(unsigned degree) {
    return DegreeProfile{{{degree, 1.0}}};
  }
};

/// Sparse parity-check matrix in dual adjacency (check->vars, var->checks).
class LdpcCode {
 public:
  /// PEG construction: `n` variables, `m` checks, variable degrees from
  /// `profile`, deterministic for a given `seed`. Best girth properties.
  /// Each edge's breadth-first search runs over m-bit check-graph rows
  /// (m^2 / 8 bytes of scratch): the n = 4096 table codes build in
  /// 0.03-0.2 s each in Release on a 4-vCPU Xeon. The table uses it up to
  /// n = 4096.
  static LdpcCode peg(std::size_t n, std::size_t m,
                      const DegreeProfile& profile, std::uint64_t seed);

  /// Quasi-cyclic construction: (3, check_degree)-regular from a 3 x dc
  /// base matrix of circulant shifts with the 4-cycle condition enforced.
  /// n = check_degree * lifting, m = 3 * lifting. O(edges) build time and
  /// the structure real accelerator decoders exploit; used for the large
  /// block lengths in the code table.
  static LdpcCode quasi_cyclic(std::size_t lifting, unsigned check_degree,
                               std::uint64_t seed);

  std::size_t n() const noexcept { return n_; }               ///< variables
  std::size_t m() const noexcept { return m_; }               ///< checks
  std::size_t edges() const noexcept { return edge_var_.size(); }
  double rate() const noexcept {
    return 1.0 - static_cast<double>(m_) / static_cast<double>(n_);
  }

  /// Check c's variable neighbours.
  std::span<const std::uint32_t> check_vars(std::size_t c) const noexcept {
    return {edge_var_.data() + check_offset_[c],
            check_offset_[c + 1] - check_offset_[c]};
  }
  /// Variable v's check neighbours.
  std::span<const std::uint32_t> var_checks(std::size_t v) const noexcept {
    return {var_check_.data() + var_offset_[v],
            var_offset_[v + 1] - var_offset_[v]};
  }
  /// Edge ids (indices into the check-major edge order) for variable v,
  /// aligned with var_checks(v).
  std::span<const std::uint32_t> var_edges(std::size_t v) const noexcept {
    return {var_edge_.data() + var_offset_[v],
            var_offset_[v + 1] - var_offset_[v]};
  }
  /// Offset of check c's first edge in check-major edge order.
  std::uint32_t check_edge_begin(std::size_t c) const noexcept {
    return check_offset_[c];
  }

  /// Syndrome s = H x (x has n bits, s has m bits).
  BitVec syndrome(const BitVec& x) const;

  /// True iff H x == s.
  bool syndrome_matches(const BitVec& x, const BitVec& s) const;

  /// Structural self-check: no duplicate edges, degrees consistent.
  /// Throws std::logic_error on violation (used by tests and at
  /// construction time in debug).
  void validate() const;

  /// True iff two checks share two variables (a length-4 cycle in the
  /// Tanner graph). PEG and the quasi-cyclic lifting avoid these whenever
  /// the degrees permit.
  bool has_four_cycle() const;

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  // Check-major CSR: edge e connects check (via offsets) to edge_var_[e].
  std::vector<std::uint32_t> check_offset_;  // m+1
  std::vector<std::uint32_t> edge_var_;      // edges
  // Var-major view with alignment to edge ids.
  std::vector<std::uint32_t> var_offset_;  // n+1
  std::vector<std::uint32_t> var_check_;   // edges
  std::vector<std::uint32_t> var_edge_;    // edges
};

/// Registry of mother codes used by the protocol: code ids are stable wire
/// values; both peers reconstruct the same code deterministically. All are
/// variable-degree-3 regular PEG codes; rate = 1 - 3/dc.
struct CodeSpec {
  std::uint32_t id;
  std::size_t n;
  unsigned check_degree;  ///< dc, so m = 3n/dc
  double rate;            ///< 1 - 3/dc
};

/// The built-in code table (rates 0.5 .. 0.9 at several block lengths).
std::span<const CodeSpec> code_table() noexcept;

/// Get (and lazily build + memoize) the code for a table id.
/// Throws Error{kConfig} for unknown ids.
const LdpcCode& code_by_id(std::uint32_t id);

/// Extra rate margin required by short codes (finite-length scaling gap);
/// multiplies f_target during code selection.
double finite_length_penalty(std::size_t n) noexcept;

}  // namespace qkdpp::reconcile
