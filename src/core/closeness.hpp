#pragma once
// Social closeness Omega_c — Eqs. (2), (3), (4) and the hardened Eq. (10).
//
// For adjacent nodes:
//     Omega_c(i,j) = m(i,j) * f(i,j) / sum_k f(i,k)            (Eq. 2)
// or, with typed relationship weights sorted descending and decayed by
// lambda^(l-1):
//     Omega_c(i,j) = (sum_l lambda^(l-1) w_dl) * f(i,j) / sum_k f(i,k)
//                                                              (Eq. 10)
// For non-adjacent nodes with common friends k:
//     Omega_c(i,j) = sum_k (Omega_c(i,k) + Omega_c(k,j)) / 2   (Eq. 3)
// For non-adjacent nodes without common friends: the minimum adjacent
// closeness along one shortest social path (bottleneck closeness, Eq. 4).
// Unreachable pairs have closeness 0.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "graph/social_graph.hpp"

namespace st::core {

/// Computes Omega_c over a SocialGraph. Stateless beyond its configuration;
/// all social data lives in the graph.
///
/// Thread safety: every method is a pure read of the model's immutable
/// configuration and of the (caller-owned) graph, so concurrent closeness()
/// calls are safe as long as nobody mutates the graph underneath them —
/// the contract the parallel update interval relies on. The weight_fn must
/// itself be safe to invoke concurrently (the default is).
class ClosenessModel {
 public:
  using RelationshipWeightFn = std::function<double(graph::Relationship)>;

  /// `weighted` selects Eq. (10) vs Eq. (2) for the adjacent case;
  /// `lambda` is the relationship decay of Eq. (10); `weight_fn` maps
  /// relationship types to weights (defaults to
  /// graph::default_relationship_weight).
  explicit ClosenessModel(bool weighted = true, double lambda = 0.8,
                          RelationshipWeightFn weight_fn = {});

  /// Full Omega_c(i,j) with the non-adjacent fallbacks. `max_hops` caps
  /// the shortest-path search of the bottleneck case.
  double closeness(const graph::SocialGraph& g, graph::NodeId i,
                   graph::NodeId j, std::size_t max_hops = 6) const;

  /// Adjacent-only Omega_c (Eq. 2 / Eq. 10); 0 when not adjacent or when
  /// i has no recorded interactions.
  double adjacent_closeness(const graph::SocialGraph& g, graph::NodeId i,
                            graph::NodeId j) const;

  /// Eq. (3) given the common-friend set of (i, j): the friend-of-friend
  /// sum over `common`, exactly as the non-adjacent branch of closeness()
  /// evaluates it. Exposed so a caller holding a memoised common set (the
  /// incremental SocialStateCache) reproduces closeness() bit-for-bit.
  double fof_closeness(const graph::SocialGraph& g, graph::NodeId i,
                       graph::NodeId j,
                       std::span<const graph::NodeId> common) const;

  /// Eq. (4) given one shortest path i -> ... -> j (inclusive): the
  /// minimum adjacent closeness along its edges; 0 for paths shorter than
  /// one edge. Same bit-identity contract as fof_closeness().
  double bottleneck_closeness(const graph::SocialGraph& g,
                              std::span<const graph::NodeId> path) const;

  bool weighted() const noexcept { return weighted_; }
  double lambda() const noexcept { return lambda_; }

  /// Eq. (10)/(2) relationship mass of one type bitmask — the factor
  /// adjacent_closeness() multiplies f(i,j) / sum_k f(i,k) by.
  double mask_mass(std::uint8_t mask) const noexcept {
    return mass_table_[mask];
  }

 private:
  /// Eq. (10)'s decayed relationship-weight sum, or plain m(i,j) for the
  /// unweighted variant.
  double relationship_mass(const graph::SocialGraph& g, graph::NodeId i,
                           graph::NodeId j) const;

  /// Eq. (10)/(2) mass for one relationship bitmask (see
  /// SocialGraph::relationship_mask). Evaluated by the same sort-and-decay
  /// code for every mask at construction, then served from mass_table_ —
  /// adjacent_closeness sits in the innermost friend-of-friend loop, and
  /// the mass depends on nothing but the (at most 2^6-state) type set.
  double mass_of_mask(std::uint8_t mask) const;

  bool weighted_;
  double lambda_;
  RelationshipWeightFn weight_fn_;
  double mass_table_[1U << graph::kRelationshipCount];
};

/// Allocation-free Omega_c kernels for intervals that recompute most
/// pairs (the plugin's dense path, DESIGN.md §14). build() evaluates
/// Eq. 2/10 once per CSR half-edge with the exact expression of
/// ClosenessModel::adjacent_closeness, so each kernel reproduces the
/// matching ClosenessModel branch bit for bit while reading table
/// entries instead of re-probing adjacency and interaction rows. A
/// built table is a snapshot: valid until the graph's next mutation.
///
/// Thread safety: build() is single-threaded; the const kernels are pure
/// reads and may run concurrently.
class ClosenessTable {
 public:
  /// "j is not in i's neighbour row" for closeness()'s `adj_idx`.
  static constexpr std::size_t kNotAdjacent = static_cast<std::size_t>(-1);

  void build(const ClosenessModel& model, const graph::SocialGraph& g);

  /// Eq. 2/10 for the half-edge (i, neighbors(i)[idx]).
  double adjacent(graph::NodeId i, std::size_t idx) const noexcept {
    return out_[offsets_[i] + idx];
  }

  /// Eq. 3 for a non-adjacent pair: one merge of the two neighbour rows,
  /// summing over common friends in ascending order as fof_closeness()
  /// does. Returns false (leaving `out` alone) when there is none.
  bool fof(const graph::SocialGraph& g, graph::NodeId i, graph::NodeId j,
           double& out) const noexcept;

  /// Eq. 4 over `path` (inclusive), as bottleneck_closeness().
  double bottleneck(const graph::SocialGraph& g,
                    std::span<const graph::NodeId> path) const noexcept;

  /// Full Omega_c(i,j), branch for branch as ClosenessModel::closeness().
  /// `adj_idx` is j's index in neighbors(i) (kNotAdjacent otherwise);
  /// `path_of()` must return the lex-min shortest path i -> j (empty when
  /// unreachable) and is called only when the bottleneck branch is taken.
  template <class PathFn>
  double closeness(const graph::SocialGraph& g, graph::NodeId i,
                   graph::NodeId j, std::size_t adj_idx,
                   PathFn&& path_of) const {
    if (i == j) return 0.0;
    if (adj_idx != kNotAdjacent) return adjacent(i, adj_idx);
    double sum = 0.0;
    if (fof(g, i, j, sum)) return sum;
    return bottleneck(g, path_of());
  }

 private:
  std::vector<std::uint64_t> offsets_;  ///< row starts, as the CSR's
  std::vector<double> out_;  ///< Omega_c(a, b) of half-edge (a, b)
  std::vector<double> in_;   ///< Omega_c(b, a) of half-edge (a, b)
  std::vector<std::uint64_t> cursor_;  ///< build() scratch
};

}  // namespace st::core
