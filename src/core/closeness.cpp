#include "core/closeness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

namespace st::core {

ClosenessModel::ClosenessModel(bool weighted, double lambda,
                               RelationshipWeightFn weight_fn)
    : weighted_(weighted),
      lambda_(lambda),
      weight_fn_(weight_fn ? std::move(weight_fn)
                           : RelationshipWeightFn(
                                 graph::default_relationship_weight)) {
  // Tabulate the mass of every possible relationship-type set up front
  // (the weight_fn is evaluated here, once per type per mask, instead of
  // lazily per edge — it must be a pure weight mapping, per the class
  // contract). relationship_mass then reduces to one table read.
  for (std::size_t mask = 0; mask < (1U << graph::kRelationshipCount);
       ++mask) {
    mass_table_[mask] = mass_of_mask(static_cast<std::uint8_t>(mask));
  }
}

double ClosenessModel::mass_of_mask(std::uint8_t mask) const {
  if (!weighted_) {
    return static_cast<double>(std::popcount(mask));
  }
  // Eq. (10): sort relationship weights descending, decay the l-th by
  // lambda^(l-1), sum. Adding many weak relationships therefore changes
  // the mass only marginally.
  std::vector<double> weights;
  for (std::size_t i = 0; i < graph::kRelationshipCount; ++i) {
    if (mask & (1U << i)) {
      weights.push_back(weight_fn_(static_cast<graph::Relationship>(i)));
    }
  }
  std::sort(weights.begin(), weights.end(), std::greater<>());
  double mass = 0.0;
  double decay = 1.0;
  for (double w : weights) {
    mass += decay * w;
    decay *= lambda_;
  }
  return mass;
}

double ClosenessModel::relationship_mass(const graph::SocialGraph& g,
                                         graph::NodeId i,
                                         graph::NodeId j) const {
  return mass_table_[g.relationship_mask(i, j)];
}

double ClosenessModel::adjacent_closeness(const graph::SocialGraph& g,
                                          graph::NodeId i,
                                          graph::NodeId j) const {
  // One probe of i's sorted CSR row answers both "adjacent?" (mask != 0)
  // and "which types?" — the pre-CSR version paid a separate adjacency
  // search before fetching the mask.
  const std::uint8_t mask = g.relationship_mask(i, j);
  if (mask == 0) return 0.0;
  const double total = g.total_interactions(i);
  if (total <= 0.0) return 0.0;
  return mass_table_[mask] * g.interaction(i, j) / total;
}

double ClosenessModel::fof_closeness(
    const graph::SocialGraph& g, graph::NodeId i, graph::NodeId j,
    std::span<const graph::NodeId> common) const {
  // Eq. (3): friend-of-friend average over common friends, summed in the
  // ascending order common_friends() returns — the accumulation order is
  // part of the bit-identity contract.
  double sum = 0.0;
  for (graph::NodeId k : common) {
    sum += (adjacent_closeness(g, i, k) + adjacent_closeness(g, k, j)) / 2.0;
  }
  return sum;
}

double ClosenessModel::bottleneck_closeness(
    const graph::SocialGraph& g, std::span<const graph::NodeId> path) const {
  // Eq. (4): bottleneck (minimum) adjacent closeness along one shortest
  // social path.
  if (path.size() < 2) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    bottleneck =
        std::min(bottleneck, adjacent_closeness(g, path[step], path[step + 1]));
  }
  return std::isfinite(bottleneck) ? bottleneck : 0.0;
}

double ClosenessModel::closeness(const graph::SocialGraph& g,
                                 graph::NodeId i, graph::NodeId j,
                                 std::size_t max_hops) const {
  if (i == j) return 0.0;  // self-closeness is meaningless for rating pairs
  // Adjacent fast path inlined so the pair costs one CSR row probe for
  // adjacency + mask together (plus the interaction lookup), instead of
  // a separate adjacent() search before adjacent_closeness() re-probes.
  const std::uint8_t mask = g.relationship_mask(i, j);
  if (mask != 0) {
    const double total = g.total_interactions(i);
    if (total <= 0.0) return 0.0;
    return mass_table_[mask] * g.interaction(i, j) / total;
  }

  std::vector<graph::NodeId> common = g.common_friends(i, j);
  if (!common.empty()) return fof_closeness(g, i, j, common);

  auto path = g.shortest_path(i, j, max_hops);
  if (!path) return 0.0;
  return bottleneck_closeness(g, *path);
}

// --- ClosenessTable -----------------------------------------------------------

void ClosenessTable::build(const ClosenessModel& model,
                           const graph::SocialGraph& g) {
  const std::size_t n = g.size();
  offsets_.resize(n + 1);
  std::uint64_t half_edges = 0;
  for (std::size_t a = 0; a < n; ++a) {
    offsets_[a] = half_edges;
    half_edges += g.degree(static_cast<graph::NodeId>(a));
  }
  offsets_[n] = half_edges;
  out_.resize(half_edges);
  in_.resize(half_edges);
  for (std::size_t a = 0; a < n; ++a) {
    const auto node = static_cast<graph::NodeId>(a);
    const std::span<const graph::NodeId> targets = g.neighbors(node);
    const std::span<const std::uint8_t> masks = g.relationship_masks(node);
    const graph::SocialGraph::InteractionRow row = g.interactions(node);
    const double total = g.total_interactions(node);
    double* out = out_.data() + offsets_[a];
    // Both rows are sorted by target, so f(a, b) for every neighbour b
    // falls out of one merge; absent targets read as 0, as interaction().
    std::size_t p = 0;
    for (std::size_t k = 0; k < targets.size(); ++k) {
      if (total <= 0.0) {
        out[k] = 0.0;
        continue;
      }
      while (p < row.targets.size() && row.targets[p] < targets[k]) ++p;
      const double f = p < row.targets.size() && row.targets[p] == targets[k]
                           ? row.counts[p]
                           : 0.0;
      out[k] = model.mask_mass(masks[k]) * f / total;
    }
  }
  // Transpose: adjacency is symmetric and every row sorted, so walking
  // nodes a ascending visits b's row in order — a's entry in b's row is
  // always the next one cursor_[b] has not handed out.
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t a = 0; a < n; ++a) {
    const std::span<const graph::NodeId> targets =
        g.neighbors(static_cast<graph::NodeId>(a));
    double* in = in_.data() + offsets_[a];
    for (std::size_t k = 0; k < targets.size(); ++k) {
      in[k] = out_[cursor_[targets[k]]++];
    }
  }
}

bool ClosenessTable::fof(const graph::SocialGraph& g, graph::NodeId i,
                         graph::NodeId j, double& out) const noexcept {
  const std::span<const graph::NodeId> ri = g.neighbors(i);
  const std::span<const graph::NodeId> rj = g.neighbors(j);
  const double* out_i = out_.data() + offsets_[i];
  const double* in_j = in_.data() + offsets_[j];
  double sum = 0.0;
  bool any = false;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < ri.size() && b < rj.size()) {
    if (ri[a] < rj[b]) {
      ++a;
    } else if (rj[b] < ri[a]) {
      ++b;
    } else {
      // Same exclusion as SocialGraph::common_friends(); out_i[a] is
      // Omega_c(i, k) and in_j[b] is Omega_c(k, j).
      if (ri[a] != i && ri[a] != j) {
        sum += (out_i[a] + in_j[b]) / 2.0;
        any = true;
      }
      ++a;
      ++b;
    }
  }
  if (!any) return false;
  out = sum;
  return true;
}

double ClosenessTable::bottleneck(
    const graph::SocialGraph& g,
    std::span<const graph::NodeId> path) const noexcept {
  if (path.size() < 2) return 0.0;
  double bottleneck = std::numeric_limits<double>::infinity();
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    const std::span<const graph::NodeId> row = g.neighbors(path[step]);
    const auto it = std::lower_bound(row.begin(), row.end(), path[step + 1]);
    const double value =
        it != row.end() && *it == path[step + 1]
            ? out_[offsets_[path[step]] +
                   static_cast<std::size_t>(it - row.begin())]
            : 0.0;
    bottleneck = std::min(bottleneck, value);
  }
  return std::isfinite(bottleneck) ? bottleneck : 0.0;
}

}  // namespace st::core
