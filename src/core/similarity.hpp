#pragma once
// Interest profiles and interest similarity Omega_s — Eq. (7) and the
// hardened, request-weighted Eq. (11).
//
//     Omega_s(i,j) = |Vi ∩ Vj| / min(|Vi|, |Vj|)               (Eq. 7)
//     Omega_s(i,j) = sum_l ws(i,l) * ws(j,l) / min(|Vi|, |Vj|) (Eq. 11)
// where ws(i,l) is the share of node i's resource requests that fall in
// category l. Per Section 4.4, falsifying the *declared* profile does not
// fool Eq. (11): requests on a deleted interest still reveal it, and a
// declared interest with no requests contributes nothing. We therefore
// evaluate Eq. (11) over the *effective* interest set — declared interests
// plus any category the node actually requested from.
//
// Storage layout (DESIGN.md §15, docs/ARCHITECTURE.md). Declared sets
// live in a flat CSR array (offsets + sorted interest ids) with the same
// copy-on-write delta overlay scheme as graph::SocialGraph: the first
// set-resizing mutation of a node copies its row into a private sorted
// overlay row, and a deterministic compaction (threshold-triggered, or
// explicit at begin_interval()) folds the overlay back into fresh flat
// arrays. The request histogram is one dense node-major matrix
// (node_count x category_count doubles) — record_request is a single
// indexed store, and every similarity pass reads two contiguous rows.
// Rebuilds are representation-only: no accessor result and no revision
// counter changes.

#include <cstdint>
#include <span>
#include <vector>

#include "reputation/rating.hpp"

namespace st::core {

using reputation::InterestId;
using reputation::NodeId;

class InterestProfiles {
 public:
  /// Monotone change counter, mirroring graph::SocialGraph::Revision:
  /// bumps exactly when a node's declared set or request histogram actually
  /// changes, so similarity values witnessed against the revisions of both
  /// endpoints can be reused verbatim while those revisions hold.
  using Revision = std::uint64_t;

  /// `node_count` peers over `category_count` product/resource categories.
  InterestProfiles(std::size_t node_count, std::size_t category_count);

  std::size_t node_count() const noexcept { return node_count_; }
  std::size_t category_count() const noexcept { return categories_; }

  /// Replaces the declared interest set of `node` (the profile a user
  /// fills out). Duplicate/out-of-range categories are dropped.
  void set_interests(NodeId node, std::span<const InterestId> interests);

  void add_interest(NodeId node, InterestId interest);
  void remove_interest(NodeId node, InterestId interest);

  /// Declared interests, ascending. Invalidated by any mutating method
  /// (a mutation may trigger a compaction that moves every row — same
  /// span-stability contract as SocialGraph::neighbors()).
  std::span<const InterestId> declared(NodeId node) const;

  /// Records `count` resource requests by `node` in `category` — the
  /// behavioural signal Eq. (11) weighs.
  void record_request(NodeId node, InterestId category, double count = 1.0);

  /// ws(node, category): share of the node's requests in that category
  /// (0 when the node made no requests).
  double request_weight(NodeId node, InterestId category) const;

  double total_requests(NodeId node) const;

  /// Effective interest set: declared ∪ requested-from categories.
  std::vector<InterestId> effective(NodeId node) const;

  /// Erases the node's request history (whitewashing support; the
  /// declared profile is left for the caller to re-declare).
  void clear_requests(NodeId node);

  /// Eq. (7) over declared sets. Returns 0 when either set is empty.
  double similarity(NodeId a, NodeId b) const;

  /// Behaviour-weighted similarity over effective interest sets, as a
  /// histogram intersection: sum_l min(ws(a,l), ws(b,l)). In [0, 1]; 1 for
  /// identical request distributions, 0 for disjoint ones. This keeps the
  /// falsification resistance Section 4.4 wants from Eq. (11) — declared
  /// interests with no requests contribute nothing, deleted interests with
  /// requests still count — while staying scale-comparable with Eq. (7)
  /// (the literal Eq. (11), available below, self-normalises to near zero
  /// even for identical twins: sum_l ws^2 / min(|V|) <= 1/|V|^2, so "low
  /// similarity" ceases to be an anomaly signal).
  double weighted_similarity(NodeId a, NodeId b) const;

  /// The literal Eq. (11): sum_l ws(a,l)*ws(b,l) / min(|Va|, |Vb|) over
  /// common effective interests. Kept for the ablation bench and tests.
  double weighted_similarity_eq11(NodeId a, NodeId b) const;

  /// Revision of `node`'s profile state (declared interests + request
  /// histogram). Every similarity variant between a and b is a pure
  /// function of the states witnessed by revision(a) and revision(b).
  Revision revision(NodeId node) const noexcept {
    return node < revisions_.size() ? revisions_[node] : 0;
  }

  /// Global epoch: bumps whenever any profile changes.
  Revision epoch() const noexcept { return epoch_; }

  /// Interval hook: compacts any pending declared-set overlay into fresh
  /// flat CSR arrays. Representation-only; invalidates outstanding
  /// declared() spans. Called by the Simulator alongside
  /// SocialGraph::begin_interval().
  void begin_interval();

  /// Compactions performed so far (tests, bench, docs).
  std::uint64_t rebuild_count() const noexcept { return rebuilds_; }

  /// Overlay entries + materialised overlay rows — what the rebuild
  /// threshold watches.
  std::size_t delta_mass() const noexcept {
    return overlay_entries_ + overlay_live_;
  }

  /// Same rebuild-threshold scheme as SocialGraph (see its doc comment).
  static constexpr std::size_t kRebuildMinDelta = 256;
  static constexpr std::size_t kRebuildFraction = 4;

 private:
  friend class SimilarityTable;  // reads rows and request counts to build

  static constexpr std::uint32_t kNoOverlay = 0xFFFFFFFFU;

  struct Row {
    const InterestId* ids = nullptr;
    std::size_t size = 0;
  };
  Row row(NodeId node) const noexcept;

  /// Copies node's CSR row into a fresh overlay row and routes the node
  /// there. No-op if already routed.
  std::vector<InterestId>& materialize(NodeId node);

  void maybe_rebuild() {
    const std::size_t mass = delta_mass();
    if (mass >= kRebuildMinDelta &&
        mass * kRebuildFraction >= ids_.size() + node_count_) {
      rebuild();
    }
  }
  void rebuild();

  void check_node(NodeId node) const;
  void bump(NodeId node);

  std::size_t node_count_;
  std::size_t categories_;

  // Declared-set CSR: node's row is ids_[offsets_[node] ..
  // offsets_[node+1]), sorted ascending; overlay as in SocialGraph.
  std::vector<std::uint64_t> offsets_;
  std::vector<InterestId> ids_;
  std::vector<std::uint32_t> overlay_slot_;
  std::vector<std::vector<InterestId>> overlay_;
  std::size_t overlay_entries_ = 0;
  std::size_t overlay_live_ = 0;

  // Request histogram: one dense node-major matrix,
  // request_counts_[node * categories_ + category].
  std::vector<double> request_counts_;
  std::vector<double> request_totals_;

  std::vector<Revision> revisions_;
  Revision epoch_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Allocation-free weighted_similarity() for intervals that recompute
/// most pairs (the plugin's dense path, DESIGN.md §14). build() snapshots
/// every node's effective interest set as a bitmask and its request
/// weights ws(node, c), so a pair costs a walk over the set bits of
/// mask(a) & mask(b): exactly the categories the effective-set merge
/// visits, in the same ascending order, adding the same
/// min(ws(a,c), ws(b,c)) terms — bit-identical to weighted_similarity().
/// A built table is a snapshot: valid until the profiles' next mutation.
class SimilarityTable {
 public:
  /// Largest category count a bitmask covers; build() declines above it.
  static constexpr std::size_t kMaxCategories = 64;

  /// Snapshots `profiles`; returns false (table unusable) when they have
  /// more than kMaxCategories categories.
  bool build(const InterestProfiles& profiles);

  /// weighted_similarity(a, b) over the snapshot.
  double weighted_similarity(NodeId a, NodeId b) const noexcept;

 private:
  std::size_t categories_ = 0;
  std::vector<std::uint64_t> masks_;  ///< effective set of each node
  std::vector<double> weights_;       ///< ws(node, c), node-major
};

}  // namespace st::core
