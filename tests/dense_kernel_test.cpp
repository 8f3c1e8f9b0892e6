// Dense-interval kernels vs the reference computations (DESIGN.md §14).
//
// The plugin's dense path computes every coefficient outside the value
// cache: Omega_c through ClosenessTable (a per-interval Eq. 2/10 table,
// a neighbour-row merge for Eq. 3, the structure layer's lex-min path for
// Eq. 4) and Omega_s through SimilarityTable (effective-interest
// bitmasks) or the allocation-free weighted_similarity().
// Both must reproduce the reference doubles bit for bit, or dense and
// sparse intervals would disagree. This suite checks every ordered pair
// of random graphs whose pairs cover all closeness branches — adjacent,
// friend-of-friend, bottleneck path, unreachable — including nodes with
// no interactions and whitewashed (cleared) nodes, and random profiles
// with declared-only, requested-only and cleared interests.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/closeness.hpp"
#include "core/similarity.hpp"
#include "core/social_state_cache.hpp"
#include "graph/generators.hpp"
#include "stats/rng.hpp"

namespace st {
namespace {

using core::ClosenessModel;
using core::ClosenessTable;
using core::InterestProfiles;
using graph::NodeId;
using graph::Relationship;
using graph::SocialGraph;

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ)";
}

/// Two sparse components (so cross pairs are unreachable) with typed
/// parallel edges, long chains (Eq. 4 paths without common friends),
/// skewed interactions, interaction-free nodes, and two whitewashed
/// nodes.
SocialGraph random_graph(std::uint64_t seed) {
  constexpr std::size_t kNodes = 90;
  stats::Rng rng(seed);
  SocialGraph g(kNodes);
  const auto add_random_edges = [&](NodeId lo, NodeId hi, std::size_t count) {
    for (std::size_t e = 0; e < count; ++e) {
      const auto a = static_cast<NodeId>(lo + rng.index(hi - lo));
      const auto b = static_cast<NodeId>(lo + rng.index(hi - lo));
      g.add_relationship(
          a, b, static_cast<Relationship>(rng.index(graph::kRelationshipCount)));
    }
  };
  add_random_edges(0, 40, 50);  // component A: sparse, FoF + paths
  for (NodeId v = 40; v + 1 < 70; ++v) {  // component B: a long chain
    g.add_relationship(v, v + 1, Relationship::kFriendship);
  }
  add_random_edges(40, 70, 4);
  add_random_edges(70, 90, 25);  // component C
  for (NodeId v = 0; v < kNodes; ++v) {
    if (v % 7 == 3) continue;  // no interactions: Eq. 2 denominator 0
    const std::span<const NodeId> friends = g.neighbors(v);
    const std::vector<NodeId> copy(friends.begin(), friends.end());
    for (NodeId f : copy) {
      if (rng.bernoulli(0.8)) g.record_interaction(v, f, rng.uniform(0.5, 4.0));
    }
    // Interactions with non-friends count in the denominator only.
    g.record_interaction(v, static_cast<NodeId>(rng.index(kNodes)), 1.0);
  }
  g.clear_node(11);  // whitewashed: blank row, tombstoned interactions
  g.clear_node(75);
  g.record_interaction(75, 76, 2.0);
  return g;
}

enum Branch { kSelf, kAdjacent, kFof, kPath, kUnreachable };

/// Which closeness() branch (i, j) takes.
Branch branch_of(const SocialGraph& g, NodeId i, NodeId j) {
  if (i == j) return kSelf;
  if (g.adjacent(i, j)) return kAdjacent;
  if (!g.common_friends(i, j).empty()) return kFof;
  return g.shortest_path(i, j) ? kPath : kUnreachable;
}

std::size_t adj_index(const SocialGraph& g, NodeId i, NodeId j) {
  const std::span<const NodeId> row = g.neighbors(i);
  const auto it = std::lower_bound(row.begin(), row.end(), j);
  return it != row.end() && *it == j
             ? static_cast<std::size_t>(it - row.begin())
             : ClosenessTable::kNotAdjacent;
}

class ClosenessKernel
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(ClosenessKernel, TableMatchesClosenessModelBitwise) {
  const auto [seed, weighted] = GetParam();
  const SocialGraph g = random_graph(seed);
  const ClosenessModel model(weighted, 0.8);
  ClosenessTable table;
  table.build(model, g);
  core::SocialStateCache cache;
  std::vector<NodeId> path;

  std::size_t seen[5] = {};
  for (NodeId i = 0; i < g.size(); ++i) {
    for (NodeId j = 0; j < g.size(); ++j) {
      const double expected = model.closeness(g, i, j);
      // The plugin's composition: structure-layer path on demand.
      const double via_cache =
          table.closeness(g, i, j, adj_index(g, i, j), [&] {
            cache.shortest_path(g, i, j, path);
            return std::span<const NodeId>(path);
          });
      ASSERT_TRUE(bits_equal(expected, via_cache))
          << "pair (" << i << ", " << j << ")";
      // Same kernels over a freshly searched path.
      const double via_bfs =
          table.closeness(g, i, j, adj_index(g, i, j), [&] {
            path = g.shortest_path(i, j).value_or(std::vector<NodeId>{});
            return std::span<const NodeId>(path);
          });
      ASSERT_TRUE(bits_equal(expected, via_bfs))
          << "pair (" << i << ", " << j << ")";
      ++seen[branch_of(g, i, j)];
    }
  }
  EXPECT_GT(seen[kAdjacent], 0U);
  EXPECT_GT(seen[kFof], 0U);
  EXPECT_GT(seen[kPath], 0U);
  EXPECT_GT(seen[kUnreachable], 0U);
}

TEST_P(ClosenessKernel, RebuiltTableTracksGraphEdits) {
  const auto [seed, weighted] = GetParam();
  SocialGraph g = random_graph(seed);
  const ClosenessModel model(weighted, 0.8);
  ClosenessTable table;
  std::vector<NodeId> path;
  stats::Rng rng(seed + 100);
  // A table is a per-interval snapshot: rebuilding it into the same
  // buffers after edits must track the graph exactly.
  for (int round = 0; round < 3; ++round) {
    for (int e = 0; e < 20; ++e) {
      const auto a = static_cast<NodeId>(rng.index(g.size()));
      const auto b = static_cast<NodeId>(rng.index(g.size()));
      if (rng.bernoulli(0.5)) {
        g.add_relationship(a, b, Relationship::kKinship);
      } else {
        g.remove_relationship(a, b, Relationship::kFriendship);
      }
      if (a != b) g.record_interaction(a, b, 1.5);
    }
    table.build(model, g);
    for (NodeId i = 0; i < g.size(); ++i) {
      for (NodeId j = 0; j < g.size(); ++j) {
        const double kernel =
            table.closeness(g, i, j, adj_index(g, i, j), [&] {
              path = g.shortest_path(i, j).value_or(std::vector<NodeId>{});
              return std::span<const NodeId>(path);
            });
        ASSERT_TRUE(bits_equal(model.closeness(g, i, j), kernel))
            << "round " << round << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndVariants, ClosenessKernel,
    ::testing::Combine(::testing::Values(3ULL, 17ULL, 29ULL),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_eq10" : "_eq2");
    });

/// weighted_similarity() as it was written before the allocation-free
/// rewrite: merge of the two materialised effective sets.
double reference_weighted_similarity(const InterestProfiles& p, NodeId a,
                                     NodeId b) {
  const std::vector<reputation::InterestId> va = p.effective(a);
  const std::vector<reputation::InterestId> vb = p.effective(b);
  if (va.empty() || vb.empty()) return 0.0;
  double sum = 0.0;
  auto ia = va.begin();
  auto ib = vb.begin();
  while (ia != va.end() && ib != vb.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      sum += std::min(p.request_weight(a, *ia), p.request_weight(b, *ib));
      ++ia;
      ++ib;
    }
  }
  return sum;
}

TEST(SimilarityKernel, AllocationFreeMatchesEffectiveSetMerge) {
  constexpr std::size_t kNodes = 60;
  constexpr std::size_t kCategories = 24;
  for (std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    stats::Rng rng(seed);
    InterestProfiles p(kNodes, kCategories);
    for (NodeId v = 0; v < kNodes; ++v) {
      std::vector<reputation::InterestId> declared;
      const std::size_t n_declared = rng.index(6);  // some declare nothing
      for (std::size_t k = 0; k < n_declared; ++k) {
        declared.push_back(
            static_cast<reputation::InterestId>(rng.index(kCategories)));
      }
      p.set_interests(v, declared);
      const std::size_t n_requests = v % 5 == 0 ? 0 : rng.index(12);
      for (std::size_t k = 0; k < n_requests; ++k) {
        // Requests land both inside and outside the declared set.
        p.record_request(
            v, static_cast<reputation::InterestId>(rng.index(kCategories)),
            rng.uniform(0.1, 5.0));
      }
    }
    p.clear_requests(13);  // whitewashed: declared set only
    p.clear_requests(14);
    core::SimilarityTable table;
    ASSERT_TRUE(table.build(p));
    for (NodeId a = 0; a < kNodes; ++a) {
      for (NodeId b = 0; b < kNodes; ++b) {
        const double expected = reference_weighted_similarity(p, a, b);
        ASSERT_TRUE(bits_equal(expected, p.weighted_similarity(a, b)))
            << "seed " << seed << " pair (" << a << ", " << b << ")";
        ASSERT_TRUE(bits_equal(expected, table.weighted_similarity(a, b)))
            << "table, seed " << seed << " pair (" << a << ", " << b << ")";
      }
    }
  }
}

TEST(SimilarityKernel, TableDeclinesMoreCategoriesThanBits) {
  InterestProfiles wide(4, core::SimilarityTable::kMaxCategories + 1);
  core::SimilarityTable table;
  EXPECT_FALSE(table.build(wide));
  InterestProfiles exact(4, core::SimilarityTable::kMaxCategories);
  const reputation::InterestId top[] = {
      static_cast<reputation::InterestId>(
          core::SimilarityTable::kMaxCategories - 1)};
  exact.set_interests(0, top);
  exact.set_interests(1, top);
  exact.record_request(0, top[0], 2.0);
  exact.record_request(1, top[0], 3.0);
  ASSERT_TRUE(table.build(exact));
  EXPECT_TRUE(bits_equal(exact.weighted_similarity(0, 1),
                         table.weighted_similarity(0, 1)));
  EXPECT_TRUE(bits_equal(1.0, table.weighted_similarity(0, 1)));
}

}  // namespace
}  // namespace st
