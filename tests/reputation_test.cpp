// Unit tests for st::reputation — the rating ledger, faithful EigenTrust
// (against a dense power-iteration oracle and hand-worked cases), the
// paper's EigenTrust variant, and the eBay baseline's dedup semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reputation/ebay.hpp"
#include "reputation/eigentrust.hpp"
#include "reputation/ledger.hpp"
#include "reputation/paper_eigentrust.hpp"
#include "stats/rng.hpp"

namespace st::reputation {
namespace {

Rating make(NodeId rater, NodeId ratee, double value) {
  Rating r;
  r.rater = rater;
  r.ratee = ratee;
  r.value = value;
  return r;
}

// --- RatingLedger ------------------------------------------------------------

TEST(Ledger, CycleLifecycle) {
  RatingLedger ledger;
  EXPECT_EQ(ledger.current_cycle(), 0u);
  ledger.record(make(0, 1, 1.0));
  ledger.record(make(0, 1, -1.0));
  EXPECT_EQ(ledger.open_cycle().size(), 2u);
  EXPECT_TRUE(ledger.last_cycle().empty());

  EXPECT_EQ(ledger.close_cycle(), 0u);
  EXPECT_EQ(ledger.current_cycle(), 1u);
  EXPECT_EQ(ledger.last_cycle().size(), 2u);
  EXPECT_TRUE(ledger.open_cycle().empty());
  EXPECT_EQ(ledger.total_ratings(), 2u);
}

TEST(Ledger, PairCountsSplitBySign) {
  RatingLedger ledger;
  ledger.record(make(0, 1, 1.0));
  ledger.record(make(0, 1, 1.0));
  ledger.record(make(0, 1, -1.0));
  ledger.record(make(2, 1, 0.0));  // zero ratings count as neither
  ledger.close_cycle();
  const auto& counts = ledger.last_counts();
  ASSERT_EQ(counts.size(), 2u);
  const auto& pc = counts.at(PairKey{0, 1});
  EXPECT_EQ(pc.positive, 2u);
  EXPECT_EQ(pc.negative, 1u);
  EXPECT_DOUBLE_EQ(pc.value_sum, 1.0);
  const auto& zero = counts.at(PairKey{2, 1});
  EXPECT_EQ(zero.positive, 0u);
  EXPECT_EQ(zero.negative, 0u);
}

TEST(Ledger, AveragePairFrequency) {
  RatingLedger ledger;
  for (int i = 0; i < 6; ++i) ledger.record(make(0, 1, 1.0));
  for (int i = 0; i < 2; ++i) ledger.record(make(2, 3, 1.0));
  ledger.close_cycle();
  EXPECT_DOUBLE_EQ(ledger.average_pair_frequency(), 4.0);
}

TEST(Ledger, StampsCycleOnRecord) {
  RatingLedger ledger;
  ledger.record(make(0, 1, 1.0));
  ledger.close_cycle();
  ledger.record(make(0, 1, 1.0));
  ledger.close_cycle();
  EXPECT_EQ(ledger.last_cycle()[0].cycle, 1u);
}

TEST(Ledger, ClearResetsEverything) {
  RatingLedger ledger;
  ledger.record(make(0, 1, 1.0));
  ledger.close_cycle();
  ledger.clear();
  EXPECT_EQ(ledger.current_cycle(), 0u);
  EXPECT_EQ(ledger.total_ratings(), 0u);
  EXPECT_TRUE(ledger.last_cycle().empty());
}

// --- EigenTrust (faithful) ----------------------------------------------------

TEST(EigenTrustTest, InitialIsTeleportDistribution) {
  EigenTrust et(4, {0, 1});
  EXPECT_DOUBLE_EQ(et.reputation(0), 0.5);
  EXPECT_DOUBLE_EQ(et.reputation(1), 0.5);
  EXPECT_DOUBLE_EQ(et.reputation(2), 0.0);
}

TEST(EigenTrustTest, NoPretrustedFallsBackToUniform) {
  EigenTrust et(4, {});
  for (NodeId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(et.reputation(v), 0.25);
}

TEST(EigenTrustTest, OutputIsProbabilityVector) {
  stats::Rng rng(5);
  EigenTrust et(10, {0});
  std::vector<Rating> ratings;
  for (int i = 0; i < 300; ++i) {
    ratings.push_back(make(static_cast<NodeId>(rng.index(10)),
                           static_cast<NodeId>(rng.index(10)),
                           rng.bernoulli(0.7) ? 1.0 : -1.0));
  }
  et.update(ratings);
  double sum = 0.0;
  for (double r : et.reputations()) {
    EXPECT_GE(r, 0.0);
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(EigenTrustTest, FixedPointSatisfiesUpdateEquation) {
  // t = (1-a) C^T t + a p must hold at convergence.
  stats::Rng rng(7);
  const std::size_t n = 6;
  EigenTrust et(n, {0});
  std::vector<Rating> ratings;
  for (int i = 0; i < 100; ++i) {
    auto a = static_cast<NodeId>(rng.index(n));
    auto b = static_cast<NodeId>(rng.index(n));
    if (a == b) continue;
    ratings.push_back(make(a, b, 1.0));
  }
  et.update(ratings);
  auto t = et.reputations();
  // Rebuild C from local_trust and apply one more update step by hand.
  std::vector<double> next(n, 0.0);
  std::vector<bool> empty_row(n, true);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      double c = et.local_trust(i, j);
      if (c > 0.0) empty_row[i] = false;
      next[j] += c * t[i];
    }
  }
  double empty_mass = 0.0;
  for (NodeId i = 0; i < n; ++i)
    if (empty_row[i]) empty_mass += t[i];
  const double a = et.config().pretrusted_weight;
  for (NodeId j = 0; j < n; ++j) {
    double p = (j == 0) ? 1.0 : 0.0;
    double expect = (1.0 - a) * (next[j] + empty_mass * p) + a * p;
    EXPECT_NEAR(expect, t[j], 1e-6) << "j=" << j;
  }
}

TEST(EigenTrustTest, LocalTrustClampsNegativesAndNormalizes) {
  EigenTrust et(3, {0});
  std::vector<Rating> ratings{make(0, 1, 3.0), make(0, 2, -5.0)};
  et.update(ratings);
  EXPECT_DOUBLE_EQ(et.local_trust(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(et.local_trust(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(et.raw_trust(0, 2), -5.0);
}

TEST(EigenTrustTest, PretrustedTeleportGuaranteesFloor) {
  // With teleport weight a, every pretrusted node holds at least a/|P|.
  EigenTrust et(8, {0, 1});
  std::vector<Rating> ratings;
  // Everyone praises node 7 heavily.
  for (NodeId i = 0; i < 7; ++i)
    for (int k = 0; k < 50; ++k) ratings.push_back(make(i, 7, 1.0));
  et.update(ratings);
  EXPECT_GE(et.reputation(0), 0.5 / 2.0 - 1e-9);
  EXPECT_GE(et.reputation(1), 0.5 / 2.0 - 1e-9);
}

TEST(EigenTrustTest, IgnoresSelfAndOutOfRangeRatings) {
  EigenTrust et(3, {0});
  std::vector<Rating> ratings{make(1, 1, 5.0), make(9, 1, 5.0),
                              make(1, 9, 5.0)};
  et.update(ratings);
  EXPECT_DOUBLE_EQ(et.raw_trust(1, 1), 0.0);
}

TEST(EigenTrustTest, ResetRestoresInitialState) {
  EigenTrust et(3, {0});
  std::vector<Rating> ratings{make(1, 2, 1.0)};
  et.update(ratings);
  et.reset();
  EXPECT_DOUBLE_EQ(et.reputation(0), 1.0);
  EXPECT_DOUBLE_EQ(et.raw_trust(1, 2), 0.0);
}

TEST(EigenTrustTest, ConvergesWithinIterationBudget) {
  stats::Rng rng(11);
  EigenTrust et(50, {0, 1, 2});
  std::vector<Rating> ratings;
  for (int i = 0; i < 3000; ++i) {
    ratings.push_back(make(static_cast<NodeId>(rng.index(50)),
                           static_cast<NodeId>(rng.index(50)), 1.0));
  }
  et.update(ratings);
  EXPECT_LT(et.last_iterations(), et.config().max_iterations);
}

// --- PaperEigenTrust ----------------------------------------------------------

PaperEigenTrustConfig plain_config() {
  // Most unit tests want the raw weighted-accumulation arithmetic without
  // the simulation-scale damping heuristics.
  PaperEigenTrustConfig cfg;
  cfg.weight_prior_mass = 0.0;
  cfg.rater_weight_floor = 0.0;
  cfg.pair_contribution_cap = std::numeric_limits<double>::infinity();
  return cfg;
}

TEST(PaperEigenTrustTest, StartsAtZero) {
  PaperEigenTrust pet(4, {0}, plain_config());
  for (NodeId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(pet.reputation(v), 0.0);
}

TEST(PaperEigenTrustTest, PretrustedRatingsSeedReputation) {
  PaperEigenTrust pet(4, {0}, plain_config());
  std::vector<Rating> cycle1{make(0, 1, 1.0), make(2, 3, 1.0)};
  pet.update(cycle1);
  // Node 3's rating came from a zero-reputation rater: no effect.
  EXPECT_DOUBLE_EQ(pet.reputation(1), 1.0);
  EXPECT_DOUBLE_EQ(pet.reputation(3), 0.0);
  EXPECT_DOUBLE_EQ(pet.raw_score(1), 0.5);
}

TEST(PaperEigenTrustTest, WeightsUsePreviousCycleReputation) {
  PaperEigenTrust pet(4, {0}, plain_config());
  pet.update(std::vector<Rating>{make(0, 1, 1.0)});  // rep(1) = 1
  // Now node 1 (weight 1.0) and node 2 (weight 0) rate node 3.
  pet.update(std::vector<Rating>{make(1, 3, 1.0), make(2, 3, 1.0)});
  EXPECT_DOUBLE_EQ(pet.raw_score(3), 1.0);
}

TEST(PaperEigenTrustTest, NegativeScoresClampToZeroReputation) {
  PaperEigenTrust pet(3, {0}, plain_config());
  pet.update(std::vector<Rating>{make(0, 1, -1.0), make(0, 2, 1.0)});
  EXPECT_DOUBLE_EQ(pet.reputation(1), 0.0);
  EXPECT_LT(pet.raw_score(1), 0.0);
  EXPECT_DOUBLE_EQ(pet.reputation(2), 1.0);
}

TEST(PaperEigenTrustTest, PairContributionCapSaturates) {
  PaperEigenTrustConfig cfg = plain_config();
  cfg.pair_contribution_cap = 10.0;
  PaperEigenTrust pet(3, {0}, cfg);
  std::vector<Rating> cycle;
  for (int i = 0; i < 500; ++i) cycle.push_back(make(0, 1, 1.0));
  cycle.push_back(make(0, 2, 1.0));
  pet.update(cycle);
  EXPECT_DOUBLE_EQ(pet.raw_score(1), 0.5 * 10.0);
  EXPECT_DOUBLE_EQ(pet.raw_score(2), 0.5 * 1.0);
}

TEST(PaperEigenTrustTest, WeightPriorDampsEarlyWeights) {
  PaperEigenTrustConfig cfg = plain_config();
  cfg.weight_prior_mass = 9.0;
  PaperEigenTrust pet(4, {0}, cfg);
  pet.update(std::vector<Rating>{make(0, 1, 2.0)});  // raw(1) = 1.0
  // Published reputation is share-normalised (1.0), but the *rater weight*
  // is damped: 1.0 / (1.0 + 9.0) = 0.1.
  EXPECT_DOUBLE_EQ(pet.reputation(1), 1.0);
  EXPECT_DOUBLE_EQ(pet.rater_weight(1), 0.1);
  pet.update(std::vector<Rating>{make(1, 2, 1.0)});
  EXPECT_DOUBLE_EQ(pet.raw_score(2), 0.1);
}

TEST(PaperEigenTrustTest, WeightFloorKeepsFreshRatersAlive) {
  PaperEigenTrustConfig cfg = plain_config();
  cfg.rater_weight_floor = 0.01;
  PaperEigenTrust pet(3, {0}, cfg);
  pet.update(std::vector<Rating>{make(1, 2, 1.0)});
  EXPECT_DOUBLE_EQ(pet.raw_score(2), 0.01);
}

TEST(PaperEigenTrustTest, FrequencyAmplification) {
  // Two colluders with earned reputation and high mutual frequency beat a
  // same-reputation honest node rated once per cycle — the vulnerability
  // the paper's Fig. 8(a) demonstrates.
  PaperEigenTrust pet(5, {0}, plain_config());
  // Seed: pretrusted rates colluders (1,2) and honest (3) equally.
  pet.update(std::vector<Rating>{make(0, 1, 1.0), make(0, 2, 1.0),
                                 make(0, 3, 1.0)});
  for (int cycle = 0; cycle < 5; ++cycle) {
    std::vector<Rating> ratings;
    for (int k = 0; k < 40; ++k) {
      ratings.push_back(make(1, 2, 1.0));
      ratings.push_back(make(2, 1, 1.0));
    }
    ratings.push_back(make(0, 3, 1.0));  // honest praise, once
    pet.update(ratings);
  }
  EXPECT_GT(pet.reputation(1), pet.reputation(3));
  EXPECT_GT(pet.reputation(2), pet.reputation(3));
}

TEST(PaperEigenTrustTest, NameMatchesPaperLabel) {
  PaperEigenTrust pet(2, {});
  EXPECT_EQ(pet.name(), "EigenTrust");
}

TEST(PaperEigenTrustTest, Validation) {
  EXPECT_THROW(PaperEigenTrust(0, {}), std::invalid_argument);
  EXPECT_THROW(PaperEigenTrust(2, {5}), std::out_of_range);
  PaperEigenTrust pet(2, {});
  EXPECT_THROW(pet.reputation(2), std::out_of_range);
}

// --- EbayReputation -----------------------------------------------------------

TEST(Ebay, StartsAtZero) {
  EbayReputation ebay(3);
  for (NodeId v = 0; v < 3; ++v) EXPECT_DOUBLE_EQ(ebay.reputation(v), 0.0);
}

TEST(Ebay, PairDedupCountsOneRatingPerCycle) {
  EbayReputation ebay(3);
  std::vector<Rating> cycle;
  for (int i = 0; i < 100; ++i) cycle.push_back(make(0, 1, 1.0));
  cycle.push_back(make(2, 1, 1.0));
  ebay.update(cycle);
  // 100 ratings from node 0 collapse to +1; node 2 contributes +1.
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 2.0);
}

TEST(Ebay, PairSumDecidesSign) {
  EbayReputation ebay(3);
  std::vector<Rating> cycle{make(0, 1, 1.0), make(0, 1, -1.0),
                            make(0, 1, -1.0)};
  ebay.update(cycle);
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), -1.0);
  EXPECT_DOUBLE_EQ(ebay.reputation(1), 0.0);  // clamped for publication
}

TEST(Ebay, FractionalAdjustedValuesSurvive) {
  // A plugin-downweighted pair (many ratings x tiny weight) must not round
  // back up to a full vote.
  EbayReputation ebay(3);
  std::vector<Rating> cycle;
  for (int i = 0; i < 600; ++i) cycle.push_back(make(0, 1, 1e-4));
  ebay.update(cycle);
  EXPECT_NEAR(ebay.raw_score(1), 0.06, 1e-9);
}

TEST(Ebay, AccumulatesAcrossCycles) {
  EbayReputation ebay(3);
  for (int cycle = 0; cycle < 5; ++cycle) {
    ebay.update(std::vector<Rating>{make(0, 1, 1.0), make(2, 1, 1.0)});
  }
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 10.0);
}

TEST(Ebay, NormalizationIsShareOfPositiveMass) {
  EbayReputation ebay(4);
  ebay.update(std::vector<Rating>{make(0, 1, 1.0), make(0, 2, 1.0),
                                  make(1, 2, 1.0), make(3, 0, -1.0)});
  // raw: node1=1, node2=2, node0=-1 -> positive mass 3.
  EXPECT_NEAR(ebay.reputation(1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(ebay.reputation(2), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(ebay.reputation(0), 0.0);
  double sum = std::accumulate(ebay.reputations().begin(),
                               ebay.reputations().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Ebay, SlowUpdatesRelativeToPaperEigenTrust) {
  // Fig. 19's premise: eBay converges much more slowly. One pretrusted
  // endorsement moves PaperEigenTrust immediately; eBay needs repeated
  // cycles to differentiate.
  PaperEigenTrust pet(3, {0});
  EbayReputation ebay(3);
  std::vector<Rating> praise;
  for (int i = 0; i < 30; ++i) praise.push_back(make(0, 1, 1.0));
  pet.update(praise);
  ebay.update(praise);
  EXPECT_DOUBLE_EQ(pet.reputation(1), 1.0);
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 1.0);  // one deduped vote only
}

TEST(Ebay, ResetClearsState) {
  EbayReputation ebay(2);
  ebay.update(std::vector<Rating>{make(0, 1, 1.0)});
  ebay.reset();
  EXPECT_DOUBLE_EQ(ebay.raw_score(1), 0.0);
  EXPECT_DOUBLE_EQ(ebay.reputation(1), 0.0);
}

/// The hash-map formulation of EbayReputation::update() — per-pair sums in
/// an unordered_map, flattened and sorted by (rater, ratee), then reduced
/// into the raw scores — kept as the oracle for the counting-pass one.
void reference_ebay_update(std::vector<double>& raw,
                           const std::vector<Rating>& ratings) {
  std::unordered_map<PairKey, double, PairKeyHash> pair_sums;
  for (const Rating& r : ratings) {
    if (r.rater >= raw.size() || r.ratee >= raw.size() || r.rater == r.ratee)
      continue;
    pair_sums[PairKey{r.rater, r.ratee}] += r.value;
  }
  std::vector<std::pair<PairKey, double>> ordered(pair_sums.begin(),
                                                  pair_sums.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.first.rater != b.first.rater
                         ? a.first.rater < b.first.rater
                         : a.first.ratee < b.first.ratee;
            });
  for (const auto& [key, sum] : ordered) {
    raw[key.ratee] += std::clamp(sum, -1.0, 1.0);
  }
}

TEST(Ebay, CountingPassMatchesHashMapReductionOnShuffledStreams) {
  constexpr std::size_t kNodes = 40;
  for (std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    stats::Rng rng(seed);
    EbayReputation ebay(kNodes);
    std::vector<double> raw(kNodes, 0.0);
    for (int interval = 0; interval < 6; ++interval) {
      // Repeated pairs with fractional values (the plugin's rescaled
      // stream), plus self and out-of-range ratings that must be skipped.
      std::vector<Rating> ratings;
      for (int k = 0; k < 400; ++k) {
        const auto rater = static_cast<NodeId>(rng.index(kNodes / 4));
        const auto ratee = static_cast<NodeId>(rng.index(kNodes + 2));
        const double value = rng.bernoulli(0.7)
                                 ? rng.uniform(0.0, 1.0)
                                 : -rng.uniform(0.0, 1.0);
        ratings.push_back(make(rater, ratee, value));
      }
      rng.shuffle(std::span<Rating>(ratings));
      ebay.update(ratings);
      reference_ebay_update(raw, ratings);
      for (NodeId v = 0; v < kNodes; ++v) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(ebay.raw_score(v)),
                  std::bit_cast<std::uint64_t>(raw[v]))
            << "seed " << seed << " interval " << interval << " node " << v;
      }
    }
  }
}

TEST(Ebay, Validation) {
  EXPECT_THROW(EbayReputation(0), std::invalid_argument);
  EbayReputation ebay(2);
  EXPECT_THROW(ebay.reputation(5), std::out_of_range);
  EXPECT_THROW(ebay.raw_score(5), std::out_of_range);
}

// --- cross-system property sweeps ---------------------------------------------

class SystemProperty : public ::testing::TestWithParam<int> {
 public:
  std::unique_ptr<ReputationSystem> make_system(std::size_t n) {
    switch (GetParam()) {
      case 0:
        return std::make_unique<EigenTrust>(n, std::vector<NodeId>{0});
      case 1:
        return std::make_unique<PaperEigenTrust>(n, std::vector<NodeId>{0});
      default:
        return std::make_unique<EbayReputation>(n);
    }
  }
};

TEST_P(SystemProperty, ReputationsStayNormalizedUnderRandomLoad) {
  auto system = make_system(20);
  stats::Rng rng(GetParam() + 100);
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<Rating> ratings;
    for (int i = 0; i < 200; ++i) {
      ratings.push_back(make(static_cast<NodeId>(rng.index(20)),
                             static_cast<NodeId>(rng.index(20)),
                             rng.bernoulli(0.8) ? 1.0 : -1.0));
    }
    system->update(ratings);
    double sum = 0.0;
    for (double r : system->reputations()) {
      EXPECT_GE(r, -1e-12);
      EXPECT_LE(r, 1.0 + 1e-12);
      sum += r;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);
  }
}

TEST_P(SystemProperty, EmptyUpdateIsHarmless) {
  auto system = make_system(5);
  system->update({});
  for (double r : system->reputations()) {
    EXPECT_GE(r, 0.0);
  }
}

TEST_P(SystemProperty, ResetThenUpdateMatchesFreshInstance) {
  auto a = make_system(10);
  auto b = make_system(10);
  stats::Rng rng(17);
  std::vector<Rating> noise;
  for (int i = 0; i < 100; ++i) {
    noise.push_back(make(static_cast<NodeId>(rng.index(10)),
                         static_cast<NodeId>(rng.index(10)), 1.0));
  }
  a->update(noise);
  a->reset();
  std::vector<Rating> load{make(0, 1, 1.0), make(0, 2, 1.0)};
  a->update(load);
  b->update(load);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_DOUBLE_EQ(a->reputation(v), b->reputation(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SystemProperty,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace st::reputation
