// warm_50k and dense_50k_sharded: SocialTrustPlugin driven directly over
// the 50k-node small-world scenario (1% planted colluding pairs), one
// interval after another until the run's time is spent.
//
//   warm_50k           default config, 1 worker; sparse churn per interval
//                      (~2% of nodes record an interaction, ~0.2% toggle a
//                      relationship) so nearly every pair is carried.
//   dense_50k_sharded  AggregationMode::kSharded with the synchronous
//                      exchange, 4 shards on 2 workers; every interval about
//                      one interaction per node plus the same relationship
//                      churn, so most pairs are recomputed.
//
// Stack: TimedSystem("core") -> SocialTrustPlugin -> TimedSystem("reputation")
// -> EbayReputation. An interval is the churn calls, graph.begin_interval()
// and the outer update(); the churn operations are drawn before the
// interval's clock starts, and the output checks run after it stops.

#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include "core/socialtrust.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "probe.hpp"
#include "reputation/ebay.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using st::core::SocialTrustConfig;
using st::core::SocialTrustPlugin;
using st::graph::NodeId;
using st::reputation::Rating;

constexpr std::size_t kSetupRepeats = 5;

/// Generated inputs: the small-world social graph, interest profiles with
/// request histories, and the interval's rating stream (the same stream is
/// submitted every interval).
struct Scenario {
  st::graph::SocialGraph graph{1};
  st::core::InterestProfiles profiles{1, 1};
  std::vector<Rating> ratings;
  NodeId colluders = 0;  ///< nodes [0, colluders) pair up as (2k, 2k+1)
};

std::unique_ptr<Scenario> make_scenario(std::size_t n, std::uint64_t seed) {
  st::stats::Rng rng(seed);
  auto s = std::make_unique<Scenario>();
  s->graph = st::graph::watts_strogatz(n, 10, 0.1, rng);
  s->profiles = st::core::InterestProfiles(n, 20);

  auto rate = [&](NodeId rater, NodeId ratee, double value, std::size_t times) {
    for (std::size_t k = 0; k < times; ++k) {
      s->ratings.push_back(
          Rating{rater, ratee, value, 0, 0, st::reputation::kNoInterest});
      s->graph.record_interaction(rater, ratee);
    }
  };

  for (NodeId v = 0; v < n; ++v) {
    std::vector<st::reputation::InterestId> interests;
    for (int k = 0; k < 3; ++k)
      interests.push_back(
          static_cast<st::reputation::InterestId>(rng.index(20)));
    s->profiles.set_interests(v, interests);
    for (auto interest : interests)
      s->profiles.record_request(v, interest, rng.uniform(1.0, 10.0));
  }

  // 1% of nodes collude in pairs: two extra relationship types and 20
  // positive ratings each way per interval.
  s->colluders =
      static_cast<NodeId>(std::max<std::size_t>(2, n / 100) & ~std::size_t{1});
  for (NodeId c = 0; c + 1 < s->colluders; c += 2) {
    s->graph.add_relationship(c, c + 1, st::graph::Relationship::kKinship);
    s->graph.add_relationship(c, c + 1, st::graph::Relationship::kBusiness);
    rate(c, c + 1, 1.0, 20);
    rate(c + 1, c, 1.0, 20);
  }

  // Normal background: two direct neighbours, one friend-of-friend, and a
  // distant stranger for 1% of nodes. Neighbour spans are re-read after
  // every rate(): recording an interaction may compact the graph.
  for (NodeId v = s->colluders; v < n; ++v) {
    const std::size_t degree = s->graph.degree(v);
    if (degree == 0) continue;
    for (int k = 0; k < 2; ++k) {
      NodeId peer = s->graph.neighbors(v)[rng.index(degree)];
      rate(v, peer, rng.bernoulli(0.85) ? 1.0 : -1.0, 2);
    }
    NodeId mid = s->graph.neighbors(v)[rng.index(degree)];
    const std::size_t mid_degree = s->graph.degree(mid);
    if (mid_degree > 0) {
      NodeId hop2 = s->graph.neighbors(mid)[rng.index(mid_degree)];
      if (hop2 != v) rate(v, hop2, 1.0, 2);
    }
    if (rng.bernoulli(0.01)) rate(v, static_cast<NodeId>(rng.index(n)), 1.0, 1);
  }
  return s;
}

/// One graph mutation of an interval's churn.
struct ChurnOp {
  enum class Kind : std::uint8_t { kInteract, kAddType, kRemoveType } kind;
  NodeId a, b;
};

/// Draws one interval's churn: `interactions` directed interactions between
/// near ring neighbours, and n/500 toggles of a colleague relationship on a
/// random node's first edge (adjacency itself stays put).
std::vector<ChurnOp> draw_churn(const st::graph::SocialGraph& graph,
                                std::size_t interactions,
                                st::stats::Rng& rng) {
  const std::size_t n = graph.size();
  std::vector<ChurnOp> ops;
  ops.reserve(interactions + n / 500 + 1);
  for (std::size_t i = 0; i < interactions; ++i) {
    const auto a = static_cast<NodeId>(rng.index(n));
    const auto b = static_cast<NodeId>((a + 3 + rng.index(7)) % n);
    ops.push_back({ChurnOp::Kind::kInteract, a, b});
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(1, n / 500); ++i) {
    const auto a = static_cast<NodeId>(rng.index(n));
    const auto neighbors = graph.neighbors(a);
    if (neighbors.empty()) continue;
    ops.push_back({rng.bernoulli(0.5) ? ChurnOp::Kind::kAddType
                                      : ChurnOp::Kind::kRemoveType,
                   a, neighbors[0]});
  }
  return ops;
}

void apply_churn(st::graph::SocialGraph& graph,
                 const std::vector<ChurnOp>& ops) {
  for (const ChurnOp& op : ops) {
    switch (op.kind) {
      case ChurnOp::Kind::kInteract:
        graph.record_interaction(op.a, op.b);
        break;
      case ChurnOp::Kind::kAddType:
        graph.add_relationship(op.a, op.b, st::graph::Relationship::kColleague);
        break;
      case ChurnOp::Kind::kRemoveType:
        graph.remove_relationship(op.a, op.b,
                                  st::graph::Relationship::kColleague);
        break;
    }
  }
}

/// The decorated reputation stack over one scenario.
struct Stack {
  std::unique_ptr<TimedSystem> outer;
  TimedSystem* inner = nullptr;
  SocialTrustPlugin* plugin = nullptr;
  st::reputation::EbayReputation* ebay = nullptr;
};

Stack make_stack(const Scenario& s, const SocialTrustConfig& config) {
  Stack stack;
  auto ebay = std::make_unique<st::reputation::EbayReputation>(s.graph.size());
  stack.ebay = ebay.get();
  auto inner = std::make_unique<TimedSystem>(std::move(ebay));
  stack.inner = inner.get();
  auto plugin = std::make_unique<SocialTrustPlugin>(std::move(inner), s.graph,
                                                    s.profiles, config);
  stack.plugin = plugin.get();
  stack.outer = std::make_unique<TimedSystem>(std::move(plugin));
  return stack;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Interval checks: reputations finite and summing to 1; every planted
/// directed colluder pair flagged with a weight below 1.
bool interval_ok(const Scenario& s, const SocialTrustPlugin& plugin) {
  if (!reputations_ok(plugin.reputations())) return false;
  std::vector<std::uint8_t> hit(s.colluders, 0);
  for (const auto& f : plugin.last_report().flagged) {
    if (f.rater < s.colluders && f.ratee == (f.rater ^ 1U) && f.weight < 1.0)
      hit[f.rater] = 1;
  }
  for (std::uint8_t h : hit)
    if (h == 0) return false;
  return true;
}

/// Cold-versus-timed check: a fresh default-config plugin over a copy of
/// the wrapped system's state from before the last update must reproduce
/// that update bit for bit — report, adjusted stream and reputations.
bool matches_cold(const Scenario& s, const SocialTrustPlugin& timed,
                  const st::reputation::EbayReputation& inner_before) {
  SocialTrustPlugin cold(
      std::make_unique<st::reputation::EbayReputation>(inner_before), s.graph,
      s.profiles, SocialTrustConfig{});
  cold.update(s.ratings);
  const auto& a = timed.last_report();
  const auto& b = cold.last_report();
  if (a.pairs_total != b.pairs_total || a.pairs_flagged != b.pairs_flagged ||
      a.ratings_adjusted != b.ratings_adjusted || a.b1 != b.b1 ||
      a.b2 != b.b2 || a.b3 != b.b3 || a.b4 != b.b4 ||
      !bits_equal(a.mean_weight, b.mean_weight) ||
      a.flagged.size() != b.flagged.size())
    return false;
  for (std::size_t i = 0; i < a.flagged.size(); ++i) {
    const auto& x = a.flagged[i];
    const auto& y = b.flagged[i];
    if (x.rater != y.rater || x.ratee != y.ratee || x.behavior != y.behavior ||
        !bits_equal(x.weight, y.weight))
      return false;
  }
  const auto adj_a = timed.last_adjusted();
  const auto adj_b = cold.last_adjusted();
  if (adj_a.size() != adj_b.size()) return false;
  for (std::size_t i = 0; i < adj_a.size(); ++i) {
    if (adj_a[i].rater != adj_b[i].rater || adj_a[i].ratee != adj_b[i].ratee ||
        !bits_equal(adj_a[i].value, adj_b[i].value))
      return false;
  }
  const auto rep_a = timed.reputations();
  const auto rep_b = cold.reputations();
  if (rep_a.size() != rep_b.size()) return false;
  for (std::size_t i = 0; i < rep_a.size(); ++i)
    if (!bits_equal(rep_a[i], rep_b[i])) return false;
  return true;
}

}  // namespace

Outcome run_plugin_workload(const Options& options, bool dense) {
  const std::size_t n = options.quick ? 5000 : 50000;
  const std::uint64_t scenario_seed = mix_seed(options.seed, 0);
  const std::uint64_t churn_seed = mix_seed(options.seed, 1);
  const std::size_t interactions = dense ? n : std::max<std::size_t>(1, n / 50);
  SocialTrustConfig config;
  config.threads = 1;
  if (dense) {
    config.aggregation = st::core::AggregationMode::kSharded;
    config.exchange = st::core::ExchangeSchedule::kSynchronous;
    config.shards = 4;
    config.threads = 2;
  }
  set_obs(false);

  // Set-up: generate the inputs, build the stack, run the cold first
  // update. Repeated; the median is reported and the last one is kept.
  std::vector<double> setup_ms;
  std::unique_ptr<Scenario> scenario;
  Stack stack;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    stack = Stack{};
    scenario.reset();
    const Clock::time_point t0 = Clock::now();
    scenario = make_scenario(n, scenario_seed);
    stack = make_stack(*scenario, config);
    stack.outer->update(scenario->ratings);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  Scenario& s = *scenario;
  SocialTrustPlugin& plugin = *stack.plugin;
  TimedSystem& outer = *stack.outer;
  const TimedSystem& inner = *stack.inner;

  Outcome out;
  if (!interval_ok(s, plugin)) ++out.failed;
  ++out.attempted;  // the cold set-up interval

  st::stats::Rng churn_rng(churn_seed);
  SpanLog spans;
  LayerSamples samples;
  std::vector<double> update_ms, traced_update_ms;
  double interval_ms_total = 0.0;
  std::uint64_t intervals = 0;
  auto cache_prev = plugin.social_cache().stats();

  const Clock::time_point phase_start = Clock::now();
  do {
    const std::vector<ChurnOp> ops =
        draw_churn(s.graph, interactions, churn_rng);
    const bool traced = options.trace && intervals % 2 == 1;
    if (options.trace) set_obs(traced);
    const auto epoch0 = s.graph.epoch();
    const auto structure_epoch0 = s.graph.structure_epoch();

    const Clock::time_point t0 = Clock::now();
    apply_churn(s.graph, ops);
    const Clock::time_point t1 = Clock::now();
    s.graph.begin_interval();
    const Clock::time_point t2 = Clock::now();
    outer.update(s.ratings);
    const Clock::time_point t3 = Clock::now();

    interval_ms_total += ms_between(t0, t3);
    ++intervals;
    (traced ? traced_update_ms : update_ms).push_back(outer.last_ms());
    if (!interval_ok(s, plugin)) ++out.failed;

    if (traced) {
      const int root = spans.add("interval", t0, t3, -1, intervals);
      const int churn = spans.add("graph.churn", t0, t1, root, intervals);
      const int begin =
          spans.add("graph.begin_interval", t1, t2, root, intervals);
      const int core = spans.add("core.update", outer.last_start(),
                                 outer.last_end(), root, intervals);
      const int rep = spans.add("reputation.update", inner.last_start(),
                                inner.last_end(), core, intervals);
      const double graph_ms = spans.self_ms(churn) + spans.self_ms(begin);
      const double core_self = spans.self_ms(core);
      const double rep_ms = spans.self_ms(rep);
      if (!adds_up(graph_ms + core_self + rep_ms, ms_between(t0, t3)))
        out.consistent = false;

      samples.add("graph.churn_ms", spans.self_ms(churn));
      samples.add("graph.begin_interval_ms", spans.self_ms(begin));
      samples.add("graph.mutations", static_cast<double>(ops.size()));
      samples.add("graph.epoch_delta",
                  static_cast<double>(s.graph.epoch() - epoch0));
      samples.add("graph.structure_epoch_delta",
                  static_cast<double>(s.graph.structure_epoch() -
                                      structure_epoch0));

      samples.add("core.update_ms", outer.last_ms());
      samples.add("core.self_ms", core_self);
      add_plugin_samples(samples, plugin, cache_prev);
      samples.add("reputation.update_ms", rep_ms);
      samples.add("reputation.ratings_in",
                  static_cast<double>(inner.last_ratings()));
    }
    cache_prev = plugin.social_cache().stats();
  } while (ms_between(phase_start, Clock::now()) < options.seconds * 1000.0);
  if (options.trace) set_obs(false);
  const double rss_mb = peak_rss_mb();
  out.attempted += intervals;

  // One more interval, untimed: keep the wrapped system's state from
  // before it, then compare the timed plugin with a cold default-config one.
  const st::reputation::EbayReputation inner_before = *stack.ebay;
  apply_churn(s.graph, draw_churn(s.graph, interactions, churn_rng));
  s.graph.begin_interval();
  outer.update(s.ratings);
  ++out.attempted;
  if (!interval_ok(s, plugin) || !matches_cold(s, plugin, inner_before))
    ++out.failed;

  if (options.trace) {
    out.metrics = layer_metrics(samples);
    for (Metric& m : out.metrics) {
      if (m.name == "obs.overhead_ms")
        m.value = median(traced_update_ms) - median(update_ms);
    }
    if (!options.trace_out.empty() && !spans.write_jsonl(options.trace_out))
      out.consistent = false;
  } else {
    out.metrics = {
        {"setup_s", median(setup_ms) / 1000.0, "s"},
        {"interval_ms_p50", median(update_ms), "ms"},
        {"intervals_per_s",
         static_cast<double>(intervals) / (interval_ms_total / 1000.0), "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  }
  std::ostringstream inputs;
  inputs << "{\"generator\":\"watts_strogatz(n, k=10, beta=0.1)\","
         << "\"nodes\":" << n
         << ",\"colluder_pairs\":" << s.colluders / 2
         << ",\"ratings_per_interval\":" << s.ratings.size()
         << ",\"active_pairs\":" << plugin.last_report().pairs_total
         << ",\"interactions_per_interval\":" << interactions
         << ",\"relationship_toggles_per_interval\":"
         << std::max<std::size_t>(1, n / 500)
         << ",\"aggregation\":\"" << (dense ? "sharded-sync" : "centralized")
         << "\",\"shards\":" << (dense ? config.shards : 1)
         << ",\"threads\":" << config.threads
         << ",\"setup_repeats\":" << kSetupRepeats
         << ",\"scenario_seed\":" << scenario_seed
         << ",\"churn_seed\":" << churn_seed << "}";
  out.inputs_json = inputs.str();
  return out;
}

}  // namespace perfbench
