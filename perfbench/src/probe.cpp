#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "obs/obs.hpp"
#include "shard/sharded_aggregator.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(),
                        values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

void TimedSystem::update(std::span<const st::reputation::Rating> ratings) {
  ratings_ = ratings.size();
  start_ = Clock::now();
  wrapped_->update(ratings);
  end_ = Clock::now();
  if (after_update_) after_update_();
}

int SpanLog::add(std::string_view name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t interval) {
  spans_.push_back(Span{std::string(name), start, end, parent, interval});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::self_ms(int index) const {
  const Span& span = spans_.at(static_cast<std::size_t>(index));
  double self = ms_between(span.start, span.end);
  // Children are recorded after their parent and within its interval, so
  // only the later spans of the same interval can name `index` as parent.
  for (std::size_t i = static_cast<std::size_t>(index) + 1;
       i < spans_.size() && spans_[i].interval == span.interval; ++i) {
    if (spans_[i].parent == index)
      self -= ms_between(spans_[i].start, spans_[i].end);
  }
  return self;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"interval\":" << s.interval << ",\"parent\":" << s.parent
        << ",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
        << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerCatalogue[] = {
    {"sim.request_loop_ms", "ms"},
    {"sim.requests", "count"},
    {"sim.ratings", "count"},
    {"core.update_ms", "ms"},
    {"core.self_ms", "ms"},
    {"core.pairs_total", "count"},
    {"core.pairs_flagged", "count"},
    {"core.ratings_adjusted", "count"},
    {"core.pairs_dirty", "count"},
    {"core.pairs_carried", "count"},
    {"core.carry_ratio", "ratio"},
    {"core.raters_rebuilt", "count"},
    {"core.dirty_scan_ms", "ms"},
    {"core.cache_hits", "count"},
    {"core.cache_misses", "count"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_invalidations", "count"},
    {"core.cache_structure_misses", "count"},
    {"core.collect_ms", "ms"},
    {"core.loo_ms", "ms"},
    {"core.adjust_ms", "ms"},
    {"reputation.update_ms", "ms"},
    {"reputation.ratings_in", "count"},
    {"graph.churn_ms", "ms"},
    {"graph.begin_interval_ms", "ms"},
    {"graph.mutations", "count"},
    {"graph.epoch_delta", "count"},
    {"graph.structure_epoch_delta", "count"},
    {"shard.local_ms", "ms"},
    {"shard.exchange_ms", "ms"},
    {"shard.reduce_ms", "ms"},
    {"shard.boundary_bytes", "bytes"},
    {"shard.messages", "count"},
    {"shard.rounds", "count"},
    {"shard.boundary_edges", "count"},
    {"shard.pairs_remote", "count"},
    {"shard.pair_skew", "ratio"},
    {"obs.overhead_ms", "ms"},
};

std::size_t catalogue_index(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kLayerCatalogue); ++i) {
    if (name == kLayerCatalogue[i].name) return i;
  }
  throw std::invalid_argument("unknown layer metric: " + std::string(name));
}

}  // namespace

LayerSamples::LayerSamples() : samples_(std::size(kLayerCatalogue)) {}

void LayerSamples::add(std::string_view name, double value) {
  samples_[catalogue_index(name)].push_back(value);
}

double LayerSamples::median_of(std::string_view name) const {
  return median(samples_[catalogue_index(name)]);
}

std::vector<Metric> layer_metrics(const LayerSamples& samples) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerCatalogue)
    out.push_back(Metric{m.name, samples.median_of(m.name), m.unit});
  return out;
}

void add_plugin_samples(
    LayerSamples& samples, const st::core::SocialTrustPlugin& plugin,
    const st::core::SocialStateCache::StatsSnapshot& cache_before) {
  auto count = [](auto value) { return static_cast<double>(value); };
  const auto& report = plugin.last_report();
  samples.add("core.pairs_total", count(report.pairs_total));
  samples.add("core.pairs_flagged", count(report.pairs_flagged));
  samples.add("core.ratings_adjusted", count(report.ratings_adjusted));

  const auto& dirty = plugin.last_dirty_stats();
  const double pairs = count(dirty.pairs_dirty + dirty.pairs_carried);
  samples.add("core.pairs_dirty", count(dirty.pairs_dirty));
  samples.add("core.pairs_carried", count(dirty.pairs_carried));
  samples.add("core.carry_ratio",
              pairs > 0 ? count(dirty.pairs_carried) / pairs : 0.0);
  samples.add("core.raters_rebuilt", count(dirty.raters_rebuilt));
  samples.add("core.dirty_scan_ms", dirty.scan_us / 1000.0);

  const auto cache = plugin.social_cache().stats();
  const double hits = count(cache.hits - cache_before.hits);
  const double misses = count(cache.misses - cache_before.misses);
  samples.add("core.cache_hits", hits);
  samples.add("core.cache_misses", misses);
  samples.add("core.cache_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0);
  samples.add("core.cache_invalidations",
              count(cache.invalidations - cache_before.invalidations));
  samples.add("core.cache_structure_misses",
              count(cache.structure_misses - cache_before.structure_misses));

  auto& registry = st::obs::Obs::instance().registry();
  auto stage_ms = [&](std::string_view histogram) {
    return registry.histogram(histogram).sum() / 1000.0;
  };
  samples.add("core.collect_ms", stage_ms("socialtrust.update.collect_us"));
  samples.add("core.loo_ms", stage_ms("socialtrust.update.loo_us"));
  samples.add("core.adjust_ms", stage_ms("socialtrust.update.adjust_us"));

  const st::shard::ShardStats* shard = plugin.last_shard_stats();
  if (shard == nullptr) return;
  samples.add("shard.local_ms", shard->local_us / 1000.0);
  samples.add("shard.exchange_ms", shard->exchange_us / 1000.0);
  samples.add("shard.reduce_ms", shard->reduce_us / 1000.0);
  samples.add("shard.boundary_bytes", count(shard->exchange.boundary_bytes));
  samples.add("shard.messages", count(shard->exchange.messages));
  samples.add("shard.rounds", count(shard->exchange.rounds));
  samples.add("shard.boundary_edges", count(shard->boundary_edges));
  samples.add("shard.pairs_remote", count(shard->pairs_remote));
  double largest = 0.0, total = 0.0;
  for (std::size_t p : shard->shard_pairs) {
    largest = std::max(largest, count(p));
    total += count(p);
  }
  const double mean = total / count(shard->shard_pairs.size());
  samples.add("shard.pair_skew", mean > 0 ? largest / mean : 0.0);
}

bool reputations_ok(std::span<const double> reputations) {
  double sum = 0.0;
  for (double r : reputations) {
    if (!std::isfinite(r) || r < 0.0) return false;
    sum += r;
  }
  return std::fabs(sum - 1.0) <= 1e-9;
}

void set_obs(bool enabled) {
  st::obs::StObsConfig config;
  config.enabled = enabled;
  st::obs::Obs::instance().configure(config);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
