#pragma once
// Outside-in measurement for the update-interval benchmark.
//
// Nothing here reaches into the library: every layer is timed by wrapping
// the calls the benchmark (or the simulator) makes into its public
// functions.
//   * TimedSystem is a reputation::ReputationSystem decorator. One instance
//     wraps the SocialTrustPlugin (the outermost system, "core"), another
//     wraps the system the plugin wraps ("reputation").
//   * SpanLog keeps the traced intervals' spans (name, start, end, parent)
//     in memory and writes them out as JSON lines when the run ends.
//   * LayerSamples collects one sample per traced interval for every
//     per-layer metric and reports their medians.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/socialtrust.hpp"
#include "reputation/reputation_system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Decorator that times every update() of the wrapped system and forwards
/// everything else. `after_update`, when set, runs after the end time is
/// taken, so work done there is never charged to this layer.
class TimedSystem final : public st::reputation::ReputationSystem {
 public:
  explicit TimedSystem(
      std::unique_ptr<st::reputation::ReputationSystem> wrapped)
      : wrapped_(std::move(wrapped)) {}

  std::string_view name() const noexcept override { return wrapped_->name(); }
  std::size_t size() const noexcept override { return wrapped_->size(); }
  void update(std::span<const st::reputation::Rating> ratings) override;
  double reputation(st::reputation::NodeId node) const override {
    return wrapped_->reputation(node);
  }
  std::span<const double> reputations() const noexcept override {
    return wrapped_->reputations();
  }
  void reset() override { wrapped_->reset(); }
  void forget_node(st::reputation::NodeId node) override {
    wrapped_->forget_node(node);
  }

  void set_after_update(std::function<void()> hook) {
    after_update_ = std::move(hook);
  }

  Clock::time_point last_start() const noexcept { return start_; }
  Clock::time_point last_end() const noexcept { return end_; }
  double last_ms() const noexcept { return ms_between(start_, end_); }
  std::size_t last_ratings() const noexcept { return ratings_; }

 private:
  std::unique_ptr<st::reputation::ReputationSystem> wrapped_;
  std::function<void()> after_update_;
  Clock::time_point start_{};
  Clock::time_point end_{};
  std::size_t ratings_ = 0;
};

/// In-memory span store of the traced intervals.
class SpanLog {
 public:
  /// Records a span and returns its index (the parent id of its children;
  /// -1 marks a root).
  int add(std::string_view name, Clock::time_point start,
          Clock::time_point end, int parent, std::uint64_t interval);

  /// Self time of span `index`: its duration minus the part its direct
  /// children cover (children never overlap one another here).
  double self_ms(int index) const;

  /// Writes one JSON object per span; times are microseconds since the
  /// first span. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    int parent;
    std::uint64_t interval;
  };
  std::vector<Span> spans_;
};

/// Samples of the per-layer metrics, one per traced interval. The metric
/// names and units are a fixed catalogue (probe.cpp); every traced run
/// prints all of them, and a layer that is not on a workload's path
/// reports 0.
class LayerSamples {
 public:
  LayerSamples();
  /// Adds one traced interval's value; throws on a name outside the
  /// catalogue.
  void add(std::string_view name, double value);
  /// Median of the samples of `name` (0 when it has none).
  double median_of(std::string_view name) const;

 private:
  std::vector<std::vector<double>> samples_;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a property of the benchmark itself broke (a span sum that
  /// misses the measured interval), as opposed to an output check.
  bool consistent = true;
  std::vector<Metric> metrics;
  /// Description of the generated inputs and the derived seeds (JSON
  /// object text) for the metadata line.
  std::string inputs_json;
  /// Checks reported in the metadata line but not counted in `failed`
  /// (JSON object text).
  std::string report_json = "{}";
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced input sizes for the self-check mode.
  bool quick = false;
  /// Span file of a traced run (empty = keep spans in memory only).
  std::string trace_out;
};

/// Metric rows of a traced run: every catalogue entry's median.
std::vector<Metric> layer_metrics(const LayerSamples& samples);

/// Adds one traced interval's counters read from the plugin's public
/// diagnostics: the report, the dirty-pair stats, the social cache (as the
/// difference to `cache_before`), the obs stage histograms and, on the
/// sharded path, the shard stats. The obs layer must have been switched on
/// (which resets it) just before this interval.
void add_plugin_samples(
    LayerSamples& samples, const st::core::SocialTrustPlugin& plugin,
    const st::core::SocialStateCache::StatsSnapshot& cache_before);

/// Reputations are finite, non-negative and sum to 1.
bool reputations_ok(std::span<const double> reputations);

/// Switches the obs layer on or off (resetting its metrics).
void set_obs(bool enabled);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// splitmix64 step: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// The span-additivity check: the self times along the blocking steps are
/// within 5% of the measured interval.
inline bool adds_up(double parts_ms, double total_ms) {
  return total_ms <= 0.0 ||
         (parts_ms - total_ms <= 0.05 * total_ms &&
          total_ms - parts_ms <= 0.05 * total_ms);
}

Outcome run_paper_pcm(const Options& options);
Outcome run_plugin_workload(const Options& options, bool dense);

}  // namespace perfbench
