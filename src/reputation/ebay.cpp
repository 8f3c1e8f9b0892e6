#include "reputation/ebay.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace st::reputation {

EbayReputation::EbayReputation(std::size_t node_count)
    : raw_(node_count, 0.0), normalized_(node_count, 0.0) {
  if (node_count == 0)
    throw std::invalid_argument("EbayReputation: node_count must be > 0");
}

void EbayReputation::update(std::span<const Rating> cycle_ratings) {
  // Collapse each (rater, ratee) pair's ratings to one signed vote,
  // grouping without hashing: a stable counting pass by ratee, then a
  // stable one by rater, leaves the valid ratings ordered by (rater,
  // ratee) with each pair's ratings still in stream order. Summing a run
  // from 0.0 in that order is the per-pair accumulation a hash map's
  // `sum += value` performs, and walking the runs in canonical order
  // pins the per-ratee reduction below — so the bits are fixed by the
  // stream alone (the determinism contract of DESIGN.md §11).
  const std::size_t n = raw_.size();
  order_.clear();
  for (std::size_t idx = 0; idx < cycle_ratings.size(); ++idx) {
    const Rating& r = cycle_ratings[idx];
    if (r.rater >= n || r.ratee >= n || r.rater == r.ratee) continue;
    order_.push_back(static_cast<std::uint32_t>(idx));
  }
  // One stable counting pass: `from` -> `to`, bucketed by key_of().
  const auto counting_pass = [&](const std::vector<std::uint32_t>& from,
                                 std::vector<std::uint32_t>& to,
                                 auto key_of) {
    bucket_.assign(n + 1, 0);
    for (std::uint32_t idx : from) ++bucket_[key_of(cycle_ratings[idx]) + 1];
    for (std::size_t k = 1; k <= n; ++k) bucket_[k] += bucket_[k - 1];
    to.resize(from.size());
    for (std::uint32_t idx : from) {
      to[bucket_[key_of(cycle_ratings[idx])]++] = idx;
    }
  };
  counting_pass(order_, staging_, [](const Rating& r) { return r.ratee; });
  counting_pass(staging_, order_, [](const Rating& r) { return r.rater; });
  for (std::size_t k = 0; k < order_.size();) {
    const Rating& first = cycle_ratings[order_[k]];
    double sum = 0.0;
    for (; k < order_.size(); ++k) {
      const Rating& r = cycle_ratings[order_[k]];
      if (r.rater != first.rater || r.ratee != first.ratee) break;
      sum += r.value;
    }
    // "Counts as one rating": the pair's cycle contribution saturates at
    // +/-1. For raw +/-1 ratings this is the sign; when a plugin has
    // rescaled the values, the fractional magnitude survives — otherwise a
    // down-weighted colluder pair (e.g. 600 ratings x 1e-4) would still
    // round back up to a full +1 vote.
    raw_[first.ratee] += std::clamp(sum, -1.0, 1.0);
  }
  renormalize();
}

void EbayReputation::renormalize() {
  double total = 0.0;
  for (double r : raw_) total += std::max(r, 0.0);
  if (total <= 0.0) {
    std::fill(normalized_.begin(), normalized_.end(), 0.0);
    return;
  }
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    normalized_[i] = std::max(raw_[i], 0.0) / total;
  }
}

double EbayReputation::reputation(NodeId node) const {
  if (node >= normalized_.size())
    throw std::out_of_range("EbayReputation: node out of range");
  return normalized_[node];
}

void EbayReputation::reset() {
  std::fill(raw_.begin(), raw_.end(), 0.0);
  std::fill(normalized_.begin(), normalized_.end(), 0.0);
}

void EbayReputation::forget_node(NodeId node) {
  if (node >= raw_.size())
    throw std::out_of_range("EbayReputation: node out of range");
  raw_[node] = 0.0;
  renormalize();
}

double EbayReputation::raw_score(NodeId node) const {
  if (node >= raw_.size())
    throw std::out_of_range("EbayReputation: node out of range");
  return raw_[node];
}

}  // namespace st::reputation
