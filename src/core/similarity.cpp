#include "core/similarity.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace st::core {

InterestProfiles::InterestProfiles(std::size_t node_count,
                                   std::size_t category_count)
    : node_count_(node_count),
      categories_(category_count),
      offsets_(node_count + 1, 0),
      overlay_slot_(node_count, kNoOverlay),
      request_counts_(node_count * category_count, 0.0),
      request_totals_(node_count, 0.0),
      revisions_(node_count, 0) {
  if (category_count == 0)
    throw std::invalid_argument("InterestProfiles: need >= 1 category");
}

void InterestProfiles::check_node(NodeId node) const {
  if (node >= node_count_)
    throw std::out_of_range("InterestProfiles: node out of range");
}

void InterestProfiles::bump(NodeId node) {
  ++revisions_[node];
  ++epoch_;
}

InterestProfiles::Row InterestProfiles::row(NodeId node) const noexcept {
  const std::uint32_t slot = overlay_slot_[node];
  if (slot != kNoOverlay) {
    const std::vector<InterestId>& r = overlay_[slot];
    return {r.data(), r.size()};
  }
  const std::uint64_t begin = offsets_[node];
  return {ids_.data() + begin,
          static_cast<std::size_t>(offsets_[node + 1] - begin)};
}

std::vector<InterestId>& InterestProfiles::materialize(NodeId node) {
  std::uint32_t slot = overlay_slot_[node];
  if (slot == kNoOverlay) {
    slot = static_cast<std::uint32_t>(overlay_.size());
    const std::uint64_t begin = offsets_[node];
    const std::uint64_t end = offsets_[node + 1];
    overlay_.emplace_back(ids_.begin() + static_cast<std::ptrdiff_t>(begin),
                          ids_.begin() + static_cast<std::ptrdiff_t>(end));
    overlay_slot_[node] = slot;
    overlay_entries_ += overlay_.back().size();
    ++overlay_live_;
  }
  return overlay_[slot];
}

void InterestProfiles::rebuild() {
  std::vector<std::uint64_t> offsets(node_count_ + 1, 0);
  std::uint64_t total = 0;
  for (NodeId node = 0; node < node_count_; ++node) {
    offsets[node] = total;
    total += row(node).size;
  }
  offsets[node_count_] = total;
  std::vector<InterestId> ids(total);
  for (NodeId node = 0; node < node_count_; ++node) {
    const Row r = row(node);
    std::copy(r.ids, r.ids + r.size,
              ids.begin() + static_cast<std::ptrdiff_t>(offsets[node]));
  }
  offsets_ = std::move(offsets);
  ids_ = std::move(ids);
  overlay_.clear();
  std::fill(overlay_slot_.begin(), overlay_slot_.end(), kNoOverlay);
  overlay_entries_ = 0;
  overlay_live_ = 0;
  ++rebuilds_;
}

void InterestProfiles::begin_interval() {
  if (delta_mass() > 0) rebuild();
}

void InterestProfiles::set_interests(NodeId node,
                                     std::span<const InterestId> interests) {
  check_node(node);
  std::vector<InterestId> next;
  for (InterestId id : interests) {
    if (id < categories_) next.push_back(id);
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  const Row current = row(node);
  if (next.size() != current.size ||
      !std::equal(next.begin(), next.end(), current.ids)) {
    const std::size_t before = materialize(node).size();
    overlay_[overlay_slot_[node]] = std::move(next);
    overlay_entries_ += overlay_[overlay_slot_[node]].size() - before;
    bump(node);
  }
  maybe_rebuild();
}

void InterestProfiles::add_interest(NodeId node, InterestId interest) {
  check_node(node);
  if (interest >= categories_) return;
  const Row current = row(node);
  const InterestId* end = current.ids + current.size;
  const InterestId* it = std::lower_bound(current.ids, end, interest);
  if (it == end || *it != interest) {
    std::vector<InterestId>& set = materialize(node);
    set.insert(std::lower_bound(set.begin(), set.end(), interest), interest);
    ++overlay_entries_;
    bump(node);
  }
  maybe_rebuild();
}

void InterestProfiles::remove_interest(NodeId node, InterestId interest) {
  check_node(node);
  const Row current = row(node);
  const InterestId* end = current.ids + current.size;
  const InterestId* it = std::lower_bound(current.ids, end, interest);
  if (it != end && *it == interest) {
    std::vector<InterestId>& set = materialize(node);
    set.erase(std::lower_bound(set.begin(), set.end(), interest));
    --overlay_entries_;
    bump(node);
  }
  maybe_rebuild();
}

std::span<const InterestId> InterestProfiles::declared(NodeId node) const {
  check_node(node);
  const Row r = row(node);
  return {r.ids, r.size};
}

void InterestProfiles::record_request(NodeId node, InterestId category,
                                      double count) {
  check_node(node);
  if (category >= categories_ || count <= 0.0) return;
  request_counts_[node * categories_ + category] += count;
  request_totals_[node] += count;
  bump(node);
}

double InterestProfiles::request_weight(NodeId node,
                                        InterestId category) const {
  check_node(node);
  if (category >= categories_ || request_totals_[node] <= 0.0) return 0.0;
  return request_counts_[node * categories_ + category] /
         request_totals_[node];
}

double InterestProfiles::total_requests(NodeId node) const {
  check_node(node);
  return request_totals_[node];
}

std::vector<InterestId> InterestProfiles::effective(NodeId node) const {
  check_node(node);
  const Row r = row(node);
  std::vector<InterestId> result(r.ids, r.ids + r.size);
  const double* counts = request_counts_.data() + node * categories_;
  for (std::size_t c = 0; c < categories_; ++c) {
    if (counts[c] > 0.0) {
      auto id = static_cast<InterestId>(c);
      auto it = std::lower_bound(result.begin(), result.end(), id);
      if (it == result.end() || *it != id) result.insert(it, id);
    }
  }
  return result;
}

void InterestProfiles::clear_requests(NodeId node) {
  check_node(node);
  if (request_totals_[node] == 0.0) return;
  double* counts = request_counts_.data() + node * categories_;
  std::fill(counts, counts + categories_, 0.0);
  request_totals_[node] = 0.0;
  bump(node);
}

double InterestProfiles::similarity(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const Row va = row(a);
  const Row vb = row(b);
  if (va.size == 0 || vb.size == 0) return 0.0;
  std::size_t overlap = 0;
  const InterestId* ia = va.ids;
  const InterestId* ea = va.ids + va.size;
  const InterestId* ib = vb.ids;
  const InterestId* eb = vb.ids + vb.size;
  while (ia != ea && ib != eb) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++overlap;
      ++ia;
      ++ib;
    }
  }
  return static_cast<double>(overlap) /
         static_cast<double>(std::min(va.size, vb.size));
}

double InterestProfiles::weighted_similarity(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  // The histogram intersection over the two effective sets, evaluated in
  // one ascending pass over the categories instead of materialising
  // effective(a) and effective(b): category c is in a's effective set iff
  // a declared it or requested from it, and each common category adds
  // min(ws(a,c), ws(b,c)) in the same ascending order the set merge
  // visits them — so the sum is bit-identical, allocation-free.
  const Row da = row(a);
  const Row db = row(b);
  const double* counts_a = request_counts_.data() + a * categories_;
  const double* counts_b = request_counts_.data() + b * categories_;
  const double total_a = request_totals_[a];
  const double total_b = request_totals_[b];
  const auto weight = [](double count, double total) {
    return total <= 0.0 ? 0.0 : count / total;  // request_weight()
  };
  double sum = 0.0;
  std::size_t pa = 0;
  std::size_t pb = 0;
  for (std::size_t c = 0; c < categories_; ++c) {
    const bool declared_a = pa < da.size && da.ids[pa] == c;
    const bool declared_b = pb < db.size && db.ids[pb] == c;
    pa += declared_a ? 1 : 0;
    pb += declared_b ? 1 : 0;
    if ((declared_a || counts_a[c] > 0.0) &&
        (declared_b || counts_b[c] > 0.0)) {
      sum += std::min(weight(counts_a[c], total_a),
                      weight(counts_b[c], total_b));
    }
  }
  return sum;
}

double InterestProfiles::weighted_similarity_eq11(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  std::vector<InterestId> va = effective(a);
  std::vector<InterestId> vb = effective(b);
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
      sum += request_weight(a, *ia) * request_weight(b, *ib);
      ++ia;
      ++ib;
    }
  }
  // Eq. (11) keeps Eq. (7)'s denominator; the numerator swaps set
  // membership for behavioural weight products.
  return sum / static_cast<double>(std::min(va.size(), vb.size()));
}

// --- SimilarityTable ---------------------------------------------------------

bool SimilarityTable::build(const InterestProfiles& profiles) {
  categories_ = profiles.categories_;
  if (categories_ > kMaxCategories) return false;
  const std::size_t n = profiles.node_count_;
  masks_.resize(n);
  weights_.resize(n * categories_);
  for (std::size_t node = 0; node < n; ++node) {
    const InterestProfiles::Row declared =
        profiles.row(static_cast<NodeId>(node));
    std::uint64_t mask = 0;
    for (std::size_t k = 0; k < declared.size; ++k) {
      mask |= std::uint64_t{1} << declared.ids[k];
    }
    const double* counts = profiles.request_counts_.data() + node * categories_;
    const double total = profiles.request_totals_[node];
    double* weights = weights_.data() + node * categories_;
    for (std::size_t c = 0; c < categories_; ++c) {
      if (counts[c] > 0.0) mask |= std::uint64_t{1} << c;
      weights[c] = total <= 0.0 ? 0.0 : counts[c] / total;  // request_weight()
    }
    masks_[node] = mask;
  }
  return true;
}

double SimilarityTable::weighted_similarity(NodeId a,
                                            NodeId b) const noexcept {
  const double* wa = weights_.data() + static_cast<std::size_t>(a) * categories_;
  const double* wb = weights_.data() + static_cast<std::size_t>(b) * categories_;
  double sum = 0.0;
  for (std::uint64_t common = masks_[a] & masks_[b]; common != 0;
       common &= common - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(common));
    sum += std::min(wa[c], wb[c]);
  }
  return sum;
}

}  // namespace st::core
