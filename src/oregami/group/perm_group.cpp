#include "oregami/group/perm_group.hpp"

#include <algorithm>
#include <set>

#include "oregami/support/error.hpp"

namespace oregami {

PermutationGroup::PermutationGroup(int degree,
                                   std::vector<Permutation> elements)
    : degree_(degree), elements_(std::move(elements)) {
  if (order() == static_cast<std::size_t>(degree_)) {
    by_point_.assign(order(), order());
    for (std::size_t i = 0; i < order(); ++i) {
      auto& slot = by_point_[static_cast<std::size_t>(elements_[i](0))];
      if (slot != order()) {
        by_point_.clear();  // two elements agree on 0: not regular
        break;
      }
      slot = i;
    }
  }
  inverse_.resize(order());
  for (std::size_t a = 0; a < order(); ++a) {
    // With a point index, a^-1 is the element sending 0 to a^-1(0).
    const auto& image = elements_[a].image();
    inverse_[a] = by_point_.empty()
                      ? index_of(elements_[a].inverse()).value()
                      : by_point_[static_cast<std::size_t>(
                            std::find(image.begin(), image.end(), 0) -
                            image.begin())];
  }
}

std::optional<PermutationGroup> PermutationGroup::generate(
    const std::vector<Permutation>& generators, std::size_t max_order) {
  OREGAMI_ASSERT(!generators.empty(), "group needs at least one generator");
  const int degree = generators.front().degree();
  for (const auto& g : generators) {
    OREGAMI_ASSERT(g.degree() == degree,
                   "all generators must share one degree");
  }

  // BFS closure over right multiplication by generators.
  std::set<Permutation> closed;
  std::vector<Permutation> frontier;
  closed.insert(Permutation::identity(degree));
  frontier.push_back(Permutation::identity(degree));
  while (!frontier.empty()) {
    std::vector<Permutation> next;
    for (const auto& e : frontier) {
      for (const auto& g : generators) {
        Permutation candidate = e.then(g);
        if (closed.insert(candidate).second) {
          if (closed.size() > max_order) {
            return std::nullopt;  // paper's early abort: |G| > cutoff
          }
          next.push_back(std::move(candidate));
        }
      }
    }
    frontier = std::move(next);
  }

  // std::set orders by image table, and the identity's (0, 1, ..., n-1)
  // is the smallest bijection's: it sorts first.
  PermutationGroup group(degree, {closed.begin(), closed.end()});
  OREGAMI_ASSERT(group.element(0).is_identity(),
                 "identity must sort first among group elements");
  for (const auto& g : generators) {
    group.generator_indices_.push_back(group.index_of(g).value());
  }
  return group;
}

std::optional<std::size_t> PermutationGroup::index_of(
    const Permutation& p) const {
  const auto it = std::lower_bound(elements_.begin(), elements_.end(), p);
  if (it != elements_.end() && *it == p) {
    return static_cast<std::size_t>(it - elements_.begin());
  }
  return std::nullopt;
}

std::size_t PermutationGroup::compose(std::size_t a, std::size_t b) const {
  if (!by_point_.empty()) {
    const auto a0 = static_cast<std::size_t>(elements_[a].image()[0]);
    return by_point_[static_cast<std::size_t>(elements_[b].image()[a0])];
  }
  const auto idx = index_of(elements_[a].then(elements_[b]));
  OREGAMI_ASSERT(idx.has_value(), "group not closed under composition");
  return *idx;
}

bool PermutationGroup::is_transitive() const {
  if (degree_ == 0) {
    return true;
  }
  std::vector<bool> reached(static_cast<std::size_t>(degree_), false);
  int count = 0;
  for (const auto& e : elements_) {
    const int y = e(0);
    if (!reached[static_cast<std::size_t>(y)]) {
      reached[static_cast<std::size_t>(y)] = true;
      ++count;
    }
  }
  return count == degree_;
}

bool PermutationGroup::acts_regularly() const {
  // |G| = |X| with distinct images of 0 makes G transitive with trivial
  // stabilisers, so every element's cycles share its order as length.
  return !by_point_.empty();
}

std::size_t PermutationGroup::element_mapping_base_to(int x) const {
  OREGAMI_ASSERT(x >= 0 && x < degree_, "point out of range");
  OREGAMI_ASSERT(acts_regularly(), "needs a regular action");
  return by_point_[static_cast<std::size_t>(x)];
}

std::vector<std::size_t> PermutationGroup::cyclic_subgroup(
    std::size_t a) const {
  std::vector<std::size_t> members{0};  // identity
  std::size_t current = a;
  while (current != 0) {
    members.push_back(current);
    current = compose(current, a);
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<std::size_t> PermutationGroup::subgroup_closure(
    std::vector<std::size_t> seed) const {
  // The member list doubles as the BFS queue.
  std::vector<char> is_member(order(), 0);
  std::vector<std::size_t> members;
  const auto add = [&](std::size_t e) {
    if (is_member[e] == 0) {
      is_member[e] = 1;
      members.push_back(e);
    }
  };
  add(0);
  for (const std::size_t s : seed) {
    add(s);
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (const std::size_t s : seed) {
      add(compose(members[i], s));
      add(compose(members[i], inverse(s)));
    }
  }
  std::sort(members.begin(), members.end());
  return members;
}

bool PermutationGroup::is_normal(
    const std::vector<std::size_t>& subgroup) const {
  for (std::size_t g = 0; g < order(); ++g) {
    const std::size_t g_inv = inverse(g);
    for (const std::size_t h : subgroup) {
      const std::size_t conj = compose(compose(g_inv, h), g);
      if (!std::binary_search(subgroup.begin(), subgroup.end(), conj)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<int> PermutationGroup::right_cosets(
    const std::vector<std::size_t>& subgroup) const {
  std::vector<int> coset_of(order(), -1);
  int next_id = 0;
  for (std::size_t g = 0; g < order(); ++g) {
    if (coset_of[g] != -1) {
      continue;
    }
    // Coset H*g: identity is elements_[0], subgroup indices are h.
    for (const std::size_t h : subgroup) {
      const std::size_t member = compose(h, g);
      OREGAMI_ASSERT(coset_of[member] == -1 || coset_of[member] == next_id,
                     "cosets must partition the group");
      coset_of[member] = next_id;
    }
    ++next_id;
  }
  return coset_of;
}

namespace {

/// Distinct subgroups ordered by size, then lexicographically (the set
/// already holds the lexicographic order).
std::vector<std::vector<std::size_t>> by_size(
    const std::set<std::vector<std::size_t>>& distinct) {
  std::vector<std::vector<std::size_t>> result(distinct.begin(),
                                               distinct.end());
  std::stable_sort(result.begin(), result.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() < b.size();
                   });
  return result;
}

}  // namespace

std::vector<std::vector<std::size_t>> PermutationGroup::cyclic_subgroups()
    const {
  std::set<std::vector<std::size_t>> distinct;
  for (std::size_t a = 0; a < order(); ++a) {
    distinct.insert(cyclic_subgroup(a));
  }
  return by_size(distinct);
}

std::vector<std::vector<std::size_t>> PermutationGroup::all_subgroups(
    int max_generators) const {
  OREGAMI_ASSERT(order() <= 64,
                 "all_subgroups is guarded to small groups (|G| <= 64)");
  std::set<std::vector<std::size_t>> distinct;
  std::vector<std::vector<std::size_t>> cyclic(order());
  for (std::size_t a = 0; a < order(); ++a) {
    cyclic[a] = cyclic_subgroup(a);
    distinct.insert(cyclic[a]);
  }
  const auto in_cyclic = [&](std::size_t a, std::size_t b) {
    return std::binary_search(cyclic[a].begin(), cyclic[a].end(), b);
  };
  for (std::size_t a = 1; max_generators >= 2 && a < order(); ++a) {
    for (std::size_t b = a + 1; b < order(); ++b) {
      // A pair inside one cyclic subgroup closes to it: already listed.
      if (!in_cyclic(a, b) && !in_cyclic(b, a)) {
        distinct.insert(subgroup_closure({a, b}));
      }
    }
  }
  return by_size(distinct);
}

}  // namespace oregami
