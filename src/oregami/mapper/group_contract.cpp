#include "oregami/mapper/group_contract.hpp"

#include <set>

#include "oregami/support/error.hpp"

namespace oregami {

std::string to_string(GroupContractStatus status) {
  switch (status) {
    case GroupContractStatus::Ok:
      return "ok";
    case GroupContractStatus::PhaseNotBijective:
      return "a communication phase is not a bijection on the tasks";
    case GroupContractStatus::GroupTooLarge:
      return "generated group exceeds |X| (Cayley graph cannot match)";
    case GroupContractStatus::NotRegularAction:
      return "group does not act regularly on the tasks";
    case GroupContractStatus::NoSuitableSubgroup:
      return "no subgroup with the requested index";
  }
  return "?";
}

std::optional<Permutation> phase_permutation(const CommPhase& phase,
                                             int num_tasks) {
  std::vector<int> image(static_cast<std::size_t>(num_tasks), -1);
  for (const auto& e : phase.edges) {
    if (e.src < 0 || e.src >= num_tasks || e.dst < 0 ||
        e.dst >= num_tasks) {
      return std::nullopt;
    }
    if (image[static_cast<std::size_t>(e.src)] != -1) {
      return std::nullopt;  // two outgoing edges from one task
    }
    image[static_cast<std::size_t>(e.src)] = e.dst;
  }
  std::vector<bool> hit(static_cast<std::size_t>(num_tasks), false);
  for (const int y : image) {
    if (y == -1 || hit[static_cast<std::size_t>(y)]) {
      return std::nullopt;  // not total or not injective
    }
    hit[static_cast<std::size_t>(y)] = true;
  }
  return Permutation(std::move(image));
}

bool sylow_balanced_contraction_exists(long tasks, long clusters) {
  if (clusters <= 0 || tasks % clusters != 0) {
    return false;
  }
  long quotient = tasks / clusters;
  if (quotient == 1) {
    return true;
  }
  for (long p = 2; p * p <= quotient; ++p) {
    if (quotient % p == 0) {
      while (quotient % p == 0) {
        quotient /= p;
      }
      return quotient == 1;  // prime power iff nothing else remains
    }
  }
  return true;  // quotient itself is prime
}

namespace {

/// Internalized comm edges per cluster for a candidate coset partition;
/// returns -1 when clusters are not uniformly internalised (cannot
/// happen for true coset partitions of a regular action, but we verify
/// rather than assume).
int internalized_per_cluster(const TaskGraph& graph,
                             const std::vector<int>& cluster_of_task,
                             int num_clusters) {
  std::vector<int> internal(static_cast<std::size_t>(num_clusters), 0);
  for (const auto& phase : graph.comm_phases()) {
    for (const auto& e : phase.edges) {
      const int cs = cluster_of_task[static_cast<std::size_t>(e.src)];
      const int cd = cluster_of_task[static_cast<std::size_t>(e.dst)];
      if (cs == cd) {
        ++internal[static_cast<std::size_t>(cs)];
      }
    }
  }
  for (const int count : internal) {
    if (count != internal.front()) {
      return -1;
    }
  }
  return internal.empty() ? 0 : internal.front();
}

}  // namespace

GroupContractOutcome group_theoretic_contraction(const TaskGraph& graph,
                                                 int num_clusters) {
  GroupContractOutcome outcome;
  const int n = graph.num_tasks();
  if (num_clusters <= 0 || n <= 0 || n % num_clusters != 0) {
    outcome.status = GroupContractStatus::NoSuitableSubgroup;
    return outcome;
  }

  // 1. Each comm phase must be a bijection on the task set.
  std::vector<Permutation> generators;
  for (const auto& phase : graph.comm_phases()) {
    auto perm = phase_permutation(phase, n);
    if (!perm) {
      outcome.status = GroupContractStatus::PhaseNotBijective;
      return outcome;
    }
    generators.push_back(std::move(*perm));
  }
  if (generators.empty()) {
    outcome.status = GroupContractStatus::PhaseNotBijective;
    return outcome;
  }

  // 2. Generate G, aborting as soon as |G| would exceed |X|.
  auto group = PermutationGroup::generate(generators,
                                          static_cast<std::size_t>(n));
  if (!group) {
    outcome.status = GroupContractStatus::GroupTooLarge;
    return outcome;
  }

  // 3. Regular action check (paper: |G| = |X| and all elements have
  //    equal-length cycles <=> Cayley graph isomorphic to task graph).
  if (!group->acts_regularly()) {
    outcome.status = GroupContractStatus::NotRegularAction;
    return outcome;
  }

  // 4. Enumerate candidate subgroups of order |G| / num_clusters.
  const auto target_order =
      static_cast<std::size_t>(n / num_clusters);
  //    Each subgroup is kept at its first occurrence only.
  std::vector<std::vector<std::size_t>> candidates;
  std::set<std::vector<std::size_t>> seen;
  const auto consider = [&](const std::vector<std::size_t>& sub) {
    if (sub.size() == target_order && seen.insert(sub).second) {
      candidates.push_back(sub);
    }
  };
  for (const std::size_t gen_idx : group->generator_indices()) {
    consider(group->cyclic_subgroup(gen_idx));
  }
  for (const auto& sub : group->cyclic_subgroups()) {
    consider(sub);
  }
  if (group->order() <= 64) {
    for (const auto& sub : group->all_subgroups()) {
      consider(sub);
    }
  }
  if (candidates.empty()) {
    outcome.status = GroupContractStatus::NoSuitableSubgroup;
    return outcome;
  }

  // 5. Score candidates: prefer normal subgroups (true quotient
  //    groups), then maximal internalized communication; first in
  //    enumeration order on ties (generator-derived subgroups lead).
  struct Scored {
    std::vector<std::size_t> subgroup;
    bool normal = false;
    int internalized = 0;
    std::vector<int> cluster_of_task;
    std::vector<int> coset_of;
  };
  std::optional<Scored> best;
  for (const auto& sub : candidates) {
    Scored s;
    s.subgroup = sub;
    s.normal = group->is_normal(sub);
    s.coset_of = group->right_cosets(sub);
    s.cluster_of_task.resize(static_cast<std::size_t>(n));
    for (int x = 0; x < n; ++x) {  // task x <-> the g with g(0) = x
      s.cluster_of_task[static_cast<std::size_t>(x)] =
          s.coset_of[group->element_mapping_base_to(x)];
    }
    s.internalized =
        internalized_per_cluster(graph, s.cluster_of_task, num_clusters);
    if (s.internalized < 0) {
      continue;  // non-uniform: skip (non-normal subgroup artefact)
    }
    const auto better = [&](const Scored& a, const Scored& b) {
      if (a.normal != b.normal) {
        return a.normal;
      }
      return a.internalized > b.internalized;
    };
    if (!best || better(s, *best)) {
      best = std::move(s);
    }
  }
  if (!best) {
    outcome.status = GroupContractStatus::NoSuitableSubgroup;
    return outcome;
  }

  GroupContraction result;
  result.contraction.num_clusters = num_clusters;
  result.contraction.cluster_of_task = best->cluster_of_task;
  result.contraction.validate(n);
  for (const auto& e : group->elements()) {
    result.element_cycles.push_back(e.to_cycle_string());
  }
  result.subgroup = best->subgroup;
  result.subgroup_normal = best->normal;
  result.internalized_per_cluster = best->internalized;
  result.quotient = quotient_cayley_graph(*group, best->coset_of);
  result.description =
      "Cayley quotient by a subgroup of order " +
      std::to_string(target_order) +
      (best->normal ? " (normal)" : " (non-normal)") + ", internalizing " +
      std::to_string(best->internalized) + " messages per cluster";

  outcome.status = GroupContractStatus::Ok;
  outcome.result = std::move(result);
  return outcome;
}

}  // namespace oregami
