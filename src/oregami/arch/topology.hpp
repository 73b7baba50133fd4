// Interconnection-network models (paper §1: "homogeneous processors
// connected by some regular network topology" -- iPSC/2, NCUBE,
// Transputer class machines).
//
// A Topology is an undirected link graph over processors [0, P), plus
// family metadata (so canned mappings and dimension-order routing can
// exploit structure). Hop distances come from closed-form O(1) oracles
// for every regular family (index arithmetic, per-axis Manhattan,
// popcount, LCA depth, butterfly rank arithmetic); only Custom
// topologies fall back to a BFS all-pairs table, stored as one flat
// row-major allocation and filled exactly once under std::call_once.
// Every const distance query is therefore allocation-free and safe to
// call concurrently from multiple threads.
//
// Greedy routing (one shortest-path step at a time) has one rule,
// greedy_hop(). Machines of at most kHopTableMaxProcs processors answer
// it from a P*P next-hop table built lazily the same way; larger ones
// scan the neighbours' distances on every call.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "oregami/graph/graph.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

enum class TopoFamily {
  Custom,
  Ring,
  Chain,
  Mesh,     ///< shape {rows, cols}
  Torus,    ///< shape {rows, cols}
  Hypercube,///< shape {dim}
  CompleteBinaryTree,  ///< shape {levels}
  Star,
  Complete,
  Butterfly,  ///< shape {k}: (k+1) ranks of 2^k switches
  Mesh3D,     ///< shape {nx, ny, nz}
};

[[nodiscard]] std::string to_string(TopoFamily family);

class Topology;

/// View of one source row of the hop-distance matrix. For Custom
/// topologies it points straight into the flat BFS table; for regular
/// families each access evaluates the closed-form oracle. Cheap to
/// copy, valid as long as the Topology it came from.
class DistanceRow {
 public:
  [[nodiscard]] int operator[](int v) const;
  [[nodiscard]] int operator[](std::size_t v) const {
    return (*this)[static_cast<int>(v)];
  }
  [[nodiscard]] int source() const { return u_; }

 private:
  friend class Topology;
  DistanceRow(const Topology& topo, int u, const int* row)
      : topo_(&topo), u_(u), row_(row) {}

  const Topology* topo_;
  int u_;
  const int* row_;  ///< flat table row (Custom) or nullptr (closed form)
};

class Topology {
 public:
  /// Largest machine that gets a greedy next-hop table: P^2 entries of
  /// 8 bytes, so at most 512 KiB and P^2 * degree work to build.
  static constexpr int kHopTableMaxProcs = 256;

  /// One greedy routing step (see greedy_hop). Both fields are -1 when
  /// there is no step to take.
  struct Hop {
    int next = -1;  ///< neighbour one hop closer to the destination
    int link = -1;  ///< link to it: the first adjacency entry
  };

  /// Factories for the regular networks OREGAMI targets. Each throws
  /// MappingError on a shape its family does not allow (ring < 3,
  /// torus side < 3, hypercube dimension outside [0, 20], butterfly
  /// order outside [1, 12], ...) or whose processor or link count
  /// overflows int.
  static Topology ring(int p);
  static Topology chain(int p);
  static Topology mesh(int rows, int cols);
  static Topology torus(int rows, int cols);
  static Topology hypercube(int dim);
  static Topology complete_binary_tree(int levels);
  static Topology star(int p);
  static Topology complete(int p);
  static Topology butterfly(int k);
  static Topology mesh3d(int nx, int ny, int nz);

  /// An arbitrary processor graph (family = Custom).
  static Topology custom(std::string name, Graph links);

  [[nodiscard]] int num_procs() const { return links_.num_vertices(); }
  [[nodiscard]] int num_links() const { return links_.num_edges(); }
  [[nodiscard]] const Graph& graph() const { return links_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TopoFamily family() const { return family_; }
  [[nodiscard]] const std::vector<int>& shape() const { return shape_; }

  /// Link id joining processors u and v, or nullopt when not adjacent.
  [[nodiscard]] std::optional<int> link_between(int u, int v) const;

  /// Endpoints of link `l` (normalised u < v).
  [[nodiscard]] std::pair<int, int> link_endpoints(int l) const;

  /// Hop distance: closed-form O(1) for every regular family, flat BFS
  /// table lookup for Custom (filled once, thread-safely). For a
  /// disconnected Custom topology unreachable pairs report -1, matching
  /// bfs_distances().
  [[nodiscard]] int distance(int u, int v) const;

  /// Distance row view from `u` (see DistanceRow).
  [[nodiscard]] DistanceRow distance_row(int u) const;

  /// Forces the Custom BFS table to be built now (no-op for regular
  /// families, whose oracles never allocate). Purely an optional
  /// warm-up: all const distance queries are thread-safe without it --
  /// the Custom fill is guarded by std::call_once.
  void precompute_distances() const;

  [[nodiscard]] int diameter() const;

  /// The greedy shortest-route rule: the lowest-numbered neighbour of
  /// `cur` one hop closer to `dst`, with the link link_between(cur,
  /// next) reports. Returns {-1, -1} when cur == dst or dst cannot be
  /// reached. Reads the next-hop table when P <= kHopTableMaxProcs
  /// (built on first use, thread-safely) and scans the neighbours
  /// otherwise; both give the same answer.
  [[nodiscard]] Hop greedy_hop(int cur, int dst) const;

  /// True when greedy_hop is answered from a table (P <= the limit).
  [[nodiscard]] bool has_hop_table() const { return hop_table_ != nullptr; }

  /// Human label for a processor: plain index, mesh coordinates
  /// "(r,c)", or binary address for hypercubes.
  [[nodiscard]] std::string proc_label(int p) const;

  /// Mesh/torus row-col coordinates of p. Requires a 2-D family.
  [[nodiscard]] std::pair<int, int> coords2d(int p) const;

  /// Processor at mesh/torus coordinates (r, c).
  [[nodiscard]] int at2d(int r, int c) const;

 private:
  Topology(std::string name, TopoFamily family, std::vector<int> shape,
           Graph links);

  /// Custom-family lazy state: one flat row-major P*P table, built
  /// exactly once. Held by shared_ptr so copies of a Topology share the
  /// (immutable-once-published) table instead of re-running BFS.
  struct CustomDistances {
    std::once_flag once;
    std::vector<int> flat;  ///< row-major, flat[u * P + v]
    int min_entry = 0;      ///< < 0 iff the graph is disconnected
    int diameter = 0;
  };

  [[nodiscard]] const CustomDistances& custom_distances() const;

  /// Greedy next-hop table, shared by copies like CustomDistances.
  struct HopTable {
    std::once_flag once;
    std::vector<Hop> hops;  ///< hops[dst * P + cur]
    /// hops.data() once filled: the lookup's fast path, one acquire
    /// load instead of a call_once per hop.
    std::atomic<const Hop*> ready{nullptr};
  };

  /// greedy_hop before the table is published: builds it under
  /// std::call_once, or scans when the machine is above the limit.
  [[nodiscard]] Hop greedy_hop_slow(int cur, int dst) const;
  [[nodiscard]] Hop scan_hop(const DistanceRow& to_dst, int cur) const;

  std::string name_;
  TopoFamily family_;
  std::vector<int> shape_;
  Graph links_;
  // Allocated only for Custom; mutable because the once-fill happens
  // behind logically-const distance queries.
  mutable std::shared_ptr<CustomDistances> custom_dist_;
  // Allocated only when P <= kHopTableMaxProcs; filled on first use.
  std::shared_ptr<HopTable> hop_table_;
};

inline int DistanceRow::operator[](int v) const {
  return row_ != nullptr ? row_[v] : topo_->distance(u_, v);
}

// Inline: greedy_hop runs once per hop of every route the incremental
// scorer walks, so the table lookup must not cost a call.
inline Topology::Hop Topology::greedy_hop(int cur, int dst) const {
  OREGAMI_ASSERT(cur >= 0 && cur < num_procs() && dst >= 0 &&
                     dst < num_procs(),
                 "processor id out of range");
  const Hop* hops = hop_table_ == nullptr
                        ? nullptr
                        : hop_table_->ready.load(std::memory_order_acquire);
  if (hops == nullptr) {
    return greedy_hop_slow(cur, dst);
  }
  return hops[static_cast<std::size_t>(dst) *
                  static_cast<std::size_t>(num_procs()) +
              static_cast<std::size_t>(cur)];
}

}  // namespace oregami
