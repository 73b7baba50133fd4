#include "oregami/arch/topology.hpp"

#include <algorithm>
#include <bit>
#include <climits>
#include <cstdint>

#include "oregami/graph/gray_code.hpp"
#include "oregami/graph/shortest_paths.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

namespace {

/// Factory precondition: a bad shape is the caller's input error (a
/// typo'd topology spec, say), so it throws instead of aborting.
void require(bool ok, const char* message) {
  if (!ok) {
    throw MappingError(message);
  }
}

/// Processor count of a shape, refused when it or the link count would
/// overflow an int id.
int checked_procs(std::int64_t procs, std::int64_t links) {
  require(procs <= INT_MAX && links <= INT_MAX,
          "topology too large: processor or link ids overflow int");
  return static_cast<int>(procs);
}

}  // namespace

std::string to_string(TopoFamily family) {
  switch (family) {
    case TopoFamily::Custom:
      return "custom";
    case TopoFamily::Ring:
      return "ring";
    case TopoFamily::Chain:
      return "chain";
    case TopoFamily::Mesh:
      return "mesh";
    case TopoFamily::Torus:
      return "torus";
    case TopoFamily::Hypercube:
      return "hypercube";
    case TopoFamily::CompleteBinaryTree:
      return "complete-binary-tree";
    case TopoFamily::Star:
      return "star";
    case TopoFamily::Complete:
      return "complete";
    case TopoFamily::Butterfly:
      return "butterfly";
    case TopoFamily::Mesh3D:
      return "mesh3d";
  }
  return "custom";
}

Topology::Topology(std::string name, TopoFamily family,
                   std::vector<int> shape, Graph links)
    : name_(std::move(name)),
      family_(family),
      shape_(std::move(shape)),
      links_(std::move(links)),
      custom_dist_(family == TopoFamily::Custom
                       ? std::make_shared<CustomDistances>()
                       : nullptr),
      hop_table_(links_.num_vertices() <= kHopTableMaxProcs
                     ? std::make_shared<HopTable>()
                     : nullptr) {}

Topology Topology::ring(int p) {
  require(p >= 3, "ring needs at least 3 processors");
  Graph g(p);
  for (int i = 0; i < p; ++i) {
    g.add_edge(i, (i + 1) % p);
  }
  return Topology("ring(" + std::to_string(p) + ")", TopoFamily::Ring, {p},
                  std::move(g));
}

Topology Topology::chain(int p) {
  require(p >= 1, "chain needs at least 1 processor");
  Graph g(p);
  for (int i = 0; i + 1 < p; ++i) {
    g.add_edge(i, i + 1);
  }
  return Topology("chain(" + std::to_string(p) + ")", TopoFamily::Chain,
                  {p}, std::move(g));
}

Topology Topology::mesh(int rows, int cols) {
  require(rows >= 1 && cols >= 1, "mesh dimensions must be positive");
  Graph g(checked_procs(std::int64_t{rows} * cols,
                        std::int64_t{2} * rows * cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      if (c + 1 < cols) {
        g.add_edge(v, v + 1);
      }
      if (r + 1 < rows) {
        g.add_edge(v, v + cols);
      }
    }
  }
  return Topology(
      "mesh(" + std::to_string(rows) + "x" + std::to_string(cols) + ")",
      TopoFamily::Mesh, {rows, cols}, std::move(g));
}

Topology Topology::torus(int rows, int cols) {
  require(rows >= 3 && cols >= 3,
          "torus dimensions must be >= 3 (smaller wraps create "
          "parallel links)");
  Graph g(checked_procs(std::int64_t{rows} * cols,
                        std::int64_t{2} * rows * cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      g.add_edge(v, r * cols + (c + 1) % cols);
      g.add_edge(v, ((r + 1) % rows) * cols + c);
    }
  }
  return Topology(
      "torus(" + std::to_string(rows) + "x" + std::to_string(cols) + ")",
      TopoFamily::Torus, {rows, cols}, std::move(g));
}

Topology Topology::hypercube(int dim) {
  require(dim >= 0 && dim <= 20, "hypercube dimension out of range");
  const int p = 1 << dim;
  Graph g(p);
  for (int v = 0; v < p; ++v) {
    for (int b = 0; b < dim; ++b) {
      const int w = v ^ (1 << b);
      if (v < w) {
        g.add_edge(v, w);
      }
    }
  }
  return Topology("hypercube(" + std::to_string(dim) + ")",
                  TopoFamily::Hypercube, {dim}, std::move(g));
}

Topology Topology::complete_binary_tree(int levels) {
  require(levels >= 1, "tree needs at least one level");
  require(levels <= 30, "tree too large: processor ids overflow int");
  const int p = (1 << levels) - 1;
  Graph g(p);
  for (int v = 1; v < p; ++v) {
    g.add_edge(v, (v - 1) / 2);
  }
  return Topology("cbt(" + std::to_string(levels) + ")",
                  TopoFamily::CompleteBinaryTree, {levels}, std::move(g));
}

Topology Topology::star(int p) {
  require(p >= 2, "star needs at least 2 processors");
  Graph g(p);
  for (int v = 1; v < p; ++v) {
    g.add_edge(0, v);
  }
  return Topology("star(" + std::to_string(p) + ")", TopoFamily::Star, {p},
                  std::move(g));
}

Topology Topology::complete(int p) {
  require(p >= 2, "complete graph needs at least 2 processors");
  Graph g(checked_procs(p, std::int64_t{p} * (p - 1) / 2));
  for (int u = 0; u < p; ++u) {
    for (int v = u + 1; v < p; ++v) {
      g.add_edge(u, v);
    }
  }
  return Topology("complete(" + std::to_string(p) + ")",
                  TopoFamily::Complete, {p}, std::move(g));
}

Topology Topology::butterfly(int k) {
  require(k >= 1 && k <= 12, "butterfly order out of range");
  // (k+1) ranks x 2^k columns; rank l node of column c connects to rank
  // l+1 nodes of columns c and c ^ (1 << l) (straight + cross edges).
  const int cols = 1 << k;
  const int p = (k + 1) * cols;
  Graph g(p);
  auto id = [cols](int rank, int col) { return rank * cols + col; };
  for (int rank = 0; rank < k; ++rank) {
    for (int col = 0; col < cols; ++col) {
      g.add_edge(id(rank, col), id(rank + 1, col));
      g.add_edge(id(rank, col), id(rank + 1, col ^ (1 << rank)));
    }
  }
  return Topology("butterfly(" + std::to_string(k) + ")",
                  TopoFamily::Butterfly, {k}, std::move(g));
}

Topology Topology::mesh3d(int nx, int ny, int nz) {
  require(nx >= 1 && ny >= 1 && nz >= 1,
          "mesh3d dimensions must be positive");
  const std::int64_t procs = std::int64_t{nx} * ny * nz;
  Graph g(checked_procs(procs, 3 * procs));
  auto id = [ny, nz](int x, int y, int z) { return (x * ny + y) * nz + z; };
  for (int x = 0; x < nx; ++x) {
    for (int y = 0; y < ny; ++y) {
      for (int z = 0; z < nz; ++z) {
        if (x + 1 < nx) {
          g.add_edge(id(x, y, z), id(x + 1, y, z));
        }
        if (y + 1 < ny) {
          g.add_edge(id(x, y, z), id(x, y + 1, z));
        }
        if (z + 1 < nz) {
          g.add_edge(id(x, y, z), id(x, y, z + 1));
        }
      }
    }
  }
  return Topology("mesh3d(" + std::to_string(nx) + "x" +
                      std::to_string(ny) + "x" + std::to_string(nz) + ")",
                  TopoFamily::Mesh3D, {nx, ny, nz}, std::move(g));
}

Topology Topology::custom(std::string name, Graph links) {
  return Topology(std::move(name), TopoFamily::Custom, {},
                  std::move(links));
}

std::optional<int> Topology::link_between(int u, int v) const {
  for (const auto& a : links_.neighbors(u)) {
    if (a.neighbor == v) {
      return a.edge_id;
    }
  }
  return std::nullopt;
}

std::pair<int, int> Topology::link_endpoints(int l) const {
  OREGAMI_ASSERT(l >= 0 && l < num_links(), "link id out of range");
  const auto& e = links_.edges()[static_cast<std::size_t>(l)];
  return {e.u, e.v};
}

const Topology::CustomDistances& Topology::custom_distances() const {
  auto& state = *custom_dist_;
  // call_once both serialises the fill and publishes it: every thread
  // returning from here sees the completed table, so an unwarmed Custom
  // topology can be shared across threads safely (the hazard the PR-1
  // portfolio worked around with an explicit pre-warm).
  std::call_once(state.once, [&] {
    const int p = num_procs();
    state.flat.resize(static_cast<std::size_t>(p) *
                      static_cast<std::size_t>(p));
    for (int u = 0; u < p; ++u) {
      const std::vector<int> row = bfs_distances(links_, u);
      std::copy(row.begin(), row.end(),
                state.flat.begin() +
                    static_cast<std::ptrdiff_t>(u) * p);
    }
    for (const int d : state.flat) {
      state.min_entry = std::min(state.min_entry, d);
      state.diameter = std::max(state.diameter, d);
    }
  });
  return state;
}

int Topology::distance(int u, int v) const {
  OREGAMI_ASSERT(u >= 0 && u < num_procs() && v >= 0 && v < num_procs(),
                 "processor id out of range");
  switch (family_) {
    case TopoFamily::Ring: {
      const int d = u < v ? v - u : u - v;
      return std::min(d, shape_[0] - d);
    }
    case TopoFamily::Chain:
      return u < v ? v - u : u - v;
    case TopoFamily::Mesh: {
      const int cols = shape_[1];
      const int dr = u / cols - v / cols;
      const int dc = u % cols - v % cols;
      return (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
    }
    case TopoFamily::Torus: {
      const int rows = shape_[0];
      const int cols = shape_[1];
      int dr = u / cols - v / cols;
      int dc = u % cols - v % cols;
      dr = dr < 0 ? -dr : dr;
      dc = dc < 0 ? -dc : dc;
      return std::min(dr, rows - dr) + std::min(dc, cols - dc);
    }
    case TopoFamily::Hypercube:
      return std::popcount(static_cast<unsigned>(u ^ v));
    case TopoFamily::CompleteBinaryTree: {
      // Heap numbering (children of v are 2v+1, 2v+2): lift the deeper
      // node to the other's level, then lift both to the LCA.
      int a = u;
      int b = v;
      int da = static_cast<int>(
                   std::bit_width(static_cast<unsigned>(a) + 1u)) - 1;
      int db = static_cast<int>(
                   std::bit_width(static_cast<unsigned>(b) + 1u)) - 1;
      int d = 0;
      for (; da > db; --da, ++d) {
        a = (a - 1) / 2;
      }
      for (; db > da; --db, ++d) {
        b = (b - 1) / 2;
      }
      while (a != b) {
        a = (a - 1) / 2;
        b = (b - 1) / 2;
        d += 2;
      }
      return d;
    }
    case TopoFamily::Star:
      return u == v ? 0 : (u == 0 || v == 0 ? 1 : 2);
    case TopoFamily::Complete:
      return u == v ? 0 : 1;
    case TopoFamily::Butterfly: {
      // Node = (rank, column). The only edges sit between consecutive
      // ranks, and crossing the (b, b+1) transition may flip column bit
      // b. A walk from rank r1 to r2 that fixes the differing bits must
      // therefore visit rank lo = lowest differing bit and rank hi =
      // highest differing bit + 1; the cheapest such walk sweeps down
      // first or up first, whichever is shorter.
      const int cols = 1 << shape_[0];
      const int r1 = u / cols;
      const int r2 = v / cols;
      const unsigned diff =
          static_cast<unsigned>((u % cols) ^ (v % cols));
      if (diff == 0) {
        return r1 < r2 ? r2 - r1 : r1 - r2;
      }
      const int lo = std::countr_zero(diff);
      const int hi = static_cast<int>(std::bit_width(diff));
      const int low = std::min({r1, r2, lo});
      const int high = std::max({r1, r2, hi});
      const int down_first = (r1 - low) + (high - low) + (high - r2);
      const int up_first = (high - r1) + (high - low) + (r2 - low);
      return std::min(down_first, up_first);
    }
    case TopoFamily::Mesh3D: {
      const int ny = shape_[1];
      const int nz = shape_[2];
      const int dx = u / (ny * nz) - v / (ny * nz);
      const int dy = (u / nz) % ny - (v / nz) % ny;
      const int dz = u % nz - v % nz;
      return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy) +
             (dz < 0 ? -dz : dz);
    }
    case TopoFamily::Custom:
      return custom_distances()
          .flat[static_cast<std::size_t>(u) *
                    static_cast<std::size_t>(num_procs()) +
                static_cast<std::size_t>(v)];
  }
  return 0;  // unreachable
}

DistanceRow Topology::distance_row(int u) const {
  OREGAMI_ASSERT(u >= 0 && u < num_procs(), "processor id out of range");
  const int* row = nullptr;
  if (family_ == TopoFamily::Custom) {
    row = custom_distances().flat.data() +
          static_cast<std::size_t>(u) * static_cast<std::size_t>(num_procs());
  }
  return DistanceRow(*this, u, row);
}

Topology::Hop Topology::scan_hop(const DistanceRow& to_dst, int cur) const {
  const int here = to_dst[cur];
  Hop hop;
  for (const auto& a : links_.neighbors(cur)) {
    if (to_dst[a.neighbor] == here - 1 &&
        (hop.next == -1 || a.neighbor < hop.next)) {
      hop = {a.neighbor, a.edge_id};
    }
  }
  return hop;
}

Topology::Hop Topology::greedy_hop_slow(int cur, int dst) const {
  if (hop_table_ == nullptr) {
    return scan_hop(distance_row(dst), cur);
  }
  auto& table = *hop_table_;
  std::call_once(table.once, [&] {
    const auto p = static_cast<std::size_t>(num_procs());
    table.hops.resize(p * p);
    for (std::size_t d = 0; d < p; ++d) {
      const DistanceRow to_dst = distance_row(static_cast<int>(d));
      for (std::size_t c = 0; c < p; ++c) {
        table.hops[d * p + c] = scan_hop(to_dst, static_cast<int>(c));
      }
    }
    table.ready.store(table.hops.data(), std::memory_order_release);
  });
  return greedy_hop(cur, dst);
}

void Topology::precompute_distances() const {
  if (family_ == TopoFamily::Custom && num_procs() > 0) {
    (void)custom_distances();
  }
}

int Topology::diameter() const {
  switch (family_) {
    case TopoFamily::Ring:
      return shape_[0] / 2;
    case TopoFamily::Chain:
      return shape_[0] - 1;
    case TopoFamily::Mesh:
      return (shape_[0] - 1) + (shape_[1] - 1);
    case TopoFamily::Torus:
      return shape_[0] / 2 + shape_[1] / 2;
    case TopoFamily::Hypercube:
      return shape_[0];
    case TopoFamily::CompleteBinaryTree:
      return 2 * (shape_[0] - 1);
    case TopoFamily::Star:
      return num_procs() <= 2 ? num_procs() - 1 : 2;
    case TopoFamily::Complete:
      return 1;
    case TopoFamily::Butterfly:
      return 2 * shape_[0];
    case TopoFamily::Mesh3D:
      return (shape_[0] - 1) + (shape_[1] - 1) + (shape_[2] - 1);
    case TopoFamily::Custom: {
      if (num_procs() == 0) {
        return 0;
      }
      const auto& state = custom_distances();
      OREGAMI_ASSERT(state.min_entry >= 0, "topology must be connected");
      return state.diameter;
    }
  }
  return 0;  // unreachable
}

std::string Topology::proc_label(int p) const {
  switch (family_) {
    case TopoFamily::Mesh:
    case TopoFamily::Torus: {
      const auto [r, c] = coords2d(p);
      return "(" + std::to_string(r) + "," + std::to_string(c) + ")";
    }
    case TopoFamily::Hypercube: {
      const int dim = shape_[0];
      std::string bits;
      for (int b = dim - 1; b >= 0; --b) {
        bits += ((p >> b) & 1) ? '1' : '0';
      }
      return bits.empty() ? "0" : bits;
    }
    default:
      return std::to_string(p);
  }
}

std::pair<int, int> Topology::coords2d(int p) const {
  OREGAMI_ASSERT(family_ == TopoFamily::Mesh || family_ == TopoFamily::Torus,
                 "coords2d requires a 2-D mesh/torus topology");
  const int cols = shape_[1];
  return {p / cols, p % cols};
}

int Topology::at2d(int r, int c) const {
  OREGAMI_ASSERT(family_ == TopoFamily::Mesh || family_ == TopoFamily::Torus,
                 "at2d requires a 2-D mesh/torus topology");
  OREGAMI_ASSERT(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1],
                 "mesh coordinates out of range");
  return r * shape_[1] + c;
}

}  // namespace oregami
