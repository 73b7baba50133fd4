// Route machinery over a Topology: shortest-route choice enumeration
// (the "table of routing information" MM-Route consults in Fig 6),
// deterministic dimension-order routes for baselines, and route
// validity checking.
#pragma once

#include <vector>

#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"

namespace oregami {

/// Neighbors of `from` that lie on some shortest path to `dst`
/// (distance decreases by one). Empty when from == dst.
[[nodiscard]] std::vector<int> next_hop_choices(const Topology& topo,
                                                int from, int dst);

/// All shortest paths from src to dst as Route objects, capped at
/// `limit` paths (enumeration order: neighbor id ascending, depth
/// first). With limit = 0 returns every shortest path.
[[nodiscard]] std::vector<Route> all_shortest_routes(const Topology& topo,
                                                     int src, int dst,
                                                     std::size_t limit = 0);

/// Number of distinct shortest paths src -> dst (counted exactly with
/// 64-bit arithmetic).
[[nodiscard]] std::uint64_t count_shortest_routes(const Topology& topo,
                                                  int src, int dst);

/// One canonical shortest route chosen greedily: Topology::greedy_hop
/// at each step (lowest-numbered next hop).
[[nodiscard]] Route greedy_shortest_route(const Topology& topo, int src,
                                          int dst);

/// Dimension-order (e-cube / XY) route. Supported for Hypercube
/// (ascending bit corrections), Mesh and Torus (column first, then
/// row), Ring and Chain (the only shortest direction). Throws
/// MappingError for other families.
[[nodiscard]] Route dimension_order_route(const Topology& topo, int src,
                                          int dst);

/// Builds a Route from a processor sequence, resolving link ids;
/// throws MappingError when consecutive processors are not adjacent.
[[nodiscard]] Route route_from_nodes(const Topology& topo,
                                     std::vector<int> nodes);

/// True when the route is well-formed on `topo`: node/link sequences
/// consistent, every link real and joining its adjacent node pair, and
/// endpoints equal to src/dst.
[[nodiscard]] bool is_valid_route(const Topology& topo, const Route& route,
                                  int src, int dst);

/// True additionally when the route length equals the hop distance.
[[nodiscard]] bool is_shortest_route(const Topology& topo,
                                     const Route& route, int src, int dst);

}  // namespace oregami
