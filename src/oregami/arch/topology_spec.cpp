#include "oregami/arch/topology_spec.hpp"

#include <climits>
#include <vector>

#include "oregami/support/error.hpp"

namespace oregami {

namespace {

std::vector<int> parse_dims(const std::string& text,
                            const std::string& spec) {
  std::vector<int> dims;
  int value = 0;
  bool have_digit = false;
  for (const char c : text + "x") {
    if (c >= '0' && c <= '9') {
      if (value > (INT_MAX - (c - '0')) / 10) {
        throw MappingError("topology spec '" + spec +
                           "': dimension overflows int");
      }
      value = value * 10 + (c - '0');
      have_digit = true;
    } else if (c == 'x') {
      if (!have_digit) {
        throw MappingError("bad topology spec '" + spec + "'\n" +
                           topology_spec_help());
      }
      dims.push_back(value);
      value = 0;
      have_digit = false;
    } else {
      throw MappingError("bad topology spec '" + spec + "'\n" +
                         topology_spec_help());
    }
  }
  return dims;
}

}  // namespace

Topology parse_topology_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    throw MappingError("bad topology spec '" + spec + "'\n" +
                       topology_spec_help());
  }
  const std::string family = spec.substr(0, colon);
  const auto dims = parse_dims(spec.substr(colon + 1), spec);
  auto expect_dims = [&](std::size_t count) {
    if (dims.size() != count) {
      throw MappingError("topology '" + family + "' expects " +
                         std::to_string(count) + " dimension(s)\n" +
                         topology_spec_help());
    }
  };
  if (family == "hypercube" || family == "cube") {
    expect_dims(1);
    return Topology::hypercube(dims[0]);
  }
  if (family == "mesh" || family == "grid") {
    expect_dims(2);
    return Topology::mesh(dims[0], dims[1]);
  }
  if (family == "torus") {
    expect_dims(2);
    return Topology::torus(dims[0], dims[1]);
  }
  if (family == "ring") {
    expect_dims(1);
    return Topology::ring(dims[0]);
  }
  if (family == "chain") {
    expect_dims(1);
    return Topology::chain(dims[0]);
  }
  if (family == "cbt" || family == "tree") {
    expect_dims(1);
    return Topology::complete_binary_tree(dims[0]);
  }
  if (family == "star") {
    expect_dims(1);
    return Topology::star(dims[0]);
  }
  if (family == "complete" || family == "clique") {
    expect_dims(1);
    return Topology::complete(dims[0]);
  }
  if (family == "butterfly") {
    expect_dims(1);
    return Topology::butterfly(dims[0]);
  }
  if (family == "mesh3d") {
    expect_dims(3);
    return Topology::mesh3d(dims[0], dims[1], dims[2]);
  }
  throw MappingError("unknown topology family '" + family + "'\n" +
                     topology_spec_help());
}

std::string topology_spec_help() {
  return "accepted topology specs:\n"
         "  hypercube:D   mesh:RxC    torus:RxC    ring:P    chain:P\n"
         "  cbt:LEVELS    star:P      complete:P   butterfly:K\n"
         "  mesh3d:XxYxZ";
}

}  // namespace oregami
