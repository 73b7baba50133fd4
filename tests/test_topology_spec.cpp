#include <gtest/gtest.h>

#include "oregami/arch/topology_spec.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

TEST(TopologySpec, AllFamiliesParse) {
  EXPECT_EQ(parse_topology_spec("hypercube:3").num_procs(), 8);
  EXPECT_EQ(parse_topology_spec("cube:4").family(), TopoFamily::Hypercube);
  EXPECT_EQ(parse_topology_spec("mesh:4x5").num_procs(), 20);
  EXPECT_EQ(parse_topology_spec("grid:2x3").family(), TopoFamily::Mesh);
  EXPECT_EQ(parse_topology_spec("torus:3x4").num_procs(), 12);
  EXPECT_EQ(parse_topology_spec("ring:9").family(), TopoFamily::Ring);
  EXPECT_EQ(parse_topology_spec("chain:5").num_procs(), 5);
  EXPECT_EQ(parse_topology_spec("cbt:3").num_procs(), 7);
  EXPECT_EQ(parse_topology_spec("tree:4").family(),
            TopoFamily::CompleteBinaryTree);
  EXPECT_EQ(parse_topology_spec("star:6").num_procs(), 6);
  EXPECT_EQ(parse_topology_spec("complete:5").num_links(), 10);
  EXPECT_EQ(parse_topology_spec("clique:4").family(),
            TopoFamily::Complete);
  EXPECT_EQ(parse_topology_spec("butterfly:2").num_procs(), 12);
  EXPECT_EQ(parse_topology_spec("mesh3d:2x3x4").num_procs(), 24);
}

TEST(TopologySpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)parse_topology_spec(""), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh"), MappingError);
  EXPECT_THROW((void)parse_topology_spec(":4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:4x4x4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:4xx4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("mesh:axb"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("frobnitz:4"), MappingError);
  EXPECT_THROW((void)parse_topology_spec("hypercube:3x3"), MappingError);
}

TEST(TopologySpec, ShapesOutsideAFamilysDomainThrow) {
  // Each of these used to reach a factory precondition and abort the
  // process; a daemon must be able to answer them as bad input.
  for (const char* spec :
       {"torus:2x8", "torus:8x2", "ring:2", "hypercube:21", "butterfly:13",
        "butterfly:0", "star:1", "complete:1", "mesh:0x4", "mesh:4x0",
        "tree:0", "cbt:31", "chain:0", "mesh3d:2x0x2"}) {
    EXPECT_THROW((void)parse_topology_spec(spec), MappingError) << spec;
  }
}

TEST(TopologySpec, CountsThatOverflowIntThrow) {
  for (const char* spec :
       {"ring:99999999999", "mesh:4x2147483648", "mesh:65536x65536",
        "torus:50000x50000", "mesh3d:2048x2048x2048", "complete:70000"}) {
    EXPECT_THROW((void)parse_topology_spec(spec), MappingError) << spec;
  }
}

TEST(TopologySpec, DomainErrorsNameTheReason) {
  try {
    (void)parse_topology_spec("torus:2x8");
    FAIL();
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("torus dimensions must be >= 3"),
              std::string::npos);
  }
}

TEST(TopologySpec, ErrorsIncludeHelp) {
  try {
    (void)parse_topology_spec("nope:1");
    FAIL();
  } catch (const MappingError& e) {
    EXPECT_NE(std::string(e.what()).find("hypercube:D"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace oregami
