#include <gtest/gtest.h>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/larcs/render.hpp"

namespace oregami::larcs {
namespace {

/// Structural equality through compilation: both programs expand to the
/// same task graph under the same bindings.
void expect_same_expansion(const Program& a, const Program& b,
                           const std::map<std::string, long>& bindings) {
  const auto ca = compile(a, bindings);
  const auto cb = compile(b, bindings);
  ASSERT_EQ(ca.graph.num_tasks(), cb.graph.num_tasks());
  ASSERT_EQ(ca.graph.comm_phases().size(), cb.graph.comm_phases().size());
  for (std::size_t k = 0; k < ca.graph.comm_phases().size(); ++k) {
    const auto& pa = ca.graph.comm_phases()[k];
    const auto& pb = cb.graph.comm_phases()[k];
    EXPECT_EQ(pa.name, pb.name);
    ASSERT_EQ(pa.edges.size(), pb.edges.size());
    for (std::size_t i = 0; i < pa.edges.size(); ++i) {
      EXPECT_EQ(pa.edges[i].src, pb.edges[i].src);
      EXPECT_EQ(pa.edges[i].dst, pb.edges[i].dst);
      EXPECT_EQ(pa.edges[i].volume, pb.edges[i].volume);
    }
  }
  ASSERT_EQ(ca.graph.exec_phases().size(), cb.graph.exec_phases().size());
  for (std::size_t k = 0; k < ca.graph.exec_phases().size(); ++k) {
    EXPECT_EQ(ca.graph.exec_phases()[k].cost,
              cb.graph.exec_phases()[k].cost);
  }
  EXPECT_EQ(ca.graph.phase_multiplicity().comm,
            cb.graph.phase_multiplicity().comm);
  EXPECT_EQ(ca.graph.declared_node_symmetric(),
            cb.graph.declared_node_symmetric());
}

TEST(Render, WholeCatalogRoundTrips) {
  for (const auto& entry : programs::catalog()) {
    const auto original = parse_program(entry.source);
    const auto rendered = render_program(original);
    Program reparsed;
    ASSERT_NO_THROW(reparsed = parse_program(rendered))
        << entry.name << "\n" << rendered;
    std::map<std::string, long> bindings(entry.example_bindings.begin(),
                                         entry.example_bindings.end());
    expect_same_expansion(original, reparsed, bindings);
  }
}

TEST(Render, IsAFixpoint) {
  for (const auto& entry : programs::catalog()) {
    const auto once = render_program(parse_program(entry.source));
    const auto twice = render_program(parse_program(once));
    EXPECT_EQ(once, twice) << entry.name;
  }
}

TEST(Render, PreservesEveryDeclarationKind) {
  const auto program = parse_program(
      "algorithm full(n, s);\n"
      "import m, w;\n"
      "const half = n / 2;\n"
      "family ring;\n"
      "nodetype a[i: 0 .. n-1] nodesymmetric;\n"
      "nodetype b[i: 0 .. half-1, j: 0 .. 1];\n"
      "comphase p {\n"
      "  a(i) -> a((i + 1) mod n) volume m;\n"
      "  b(i, j) -> b(i, 1 - j) forall k: 0 .. 1 when j == 0 volume w;\n"
      "}\n"
      "exphase e cost i * 2;\n"
      "phases (p; e)^s || eps;\n");
  const auto rendered = render_program(program);
  EXPECT_NE(rendered.find("import m, w;"), std::string::npos);
  EXPECT_NE(rendered.find("const half"), std::string::npos);
  EXPECT_NE(rendered.find("family ring;"), std::string::npos);
  EXPECT_NE(rendered.find("nodesymmetric"), std::string::npos);
  EXPECT_NE(rendered.find("forall k"), std::string::npos);
  EXPECT_NE(rendered.find("when"), std::string::npos);
  EXPECT_NE(rendered.find("volume"), std::string::npos);
  EXPECT_NE(rendered.find("phases"), std::string::npos);
  EXPECT_NE(rendered.find("eps"), std::string::npos);
  // And it reparses.
  EXPECT_NO_THROW((void)parse_program(rendered));
}

TEST(Render, GeneratedProgramsRoundTrip) {
  for (const std::string source :
       {programs::fft(4), programs::broadcast_vote(16)}) {
    const auto original = parse_program(source);
    const auto reparsed = parse_program(render_program(original));
    std::map<std::string, long> bindings{{"n", 16}};
    expect_same_expansion(original, reparsed, bindings);
  }
}

}  // namespace
}  // namespace oregami::larcs
