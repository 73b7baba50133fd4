// Fuzz-style robustness harness for the LaRCS front end: mutated and
// truncated variants of every shipped sample must either compile or
// fail with a LarcsError carrying a usable SourceLoc. Crashing,
// hanging, or tripping OREGAMI_ASSERT on *input* (as opposed to
// internal state) is a bug -- malformed source is user data, not a
// precondition violation.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/support/error.hpp"

#ifndef OREGAMI_SAMPLES_DIR
#error "OREGAMI_SAMPLES_DIR must point at the repository's samples/"
#endif

namespace oregami {
namespace {

struct Sample {
  const char* file;
  std::map<std::string, long> bindings;
};

const std::vector<Sample>& samples() {
  static const std::vector<Sample> kSamples = {
      {"nbody.larcs", {{"n", 15}, {"s", 4}, {"m", 8}}},
      {"pipeline.larcs", {{"stages", 12}, {"rounds", 100}}},
      {"reduce_tree.larcs", {{"h", 4}}},
      {"wavefront.larcs", {{"n", 8}}},
  };
  return kSamples;
}

std::string read_sample(const char* file) {
  const std::string path = std::string(OREGAMI_SAMPLES_DIR) + "/" + file;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int line_count(const std::string& text) {
  int lines = 1;
  for (const char c : text) {
    if (c == '\n') {
      ++lines;
    }
  }
  return lines;
}

/// Deterministic xorshift so every run exercises the same mutants.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Compiles `source`; the only acceptable failure is a LarcsError whose
/// SourceLoc points into (or just past) the text.
void expect_compiles_or_located_error(const std::string& source,
                                      const Sample& sample,
                                      const std::string& what) {
  try {
    (void)larcs::compile_source(source, sample.bindings);
  } catch (const LarcsError& e) {
    const SourceLoc& loc = e.loc();
    EXPECT_GE(loc.line, 1) << sample.file << " " << what
                           << ": unlocated LarcsError: " << e.what();
    EXPECT_GE(loc.column, 1)
        << sample.file << " " << what
        << ": unlocated LarcsError: " << e.what();
    // "Just past" covers end-of-file errors on a trailing newline.
    EXPECT_LE(loc.line, line_count(source) + 1)
        << sample.file << " " << what << ": loc " << loc.to_string()
        << " beyond the source: " << e.what();
  }
  // Any other exception type propagates and fails the test.
}

TEST(LarcsRobustness, PristineSamplesCompile) {
  for (const Sample& sample : samples()) {
    const std::string source = read_sample(sample.file);
    EXPECT_NO_THROW((void)larcs::compile_source(source, sample.bindings))
        << sample.file;
  }
}

TEST(LarcsRobustness, TruncationsFailWithLocatedErrors) {
  // ~16 truncation points per sample (64 variants in total): cut the
  // file at evenly spaced offsets, snapped forward to token boundaries
  // by nothing in particular -- raw byte cuts are the harsher test.
  for (const Sample& sample : samples()) {
    const std::string source = read_sample(sample.file);
    for (int i = 1; i <= 16; ++i) {
      const std::size_t cut = source.size() * i / 17;
      expect_compiles_or_located_error(
          source.substr(0, cut), sample,
          "truncated at byte " + std::to_string(cut));
    }
  }
}

TEST(LarcsRobustness, ByteMutationsFailWithLocatedErrors) {
  // 64 random single-edit mutants per sample (256 in total): replace,
  // delete, insert, or duplicate a span. Seeded per file name so the
  // corpus is stable run to run.
  for (const Sample& sample : samples()) {
    const std::string source = read_sample(sample.file);
    Rng rng{0x5EEDF00DULL ^ std::hash<std::string>{}(sample.file)};
    for (int trial = 0; trial < 64; ++trial) {
      std::string mutated = source;
      const std::size_t pos = rng.next() % mutated.size();
      switch (rng.next() % 4) {
        case 0:  // replace with a random printable byte
          mutated[pos] = static_cast<char>('!' + rng.next() % 94);
          break;
        case 1:  // delete a short span
          mutated.erase(pos, 1 + rng.next() % 8);
          break;
        case 2:  // insert structural noise
          mutated.insert(pos, ";)}{(" + std::to_string(rng.next() % 100));
          break;
        default:  // duplicate a span (often re-declares something)
          mutated.insert(pos, mutated.substr(pos, 1 + rng.next() % 16));
          break;
      }
      expect_compiles_or_located_error(
          mutated, sample, "mutant #" + std::to_string(trial));
    }
  }
}

TEST(LarcsRobustness, DegenerateInputsFailCleanly) {
  const Sample& any = samples().front();
  const std::vector<std::string> degenerates = {
      "",
      "\n\n\n",
      "algorithm",
      "algorithm ;",
      "algorithm x()",
      "algorithm x(); phases",
      std::string(1 << 16, 'x'),
      std::string("algorithm x();\n") + std::string(100, '('),
      "algorithm x(\xFF\xFE);",
  };
  for (std::size_t i = 0; i < degenerates.size(); ++i) {
    expect_compiles_or_located_error(degenerates[i], any,
                                     "degenerate #" + std::to_string(i));
  }
}

std::string repeat(const std::string& text, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) {
    out += text;
  }
  return out;
}

/// A ring program whose phase expression nests `depth` parenthesised
/// repetitions, ((...(ring)^1...)^1: `depth` levels of parentheses and
/// a phase tree `depth` levels tall.
std::string nested_phases(int depth) {
  return "algorithm deep();\nnodetype t[i: 0 .. 7];\n"
         "comphase ring { t(i) -> t((i + 1) mod 8); }\n"
         "phases " +
         repeat("(", depth) + "ring" + repeat(")^1", depth) + ";\n";
}

/// The same program with a message volume nested `depth` deep: each
/// level is one parenthesis and one addition, (1 + (1 + ... 1)).
std::string nested_volume(int depth) {
  return "algorithm deep();\nnodetype t[i: 0 .. 7];\n"
         "comphase ring { t(i) -> t((i + 1) mod 8) volume " +
         repeat("(1 + ", depth) + "1" + repeat(")", depth) + "; }\n";
}

void expect_too_deep(const std::string& source, const std::string& what) {
  try {
    (void)larcs::compile_source(source, {});
    ADD_FAILURE() << what << ": nesting past the cap was accepted";
  } catch (const LarcsError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos)
        << what << ": " << e.what();
    EXPECT_GE(e.loc().line, 1) << what;
    EXPECT_GE(e.loc().column, 1) << what;
  }
}

TEST(LarcsRobustness, NestingUpToTheCapParsesAndPastItIsRefused) {
  ASSERT_EQ(larcs::kMaxNesting, 256);
  const auto phases = larcs::compile_source(nested_phases(256), {});
  EXPECT_EQ(phases.graph.phase_multiplicity().comm,
            (std::vector<long>{1}));
  const auto volume = larcs::compile_source(nested_volume(256), {});
  EXPECT_EQ(volume.graph.comm_phases()[0].edges[0].volume, 257);
  for (const int depth : {257, 20000}) {
    expect_too_deep(nested_phases(depth),
                    "phases " + std::to_string(depth) + " deep");
    expect_too_deep(nested_volume(depth),
                    "volume " + std::to_string(depth) + " deep");
  }
}

TEST(LarcsRobustness, TallTreesWithoutParenthesesAreRefusedToo) {
  // Chains build a tree one level per operator without any nesting in
  // the source: x^1^1^...^1, 1+1+...+1, - - ... - 1.
  const std::string head =
      "algorithm deep();\nnodetype t[i: 0 .. 7];\n"
      "comphase ring { t(i) -> t((i + 1) mod 8) volume ";
  const auto chain = [&](int ops) {
    return head + "1; }\nphases ring" + repeat("^1", ops) + ";\n";
  };
  EXPECT_NO_THROW((void)larcs::compile_source(chain(256), {}));
  expect_too_deep(chain(257), "repeat chain");
  EXPECT_NO_THROW(
      (void)larcs::compile_source(head + repeat("1 + ", 256) + "1; }\n", {}));
  expect_too_deep(head + repeat("1 + ", 257) + "1; }\n", "sum chain");
  expect_too_deep(head + repeat("- ", 20000) + "1; }\n", "unary chain");
}

}  // namespace
}  // namespace oregami
