// The declarative argv parser behind oregami_map and oregami_serve:
// every argument kind, every refusal, and the generated usage text.
#include "oregami/support/cli_flags.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace oregami::cli {
namespace {

struct Target {
  std::optional<std::string> name;
  int count = 0;
  int levels = 0;
  bool verbose = false;
  int even = 0;
};

std::string set_levels(Target& target, const Value& value) {
  target.levels = value.text.empty() ? -1 : static_cast<int>(value.number);
  return {};
}

std::string set_even(Target& target, const Value& value) {
  if (value.number % 2 != 0) {
    return "--even wants an even number";
  }
  target.even = static_cast<int>(value.number);
  return {};
}

constexpr Flag<Target> kFlags[] = {
    {"--name", Arg::String, "NAME", "a name", store<&Target::name>},
    {"--count", Arg::Int, "N", "a count in 0..8", store<&Target::count>, 0,
     8},
    {"--levels", Arg::OptionalInt, "[LEVELS]", "an optional level cap",
     set_levels, 1, 64},
    {"--verbose", Arg::None, "", "talk more", store<&Target::verbose>},
    {"--even", Arg::Int, "E", "an even number", set_even, -100, 100},
    {"--a-rather-long-switch", Arg::None, "", "long", store<&Target::verbose>},
};

struct Parsed {
  bool ok = false;
  Target target;
  std::string error;
};

Parsed parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  Parsed parsed;
  std::ostringstream err;
  parsed.ok = parse_flags<Target>(kFlags, static_cast<int>(argv.size()),
                                  argv.data(), parsed.target, err);
  parsed.error = err.str();
  return parsed;
}

TEST(CliFlags, ParsesEveryArgumentKind) {
  const Parsed p =
      parse({"--name", "--count", "--count", "7", "--verbose", "--levels",
             "12", "--even", "-4"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.target.name, "--count");  // a string argument is any token
  EXPECT_EQ(p.target.count, 7);
  EXPECT_TRUE(p.target.verbose);
  EXPECT_EQ(p.target.levels, 12);
  EXPECT_EQ(p.target.even, -4);
  EXPECT_TRUE(parse({}).ok);
}

TEST(CliFlags, MissingRequiredArgumentIsRefused) {
  for (const char* flag : {"--name", "--count", "--even"}) {
    const Parsed p = parse({"--verbose", flag});
    EXPECT_FALSE(p.ok) << flag;
    EXPECT_EQ(p.error, std::string(flag) + " needs an argument\n");
  }
}

TEST(CliFlags, MalformedOrOutOfRangeIntegerIsRefused) {
  EXPECT_EQ(parse({"--count", "9"}).error,
            "--count expects an integer in [0, 8], got '9'\n");
  EXPECT_EQ(parse({"--count", "-1"}).error,
            "--count expects an integer in [0, 8], got '-1'\n");
  for (const char* bad : {"x", "3x", "", " 3", "+3", "1.5",
                          "99999999999999999999"}) {
    const Parsed p = parse({"--count", bad});
    EXPECT_FALSE(p.ok) << bad;
    EXPECT_EQ(p.error, "bad --count value '" + std::string(bad) + "'\n");
  }
  EXPECT_TRUE(parse({"--count", "0"}).ok);
  EXPECT_TRUE(parse({"--count", "8"}).ok);
}

TEST(CliFlags, OptionalIntegerConsumesOnlyAWholeInteger) {
  // "--levels --verbose": the next token is a flag, so it stays one.
  Parsed p = parse({"--levels", "--verbose"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.target.levels, -1);
  EXPECT_TRUE(p.target.verbose);
  p = parse({"--levels"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.target.levels, -1);
  // A whole integer is taken, and then it must be in range.
  EXPECT_EQ(parse({"--levels", "64"}).target.levels, 64);
  EXPECT_EQ(parse({"--levels", "0"}).error,
            "--levels expects an integer in [1, 64], got '0'\n");
  EXPECT_FALSE(parse({"--levels", "-3"}).ok);
  // A partial integer is not taken; it is then an unknown option.
  EXPECT_EQ(parse({"--levels", "5x"}).error, "unknown option '5x'\n");
}

TEST(CliFlags, UnknownFlagIsRefused) {
  EXPECT_EQ(parse({"--verbose", "--frobnicate"}).error,
            "unknown option '--frobnicate'\n");
  EXPECT_EQ(parse({"name"}).error, "unknown option 'name'\n");
  EXPECT_FALSE(parse({"--Verbose"}).ok);
}

TEST(CliFlags, SetterMessageRefusesTheValue) {
  EXPECT_EQ(parse({"--even", "3"}).error, "--even wants an even number\n");
}

TEST(CliFlags, UsageListsEveryFlagOfTheTable) {
  const std::string text = usage<Target>(kFlags);
  for (const Flag<Target>& flag : kFlags) {
    std::string line = "  " + std::string(flag.name);
    if (!flag.metavar.empty()) {
      line += " " + std::string(flag.metavar);
    }
    EXPECT_NE(text.find(line), std::string::npos) << flag.name;
    EXPECT_NE(text.find(std::string(flag.help) + "\n"), std::string::npos)
        << flag.name;
  }
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            static_cast<long>(std::size(kFlags)));
  // Help starts in column 25, and a longer flag still gets two spaces.
  EXPECT_NE(text.find("  --name NAME" + std::string(12, ' ') + "a name\n"),
            std::string::npos);
  EXPECT_NE(text.find("  --a-rather-long-switch  long\n"), std::string::npos);
}

TEST(CliFlags, ParseIntegerTakesOnlyWholeDecimalTokens) {
  EXPECT_EQ(parse_integer("42"), 42);
  EXPECT_EQ(parse_integer("-7"), -7);
  EXPECT_EQ(parse_integer("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(parse_integer("-9223372036854775808"), INT64_MIN);
  for (const char* bad : {"", "-", "+1", " 1", "1 ", "0x10", "1e3",
                          "9223372036854775808"}) {
    EXPECT_FALSE(parse_integer(bad)) << bad;
  }
}

}  // namespace
}  // namespace oregami::cli
