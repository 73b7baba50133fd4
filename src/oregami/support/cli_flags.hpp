// Declarative command-line flags: a tool lists each flag once, as an
// entry of a static table (name, argument kind, help, setter), and one
// parser reads argv against the table and renders the usage text from
// the same entries, so no flag is accepted without being documented.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace oregami::cli {

/// What a flag takes after it.
enum class Arg {
  None,         ///< nothing: a switch
  String,       ///< the next token, whatever it is
  Int,          ///< the next token, all of it an integer in [lo, hi]
  OptionalInt,  ///< as Int, but only when all of the next token parses as
                ///< an integer: "--multilevel --ascii" takes no argument
};

/// What the parser hands a setter.
struct Value {
  std::string_view flag;    ///< the flag's name
  std::string_view text;    ///< its argument; empty when none was taken
  std::int64_t number = 1;  ///< the integer argument; 1 when none was taken
};

template <class Target>
struct Flag {
  std::string_view name;     ///< "--portfolio"
  Arg arg = Arg::None;
  std::string_view metavar;  ///< "N", "FILE"; empty for a switch
  std::string_view help;     ///< one line of usage text
  /// Stores the value; returns "" or the message that rejects it.
  std::string (*set)(Target&, const Value&) = nullptr;
  std::int64_t lo = 0;  ///< inclusive integer range (Int, OptionalInt)
  std::int64_t hi = 0;
};

/// The whole token as a decimal integer, or nullopt when any of it is
/// not one or it overflows int64.
inline std::optional<std::int64_t> parse_integer(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// Reads argv[1..argc) against `flags`. Returns false after printing
/// one message to `err` for an unknown flag, a missing, malformed or
/// out-of-range argument, or a value its setter rejects.
template <class Target>
bool parse_flags(std::span<const Flag<Target>> flags, int argc, char** argv,
                 Target& target, std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto flag = std::ranges::find(flags, arg, &Flag<Target>::name);
    if (flag == flags.end()) {
      err << "unknown option '" << arg << "'\n";
      return false;
    }
    Value value{flag->name, {}, 1};
    const bool has_next = i + 1 < argc;
    const bool takes = flag->arg == Arg::OptionalInt
                           ? has_next && parse_integer(argv[i + 1])
                           : flag->arg != Arg::None;
    if (takes && !has_next) {
      err << arg << " needs an argument\n";
      return false;
    }
    if (takes) {
      value.text = argv[++i];
    }
    if (takes && flag->arg != Arg::String) {
      const std::optional<std::int64_t> number = parse_integer(value.text);
      if (!number) {
        err << "bad " << arg << " value '" << value.text << "'\n";
        return false;
      }
      if (*number < flag->lo || *number > flag->hi) {
        err << arg << " expects an integer in [" << flag->lo << ", "
            << flag->hi << "], got '" << value.text << "'\n";
        return false;
      }
      value.number = *number;
    }
    if (const std::string error = flag->set(target, value); !error.empty()) {
      err << error << "\n";
      return false;
    }
  }
  return true;
}

/// The usage text of `flags`: one line per flag, in table order.
template <class Target>
std::string usage(std::span<const Flag<Target>> flags) {
  std::string out;
  for (const Flag<Target>& flag : flags) {
    std::string line = "  ";
    line += flag.name;
    if (!flag.metavar.empty()) {
      line += ' ';
      line += flag.metavar;
    }
    line.resize(std::max<std::size_t>(line.size() + 2, 25), ' ');
    out += line;
    out += flag.help;
    out += '\n';
  }
  return out;
}

/// A setter storing into `target.*Path...` (a member, or a member of a
/// member): the number into an integer or bool, else the text.
template <auto... Path, class Target>
std::string store(Target& target, const Value& value) {
  auto& field = (target .* ... .* Path);
  using Field = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_integral_v<Field>) {
    field = static_cast<Field>(value.number);
  } else {
    field = std::string(value.text);
  }
  return {};
}

}  // namespace oregami::cli
