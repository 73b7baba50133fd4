// Recursive-descent parser for LaRCS. See ast.hpp for the grammar.
#pragma once

#include <string_view>

#include "oregami/larcs/ast.hpp"

namespace oregami::larcs {

/// Deepest nesting the parser accepts: both the parenthesis / unary
/// operator depth and the height of every expression and phase tree it
/// builds. Deeper input is refused with a located LarcsError, which
/// bounds the recursion of every tree walk downstream (the corpus and
/// the samples nest at most 3 deep).
inline constexpr int kMaxNesting = 256;

/// Parses a complete LaRCS program; throws LarcsError with a source
/// location on malformed input. Also performs name resolution checks:
/// duplicate declarations, rules referencing unknown nodetypes,
/// dimension-arity mismatches, and phase expressions referencing
/// unknown phases.
[[nodiscard]] Program parse_program(std::string_view source);

/// Parses a standalone expression (exposed for tests and tools).
[[nodiscard]] ExprPtr parse_expression(std::string_view source);

}  // namespace oregami::larcs
