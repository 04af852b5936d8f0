// Hardened RTCC_* environment-knob parsing.
//
// Every runtime knob in the tree (RTCC_THREADS, RTCC_REPEATS,
// RTCC_STREAM_*, ...) used to go through bare atoi/atol/strtoul, which
// silently accept garbage: "abc" parses as 0, "-3" flows into unsigned
// widths, "99999999999999999999" saturates without a word, and "12abc"
// drops its tail. A mistyped knob then runs the wrong configuration
// with no hint why. These helpers make every knob strict: the whole
// value must parse, it must sit inside the knob's documented range,
// and anything else produces a one-line stderr warning (once per knob
// per process) before falling back to the built-in default.
//
// The string-level parsers are pure so the bad-input table is unit
// testable without touching the process environment
// (tests/test_env_knob.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace rtcc::util {

/// Strict integer parse: optional sign, decimal digits, surrounding
/// ASCII whitespace allowed, nothing else. nullopt on empty input,
/// trailing junk, or overflow of long long.
[[nodiscard]] std::optional<long long> parse_knob_ll(std::string_view value);

/// Strict floating parse (strtod grammar), whole-string, finite.
[[nodiscard]] std::optional<double> parse_knob_double(std::string_view value);

/// Boolean knob: 0/1/true/false/on/off/yes/no (case-insensitive).
[[nodiscard]] std::optional<bool> parse_knob_bool(std::string_view value);

/// getenv + strict parse + range check. Unset returns `fallback`
/// silently; set-but-invalid (syntax or outside [min, max]) warns once
/// on stderr and returns `fallback`.
[[nodiscard]] long long env_knob_ll(const char* name, long long fallback,
                                    long long min, long long max);
[[nodiscard]] double env_knob_double(const char* name, double fallback,
                                     double min, double max);
[[nodiscard]] bool env_knob_bool(const char* name, bool fallback);

/// Emits the one-line "ignoring bad knob" warning for `name` (at most
/// once per process per knob) — for knobs with bespoke grammars
/// (RTCC_SIMD's level names) that do their own
/// parsing but want the same reporting.
void warn_bad_knob(const char* name, std::string_view value,
                   const char* expected);

}  // namespace rtcc::util
