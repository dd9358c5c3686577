// Small string helpers shared across the tool-chain (lexers, printers).
//
// Pure functions over string_view/string only — no locale, no allocation
// surprises, no dependency on anything else in support/. The ADL parser
// and Scilab front end tokenize with split/trim/startsWith and read their
// numbers with parseNumber, as do the CLI flag parsers; report and bench
// code formats with join/formatCycles; the JSON writers (eval report,
// metrics block, trace export) and the C emitter build their text with
// appendf/jsonEscape. All helpers are deterministic (ASCII-only
// semantics), which keeps every printed report byte-stable across
// platforms — the determinism tests compare reports verbatim.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace argo::support {

/// Splits `text` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text) noexcept;

/// True if `text` starts with `prefix`.
[[nodiscard]] bool startsWith(std::string_view text,
                              std::string_view prefix) noexcept;

/// Parses the whole of `text` as one number of type T with
/// std::from_chars: decimal digits with an optional leading '-', plus a
/// fraction and an exponent when T is floating-point. Returns nullopt for
/// empty text, a leading '+' or space, trailing characters, a value
/// outside T's range, and a non-finite double ("inf", "nan").
template <typename T>
[[nodiscard]] std::optional<T> parseNumber(std::string_view text) noexcept {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Joins items with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

/// Formats a cycle count with thousands separators for reports, e.g. 1_234_567.
[[nodiscard]] std::string formatCycles(long long cycles);

/// Appends printf-style formatted text to `out`, growing it to fit (no
/// truncation, however long the arguments).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Escapes `text` for use inside a JSON string literal: a backslash goes
/// before every quote and backslash, control characters (below 0x20)
/// become six-character unicode escapes, and every other byte is copied.
[[nodiscard]] std::string jsonEscape(std::string_view text);

}  // namespace argo::support
