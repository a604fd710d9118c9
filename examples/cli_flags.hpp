#pragma once
// Numeric command-line flags of the example tools (scenario_runner,
// slicectl): parsed whole and range-checked, never wrapped or truncated.

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace slices::cli {

/// Largest --threads value the tools accept.
inline constexpr std::uint64_t kMaxThreads = 256;
inline constexpr std::uint64_t kMaxPort = 65535;

/// `text` as a whole unsigned decimal in [lo, hi]. Otherwise (a sign,
/// trailing junk, overflow, out of range) nullopt, with `error` set to
/// "<flag> must be an integer in [lo, hi], got '<text>'".
inline std::optional<std::uint64_t> parse_flag(std::string_view flag, std::string_view text,
                                               std::uint64_t lo, std::uint64_t hi,
                                               std::string& error) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && stop == end && value >= lo && value <= hi) return value;
  error = std::string(flag) + " must be an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + std::string(text) + "'";
  return std::nullopt;
}

}  // namespace slices::cli
