// osel/support/format.h — numeric formatting helpers for tables and reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace osel::support {

/// Appends `field` to `out`, quoted for CSV per RFC 4180: fields containing
/// a comma, double quote, or newline are wrapped in double quotes with
/// embedded quotes doubled; all other fields pass through unchanged. The
/// single quoting implementation behind every CSV renderer (launch-log
/// CSV, workload trace files, metrics CSV, TextTable::renderCsv).
void csvQuote(std::string& out, std::string_view field);

/// csvQuote into a fresh string.
[[nodiscard]] std::string csvField(std::string_view field);

/// Formats `value` with `decimals` digits after the point (fixed notation).
[[nodiscard]] std::string formatFixed(double value, int decimals);

/// Formats a speedup factor the way the paper prints them, e.g. "4.41x".
/// Slowdowns (< 1) keep two decimals as well, e.g. "0.47x".
[[nodiscard]] std::string formatSpeedup(double speedup);

/// Formats a duration in seconds with an adaptive unit (s / ms / us / ns).
[[nodiscard]] std::string formatSeconds(double seconds);

/// Formats a byte count with an adaptive binary unit (B / KiB / MiB / GiB).
[[nodiscard]] std::string formatBytes(std::uint64_t bytes);

/// Formats a large count with thousands separators, e.g. "12,345,678".
[[nodiscard]] std::string formatCount(std::uint64_t count);

/// Formats a percentage with one decimal, e.g. "12.3%".
[[nodiscard]] std::string formatPercent(double fraction01);

}  // namespace osel::support
