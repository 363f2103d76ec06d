// Line cursor for the line-oriented text exports: the serve latency CSV
// (serve::read_latency_csv) and the flight-recorder JSONL
// (telemetry::read_jsonl). Each reader accepts exactly what its writer
// emits and rejects everything else with the same FormatError taxonomy
// as the VXE image and checkpoint parsers, prefixed "name:line: ".
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "binary/serialize.hpp"

namespace vcfr::binary {

/// Strict unsigned decimal: digits only (no sign, no space, no trailing
/// junk), and the value must fit T. Shared by the export readers and the
/// CLI's numeric flags.
template <typename T>
[[nodiscard]] std::optional<T> parse_decimal(std::string_view s) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

class TextReader {
 public:
  TextReader(std::string_view text, std::string name)
      : text_(text), name_(std::move(name)) {}

  /// The next line without its '\n'; false once the text is consumed.
  /// Every writer ends each line with '\n', so a last line without one
  /// was cut (kTruncated).
  bool next_line(std::string_view& line);

  /// Throws FormatError(fault, "name:line: what") for the current line.
  [[noreturn]] void fail(FormatFault fault, const std::string& what) const;

  /// parse_decimal, or kImplausible naming `field`.
  template <typename T>
  [[nodiscard]] T number(std::string_view digits, const char* field) const {
    if (const auto v = parse_decimal<T>(digits)) return *v;
    fail(FormatFault::kImplausible, std::string(field) + " '" +
                                        std::string(digits) +
                                        "' is not an unsigned integer in range");
  }

 private:
  std::string_view text_;
  std::string name_;
  size_t pos_ = 0;
  size_t line_ = 0;
};

}  // namespace vcfr::binary
