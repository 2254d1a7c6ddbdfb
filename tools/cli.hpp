// Declarative command lines: each tool declares every flag once, as a row
// (name, value kind, metavar, help line), and cli::parse owns the grammar,
// the value checks and --help. `--help`/`-h` anywhere prints the help on
// stdout and exits 0. Positional rows (empty name) are required and take
// the leading arguments. Options are `--opt value` or `--opt=value`; a flag
// rejects `=value`; an optional value binds the next argument unless it
// starts with "--". A bad argument prints "<tool>: <what>" and exits 2.
#pragma once

#include <charconv>
#include <concepts>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace polis::cli {

struct Option {
  enum class Arity { kNone, kOne, kOptional };
  std::string name;     // "--out"; empty for a positional argument
  Arity arity;
  std::string metavar;  // value placeholder in --help
  std::string help;     // one line, with the default when there is one
  std::string expects;  // what a valid value is, for the error message
  std::function<bool(const std::string* value)> set;  // false = rejected
};

/// The whole of `text` as a number, or nothing.
template <typename Number>
std::optional<Number> number(const std::string& text) {
  Number value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

Option flag(std::string name, bool* dst, std::string help);
Option text(std::string name, std::string* dst, std::string metavar,
            std::string help);
/// Repeatable: each occurrence appends a value.
Option texts(std::string name, std::vector<std::string>* dst,
             std::string metavar, std::string help);
/// Optional value: any occurrence sets `*given`, a value also sets `*dst`.
Option optional(std::string name, bool* given, std::string* dst,
                std::string metavar, std::string help);
/// Finite real >= lo, or > lo when `lo_open`.
Option real(std::string name, double* dst, double lo, bool lo_open,
            std::string metavar, std::string help);

/// Integer count in [lo, hi].
template <std::integral T>
Option count(std::string name, T* dst, long long lo, long long hi,
             std::string metavar, std::string help) {
  if (!name.empty()) help += " (default " + std::to_string(*dst) + ")";
  return {std::move(name), Option::Arity::kOne, std::move(metavar),
          std::move(help),
          "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
              "]",
          [=](const std::string* v) {
            const std::optional<long long> n = number<long long>(*v);
            if (!n || *n < lo || *n > hi) return false;
            *dst = static_cast<T>(*n);
            return true;
          }};
}

/// One of a fixed set of names, each mapped to the value stored in `*dst`.
template <std::equality_comparable T>
Option choice(std::string name, T* dst,
              std::initializer_list<std::pair<const char*, T>> names,
              std::string help) {
  std::string metavar;
  for (const auto& [n, value] : names) {
    metavar += (metavar.empty() ? "" : "|") + std::string(n);
    if (value == *dst) help += " (default " + std::string(n) + ")";
  }
  return {std::move(name), Option::Arity::kOne, metavar, std::move(help),
          "one of " + metavar,
          [dst, table = std::vector(names)](const std::string* v) {
            for (const auto& [n, value] : table) {
              if (*v != n) continue;
              *dst = value;
              return true;
            }
            return false;
          }};
}

/// Parses argv[1..argc) into the rows' destinations (see the grammar
/// above); `epilog` ends the --help text.
void parse(const std::string& tool, const std::vector<Option>& rows, int argc,
           char** argv, const std::string& epilog = "");

/// A usage error found after parsing: "<tool>: <what>" on stderr, exit 2.
[[noreturn]] void usage_error(const std::string& tool, const std::string& what);

}  // namespace polis::cli
