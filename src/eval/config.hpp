#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fluxfp::eval {

/// A minimal typed key-value configuration used by the CLI example and the
/// experiment harnesses: flat `key = value` lines with `#` comments, plus
/// `--key value` / `--key=value` command-line overrides. No external
/// dependencies; values are stored as strings and converted on access.
class Config {
 public:
  Config() = default;

  /// Parses `key = value` lines; '#' starts a comment (also mid-line),
  /// blank lines are skipped. Later keys override earlier ones. Throws
  /// std::runtime_error on a line without '='.
  static Config parse_stream(std::istream& is);

  /// parse_stream over a file; throws std::runtime_error if unreadable.
  static Config parse_file(const std::string& path);

  /// Parses `--key value` and `--key=value` arguments (argv[0] ignored).
  /// A trailing `--key` without value is stored as "true" (boolean flag).
  /// Non-option arguments are collected into positional().
  static Config parse_args(int argc, const char* const* argv);

  /// Merges `overrides` into this config (overrides win).
  void merge(const Config& overrides);

  /// Typed getters: return `fallback` when the key is absent; throw
  /// std::runtime_error when present but not convertible.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback) const;
  long get_int(const std::string& key, long fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace fluxfp::eval
