// Tiny command-line flag parser for the benchmark harnesses and examples:
// `--name=value` / `--name value` / boolean `--name`. Unknown flags are an
// error so typos do not silently fall back to defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ncsw::util {

/// Declarative flag set. Register flags with defaults, then parse().
class Cli {
 public:
  /// `program` and `description` are used by help().
  Cli(std::string program, std::string description);

  /// Register flags. `help` is shown by --help.
  void add_int(const std::string& name, std::int64_t def, std::string help);
  void add_double(const std::string& name, double def, std::string help);
  void add_string(const std::string& name, std::string def, std::string help);
  void add_bool(const std::string& name, bool def, std::string help);

  /// Parse argv. Returns false (after printing help) if --help was given.
  /// Throws std::runtime_error on unknown flags or malformed values
  /// (including NaN or infinite doubles).
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::string get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The program name this Cli was constructed with (used by the bench
  /// helpers to derive default output paths).
  const std::string& program() const noexcept { return program_; }

  /// Render the help text.
  std::string help() const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Flag {
    Kind kind;
    std::string value;  // current value, textual
    std::string def;    // default, textual
    std::string help;
  };

  const Flag& find(const std::string& name, Kind kind) const;
  void set_value(const std::string& name, const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ncsw::util
