// Tiny command-line flag parser used by the benches and examples.
//
// Supports `--key=value`, `--key value`, and boolean `--flag` forms; typed
// accessors with defaults; and generated --help text.  A parser that
// declares its flags rejects every other flag.  Typed accessors read the
// whole value: a number with trailing characters, a list item that is not
// a number, or a boolean other than true/false/1/0/yes/no/on/off throws
// InvalidArgument naming the flag.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rcf {

class CliParser {
 public:
  /// `description` is printed at the top of --help output.
  CliParser(std::string program, std::string description);

  /// Declares a flag (for --help).  Once any flag is declared, parse()
  /// rejects undeclared ones; a parser that declares none accepts any flag.
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value = "");

  /// Parses argv.  Returns false (after printing help) if --help was given.
  /// Throws InvalidArgument for a flag that was not declared, when any was.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Parses a comma-separated list of integers, e.g. "1,2,4,8".
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Parses a comma-separated list of doubles.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name, const std::vector<double>& fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_help() const;

 private:
  struct FlagInfo {
    std::string help;
    std::string default_value;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, FlagInfo> declared_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rcf
