#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace rcf {

namespace {

[[noreturn]] void bad_value(const std::string& name, const char* expects,
                            const std::string& text) {
  throw InvalidArgument("flag --" + name + " expects " + expects + ", got '" +
                        text + "'");
}

// std::stoll / std::stod stop at the first character they cannot read, so
// a value counts only when they consumed all of it.
std::int64_t parse_int(const std::string& name, const std::string& text) {
  std::size_t used = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    bad_value(name, "an integer", text);
  }
  if (used != text.size()) {
    bad_value(name, "an integer", text);
  }
  return value;
}

double parse_double(const std::string& name, const std::string& text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    bad_value(name, "a number", text);
  }
  if (used != text.size()) {
    bad_value(name, "a number", text);
  }
  return value;
}

/// Splits a comma-separated list, skipping empty items, and parses each
/// item whole.
template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& name, const std::string& text,
                          Parse parse) {
  std::vector<T> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(parse(name, item));
    }
  }
  return out;
}

}  // namespace

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  declared_[name] = FlagInfo{help, default_value};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!declared_.empty() && declared_.find(key) == declared_.end()) {
      throw InvalidArgument(program_ + ": unknown flag --" + key +
                            " (see --help)");
    }
  }
  return true;
}

bool CliParser::has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::string CliParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_int(name, it->second);
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_double(name, it->second);
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  bad_value(name, "true/false/1/0/yes/no/on/off", v);
}

std::vector<std::int64_t> CliParser::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : parse_list<std::int64_t>(name, it->second, parse_int);
}

std::vector<double> CliParser::get_double_list(
    const std::string& name, const std::vector<double>& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : parse_list<double>(name, it->second, parse_double);
}

void CliParser::print_help() const {
  std::printf("%s - %s\n\nFlags:\n", program_.c_str(), description_.c_str());
  for (const auto& [name, info] : declared_) {
    std::printf("  --%-24s %s", name.c_str(), info.help.c_str());
    if (!info.default_value.empty()) {
      std::printf(" (default: %s)", info.default_value.c_str());
    }
    std::printf("\n");
  }
  std::printf("  --%-24s %s\n", "help", "print this message");
}

}  // namespace rcf
