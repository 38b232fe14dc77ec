#include "util/flags.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

namespace mobi::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // bare flag, e.g. --verbose
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.contains(name);
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  try {
    return std::stoll(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                *value + "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto value = raw(name);
  if (!value || value->empty()) return fallback;
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                *value + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto value = raw(name);
  if (!value) return fallback;
  if (value->empty()) return true;  // bare --flag
  std::string lowered = *value;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char ch) { return char(std::tolower(ch)); });
  if (lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on") {
    return true;
  }
  if (lowered == "0" || lowered == "false" || lowered == "no" || lowered == "off") {
    return false;
  }
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              *value + "'");
}

int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::string name = argc > 0 ? argv[0] : "mobicache";
    name.erase(0, name.find_last_of('/') + 1);
    std::cerr << name << ": " << error.what() << '\n';
    return 2;
  }
}

}  // namespace mobi::util
