#include "eval/config.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fluxfp::eval {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

}  // namespace

Config Config::parse_stream(std::istream& is) {
  Config cfg;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    const std::string trimmed = trim(line);
    if (trimmed.empty()) {
      continue;
    }
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: missing '=' on line " +
                               std::to_string(lineno));
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key on line " +
                               std::to_string(lineno));
    }
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("Config: cannot open " + path);
  }
  return parse_stream(in);
}

Config Config::parse_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      cfg.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      cfg.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      cfg.values_[body] = argv[++i];
    } else {
      cfg.values_[body] = "true";
    }
  }
  return cfg;
}

void Config::merge(const Config& overrides) {
  for (const auto& [k, v] : overrides.values_) {
    values_[k] = v;
  }
  positional_.insert(positional_.end(), overrides.positional_.begin(),
                     overrides.positional_.end());
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: key '" + key + "' is not a number: " +
                             it->second);
  }
}

long Config::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const long v = std::stol(it->second, &pos);
    if (pos != it->second.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: key '" + key +
                             "' is not an integer: " + it->second);
  }
}

}  // namespace fluxfp::eval
