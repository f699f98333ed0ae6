#include "common/cli.h"

#include <stdexcept>

namespace mwp {

CommandLine::CommandLine(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("bare '--' is not a flag");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";  // boolean flag
    }
  }
}

const std::string* CommandLine::Find(const std::string& name) const {
  read_.insert(name);
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool CommandLine::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string CommandLine::GetString(const std::string& name,
                                   std::string def) const {
  const std::string* v = Find(name);
  return v == nullptr ? def : *v;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                                *v + "'");
  }
}

std::int64_t CommandLine::GetInt(const std::string& name,
                                 std::int64_t def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name +
                                " expects an integer, got '" + *v + "'");
  }
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  const std::string* v = Find(name);
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              *v + "'");
}

std::uint64_t CommandLine::GetSeed(std::uint64_t def) const {
  const std::int64_t value =
      GetInt("seed", static_cast<std::int64_t>(def));
  if (value < 0) {
    throw std::invalid_argument("flag --seed must be non-negative, got " +
                                std::to_string(value));
  }
  return static_cast<std::uint64_t>(value);
}

void CommandLine::RejectUnknownFlags() const {
  std::string unknown;
  for (const auto& [name, _] : flags_) {
    if (read_.count(name) == 0) unknown += " --" + name;
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag(s):" + unknown);
  }
}

}  // namespace mwp
