#include "common/cli.h"

#include <exception>
#include <iostream>
#include <stdexcept>

namespace mwp {

namespace {

/// `text` as a number, the whole of it; the error names flag --`name`.
double ParseDouble(const std::string& name, const std::string& text) {
  std::size_t used = 0;
  try {
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                              text + "'");
}

}  // namespace

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
      flags_[body] = std::nullopt;  // no value: only GetBool accepts it
    }
  }
}

const std::optional<std::string>* CommandLine::Find(
    const std::string& name) const {
  read_.insert(name);
  auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

const std::string* CommandLine::Value(const std::string& name) const {
  const std::optional<std::string>* v = Find(name);
  if (v == nullptr) return nullptr;
  if (!v->has_value()) {
    throw std::invalid_argument("flag --" + name + " expects a value");
  }
  return &**v;
}

bool CommandLine::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string CommandLine::GetString(const std::string& name,
                                   std::string def) const {
  const std::string* v = Value(name);
  return v == nullptr ? def : *v;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  const std::string* v = Value(name);
  return v == nullptr ? def : ParseDouble(name, *v);
}

std::vector<double> CommandLine::GetDoubleList(const std::string& name,
                                               std::vector<double> def) const {
  const std::string* v = Value(name);
  if (v == nullptr) return def;
  std::vector<double> out;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = v->find(',', begin);
    out.push_back(ParseDouble(name, v->substr(begin, comma - begin)));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

std::int64_t CommandLine::GetInt(const std::string& name,
                                 std::int64_t def) const {
  const std::string* v = Value(name);
  if (v == nullptr) return def;
  std::size_t used = 0;
  try {
    const std::int64_t value = std::stoll(*v, &used);
    if (used == v->size()) return value;  // the whole value parsed
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                              *v + "'");
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  const std::optional<std::string>* v = Find(name);
  if (v == nullptr) return def;
  if (!v->has_value()) return true;  // a bare --name
  const std::string& value = **v;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              value + "'");
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

int RunMain(int argc, const char* const* argv,
            int (*body)(const CommandLine& cli)) {
  try {
    const CommandLine cli(argc, argv);
    return body(cli);
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "error") << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace mwp
