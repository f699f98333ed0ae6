// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags are an error so typos in experiment parameters fail loudly: every
// `main` calls `RejectUnknownFlags()` after its last read.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mwp {

class CommandLine {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  CommandLine(int argc, const char* const* argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, std::string def) const;
  double GetDouble(const std::string& name, double def) const;
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// The conventional `--seed` flag (RNG/fault-plan reproducibility). A
  /// non-negative integer; throws on negative or malformed values so a bad
  /// seed never silently falls back to the default.
  std::uint64_t GetSeed(std::uint64_t def) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument naming every flag on the command line
  /// that no Has() or Get*() call has asked for.
  void RejectUnknownFlags() const;

 private:
  /// The value of flag `name`, or null when absent; records the name as read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace mwp
