// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. A flag
// followed by another flag or by nothing has no value: GetBool reads it as
// true, and GetString, GetInt and GetDouble refuse it, so `--trace-out
// --seed 1` is an error rather than a trace written to a file named "true".
// Unknown flags are an error so typos in experiment parameters fail loudly:
// every `main` calls `RejectUnknownFlags()` after its last read, and runs
// through RunMain, which turns the error into a message and exit code 2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
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
  /// The whole value must parse as a number ("12x" throws).
  double GetDouble(const std::string& name, double def) const;
  std::int64_t GetInt(const std::string& name, std::int64_t def) const;
  bool GetBool(const std::string& name, bool def) const;
  /// A comma-separated list of numbers, each item parsed as GetDouble
  /// parses a value; an empty item throws.
  std::vector<double> GetDoubleList(const std::string& name,
                                    std::vector<double> def) const;

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
  /// Flag `name`'s entry (nullopt: given without a value), or null when
  /// absent; records the name as read.
  const std::optional<std::string>* Find(const std::string& name) const;
  /// Find's value; throws when the flag was given without one.
  const std::string* Value(const std::string& name) const;

  /// Flag name -> value; nullopt for a flag given without one.
  std::map<std::string, std::optional<std::string>> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// Runs a binary's `main` body on its parsed command line and returns the
/// body's exit code. A std::exception escaping the parse or the body — a
/// malformed or unknown flag, an invalid configuration refused by an
/// MWP_CHECK — is printed to stderr and returns 2, the usage-error code
/// replay_apc uses, instead of aborting the process.
int RunMain(int argc, const char* const* argv,
            int (*body)(const CommandLine& cli));

}  // namespace mwp
