// Shared command-line parsing for the tools (chaos, hunt, traceview,
// perfgate). One syntax everywhere: "--name=value" flags, bare "--name"
// switches, everything else positional. Tools consume flags take-style —
// each take_* marks the flag used — and then call finish(), which fails on
// unknown leftovers, so adding a flag to one tool cannot silently become a
// typo sink in another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cil::cli {

class FlagSet {
 public:
  FlagSet(int argc, char** argv);

  /// Bare switch ("--drain"). True iff present. "--drain=x" is an error.
  bool take_switch(const std::string& name);

  /// Valued flags ("--seeds=200"). Return true iff present and well-formed;
  /// `out` is untouched when absent. Malformed values (or a missing "=")
  /// print to stderr and mark the parse failed.
  bool take_string(const std::string& name, std::string& out);
  bool take_int(const std::string& name, std::int64_t& out);
  bool take_int(const std::string& name, int& out);
  bool take_uint64(const std::string& name, std::uint64_t& out);
  bool take_double(const std::string& name, double& out);

  /// Every occurrence of a repeatable valued flag, in argv order.
  std::vector<std::string> take_all(const std::string& name);

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// True iff no malformed values were seen and every "--" argument was
  /// consumed by a take_*. Unconsumed flags are reported to stderr.
  bool finish();

 private:
  struct Entry {
    std::string name;
    std::string value;
    bool has_value = false;
    bool used = false;
  };
  Entry* find(const std::string& name);
  bool take_value(const std::string& name, std::string& raw);

  std::vector<Entry> entries_;
  std::vector<std::string> positionals_;
  bool failed_ = false;
};

/// Split a comma-separated flag value into its fields, empty ones included
/// ("a,,b," has four), so callers can reject an empty field instead of
/// silently dropping or keeping it. An empty string has no fields.
std::vector<std::string> split_csv(const std::string& csv);

}  // namespace cil::cli
