// Tiny command-line option parser used by examples and benchmark binaries.
// Supports "--name=value" and boolean "--flag" forms; anything else is a
// positional argument.
//
// Strict mode: a harness that declares its known flags with check_known()
// turns any unrecognized --flag into a fatal error (exit 2) naming the flag
// and the closest declared match — a typo like --tarce=x.json must not
// silently run a different experiment.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fgdsm::util {

class Options {
 public:
  Options(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  // Strict mode: every parsed --flag must appear in `known`, or the process
  // exits with code 2 and a message naming the offending flag (plus a
  // "did you mean --X?" suggestion when a declared flag is close).
  void check_known(const std::vector<std::string>& known) const;

  // Nearest declared name by edit distance, else the longest declared name
  // `name` extends by a '-' suffix (empty if nothing is close enough to be
  // a plausible typo). Exposed for tests.
  static std::string closest_match(const std::string& name,
                                   const std::vector<std::string>& known);

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace fgdsm::util
