#include "src/util/options.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace fgdsm::util {

namespace {

// Malformed numeric values must not silently become 0 (strtoll/strtod's
// behaviour): a typo like --scale=0.5x would quietly run a different
// experiment. Reject anything but a fully-consumed number.
[[noreturn]] void bad_value(const std::string& name, const std::string& v,
                            const char* kind) {
  std::fprintf(stderr, "fgdsm: invalid %s value '%s' for --%s\n", kind,
               v.c_str(), name.c_str());
  std::exit(2);
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos)
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    else
      // Bare flag == boolean true. (A std::string, not "1": GCC 12 reports
      // a spurious -Wrestrict on operator=(const char*) here.)
      values_[arg] = std::string("1");
  }
}

bool Options::has(const std::string& name) const {
  return values_.count(name) > 0;
}

namespace {

// Classic Levenshtein distance; flag names are short, so the O(nm) table is
// immaterial.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::string Options::closest_match(const std::string& name,
                                   const std::vector<std::string>& known) {
  std::string best;
  std::size_t best_d = name.size();  // a full rewrite is not a typo
  for (const std::string& k : known) {
    const std::size_t d = edit_distance(name, k);
    if (d < best_d || (d == best_d && !best.empty() && k < best)) {
      best = k;
      best_d = d;
    }
  }
  // Suggest only plausible typos: at most 3 edits and fewer than half the
  // flag rewritten...
  if (best_d <= 3 && 2 * best_d < std::max<std::size_t>(name.size(), 1))
    return best;
  // ...or the longest declared name the flag extends by a '-' suffix: a
  // removed or misremembered variant of it (--json-file for --json).
  std::string stem;
  for (const std::string& k : known)
    if (k.size() > stem.size() && name.size() > k.size() &&
        name.compare(0, k.size(), k) == 0 && name[k.size()] == '-')
      stem = k;
  return stem;
}

void Options::check_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    const std::string suggestion = closest_match(name, known);
    if (suggestion.empty())
      std::fprintf(stderr, "fgdsm: unknown option --%s\n", name.c_str());
    else
      std::fprintf(stderr,
                   "fgdsm: unknown option --%s (did you mean --%s?)\n",
                   name.c_str(), suggestion.c_str());
    std::exit(2);
  }
}

std::string Options::get(const std::string& name,
                         const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  const std::int64_t r = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size())
    bad_value(name, v, "integer");
  return r;
}

double Options::get_double(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size())
    bad_value(name, v, "numeric");
  return r;
}

bool Options::get_bool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace fgdsm::util
