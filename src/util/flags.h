#ifndef DEEPST_UTIL_FLAGS_H_
#define DEEPST_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace deepst {
namespace util {

// Minimal command-line parser for the CLI tools: positional arguments plus
// --key=value / --key value / --bool-flag options. Callers query by name with
// typed getters and defaults, and list the names they read in RejectUnknown
// so that a misspelt option fails instead of silently taking its default.
class Flags {
 public:
  // Parses argv[1..); returns an error for malformed options (an option
  // without a leading "--" is treated as a positional argument).
  static StatusOr<Flags> Parse(int argc, const char* const* argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  // Typed getters with defaults. GetInt/GetDouble return an error Status
  // via StatusOr when the value does not parse.
  std::string GetString(const std::string& name,
                        const std::string& default_value = "") const;
  StatusOr<int64_t> GetInt(const std::string& name,
                           int64_t default_value) const;
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;
  bool GetBool(const std::string& name, bool default_value = false) const;

  // InvalidArgument naming the first option (in name order) that is not in
  // `known`; Ok when every option is. Positional arguments are not checked.
  Status RejectUnknown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace util
}  // namespace deepst

#endif  // DEEPST_UTIL_FLAGS_H_
