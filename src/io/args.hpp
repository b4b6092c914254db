// Tiny CLI argument parser shared by the bench and example binaries.
// Supports --key value, --key=value and boolean --flag forms.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bmf::io {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Boolean flag: present (with no value or "true"/"1") => true.
  bool flag(const std::string& key) const;

  std::string get(const std::string& key,
                  const std::string& fallback = "") const;

  /// The numeric getters parse the whole value (no sign on a seed, no
  /// leading blanks, no trailing characters, no wrap-around) and throw
  /// std::invalid_argument naming the flag otherwise, so "4x" is never
  /// read as 4 nor "-1" as a huge count. get_int also throws for a value
  /// outside [min, max]; `fallback` is returned unchecked.
  long get_int(const std::string& key, long fallback,
               long min = std::numeric_limits<long>::min(),
               long max = std::numeric_limits<long>::max()) const;
  double get_double(const std::string& key, double fallback) const;
  std::uint64_t get_seed(const std::string& key,
                         std::uint64_t fallback) const;

  /// Every value given for a repeatable --key, in command-line order
  /// (get() sees only the last one). Empty when the key never appeared.
  std::vector<std::string> get_all(const std::string& key) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  /// (key, value) in command-line order, one entry per occurrence — the
  /// backing store for get_all's repeatable-flag semantics.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

}  // namespace bmf::io
