#include "io/args.hpp"

#include <charconv>
#include <stdexcept>

namespace bmf::io {

namespace {

/// All of `text` as a T; junk, trailing characters or a value T cannot
/// hold throw std::invalid_argument naming the flag.
template <typename T>
T parse_whole(const std::string& key, const std::string& text,
              const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument(std::string("bad ") + what + " for --" +
                                key + ": '" + text + "'");
  return value;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      values_[key] = value;
      ordered_.emplace_back(std::move(key), std::move(value));
      continue;
    }
    // "--key value" unless the next token is another option or missing.
    std::string value;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
      value = argv[++i];
    values_[token] = value;
    ordered_.emplace_back(std::move(token), std::move(value));
  }
}

bool Args::has(const std::string& key) const { return values_.count(key); }

bool Args::flag(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  return it->second.empty() || it->second == "true" || it->second == "1";
}

std::vector<std::string> Args::get_all(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : ordered_)
    if (k == key) values.push_back(v);
  return values;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Args::get_int(const std::string& key, long fallback, long min,
                   long max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const long value = parse_whole<long>(key, it->second, "integer");
  if (value < min)
    throw std::invalid_argument("--" + key + " must be >= " +
                                std::to_string(min) + ", got " + it->second);
  if (value > max)
    throw std::invalid_argument("--" + key + " must be <= " +
                                std::to_string(max) + ", got " + it->second);
  return value;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_whole<double>(key, it->second, "number");
}

std::uint64_t Args::get_seed(const std::string& key,
                             std::uint64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? fallback
             : parse_whole<std::uint64_t>(key, it->second, "seed");
}

}  // namespace bmf::io
