#include "io/model_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace bmf::io {

namespace {
constexpr const char* kMagicV1 = "bmf-model v1";
constexpr const char* kMagicV2 = "bmf-model v2";

// CRLF tolerance, mirroring read_csv: a model file that passed through a
// Windows toolchain must not grow a '\r' inside its last token.
void strip_trailing_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

// Parse a whole factor field as an unsigned decimal that fits T: digits
// only (no sign, no whitespace) and no wrap-around, so "-1" and
// "4294967297" fail instead of loading as a different model.
template <typename T>
bool parse_field(std::string_view field, T& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}
}  // namespace

void save_model(const std::string& path,
                const basis::PerformanceModel& model) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model: cannot open " + path);
  os.precision(17);
  os << kMagicV2 << "\n";
  os << "dimension " << model.basis().dimension() << "\n";
  os << "terms " << model.num_terms() << "\n";
  for (std::size_t m = 0; m < model.num_terms(); ++m) {
    os << "term " << model.coefficients()[m];
    for (const auto& f : model.basis().term(m).factors)
      os << ' ' << f.var << ':' << f.degree;
    os << "\n";
  }
  os << "end\n";
  if (!os) throw std::runtime_error("save_model: write failed for " + path);
}

basis::PerformanceModel load_model(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_model: cannot open " + path);
  std::string line;
  if (!std::getline(is, line))
    throw std::runtime_error("load_model: empty file " + path);
  strip_trailing_cr(line);
  const bool v2 = line == kMagicV2;
  if (!v2 && line != kMagicV1)
    throw std::runtime_error("load_model: bad magic in " + path);
  std::size_t dimension = 0;
  {
    std::string keyword;
    if (!(is >> keyword >> dimension) || keyword != "dimension")
      throw std::runtime_error("load_model: missing dimension in " + path);
  }
  std::getline(is, line);  // consume rest of the dimension line
  // v2 declares its term count up front so truncation is detectable.
  std::size_t declared_terms = 0;
  if (v2) {
    std::string keyword;
    if (!(is >> keyword >> declared_terms) || keyword != "terms")
      throw std::runtime_error("load_model: missing terms count in " + path);
    std::getline(is, line);
  }

  std::vector<basis::BasisTerm> terms;
  linalg::Vector coeffs;
  bool saw_end = false;
  while (std::getline(is, line)) {
    strip_trailing_cr(line);
    if (line.empty()) continue;
    if (v2 && line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string keyword;
    double coeff;
    if (!(ls >> keyword >> coeff) || keyword != "term")
      throw std::runtime_error("load_model: malformed line '" + line + "'");
    basis::BasisTerm term;
    std::string factor;
    while (ls >> factor) {
      const auto colon = factor.find(':');
      const std::string_view text(factor);
      std::size_t var = 0;
      unsigned degree = 0;
      if (colon == std::string::npos ||
          !parse_field(text.substr(0, colon), var) ||
          !parse_field(text.substr(colon + 1), degree))
        throw std::runtime_error("load_model: malformed factor '" + factor +
                                 "'");
      if (degree > basis::kMaxFactorDegree)
        throw std::runtime_error(
            "load_model: factor '" + factor + "' exceeds the degree bound " +
            std::to_string(basis::kMaxFactorDegree) + " in " + path);
      term.factors.push_back({var, degree});
    }
    terms.push_back(std::move(term));
    coeffs.push_back(coeff);
  }
  if (is.bad())
    throw std::runtime_error("load_model: read failed for " + path);
  if (v2) {
    // A partial model must never load: better to fail a batch job loudly
    // than to serve predictions from half a coefficient vector.
    if (terms.size() != declared_terms)
      throw std::runtime_error(
          "load_model: truncated model in " + path + ": declared " +
          std::to_string(declared_terms) + " term(s), found " +
          std::to_string(terms.size()));
    if (!saw_end)
      throw std::runtime_error("load_model: truncated model in " + path +
                               ": missing 'end' trailer");
  }
  try {
    return basis::PerformanceModel(basis::BasisSet(dimension, terms),
                                   coeffs);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_model: invalid model: ") +
                             e.what());
  }
}

}  // namespace bmf::io
