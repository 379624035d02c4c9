#include "arch/platform_loader.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "arch/core_params.h"
#include "common/types.h"

namespace sb::arch {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::runtime_error("platform description line " +
                           std::to_string(line) + ": " + why);
}

/// Strict base-10 count: the whole token must parse and land in [lo, hi].
bool parse_count(const std::string& tok, long lo, long hi, int* out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size() || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

/// Core-type names keep to characters no export format has to quote.
constexpr char kTypeNameChars[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-";

/// Field accessors keyed by name (shared by the loader and the writer).
struct Field {
  double CoreParams::* dmember = nullptr;
  int CoreParams::* imember = nullptr;
};

const std::map<std::string, Field>& fields() {
  static const std::map<std::string, Field> kFields = {
      {"issue_width", {nullptr, &CoreParams::issue_width}},
      {"lq_size", {nullptr, &CoreParams::lq_size}},
      {"sq_size", {nullptr, &CoreParams::sq_size}},
      {"iq_size", {nullptr, &CoreParams::iq_size}},
      {"rob_size", {nullptr, &CoreParams::rob_size}},
      {"num_regs", {nullptr, &CoreParams::num_regs}},
      {"pipeline_depth", {nullptr, &CoreParams::pipeline_depth}},
      {"tlb_entries", {nullptr, &CoreParams::tlb_entries}},
      {"l1i_kb", {&CoreParams::l1i_kb, nullptr}},
      {"l1d_kb", {&CoreParams::l1d_kb, nullptr}},
      {"freq_mhz", {&CoreParams::freq_mhz, nullptr}},
      {"vdd", {&CoreParams::vdd, nullptr}},
      {"area_mm2", {&CoreParams::area_mm2, nullptr}},
      {"predictor_quality", {&CoreParams::predictor_quality, nullptr}},
      {"peak_power_w", {&CoreParams::peak_power_w, nullptr}},
  };
  return kFields;
}

}  // namespace

Platform load_platform(std::istream& is) {
  Platform platform;
  CoreParams current = medium_core();
  int count = 0;
  bool in_block = false;
  std::size_t lineno = 0;

  auto flush = [&]() {
    if (!in_block) return;
    platform.add_cores(current, count);
    in_block = false;
  };

  std::string line;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and whitespace.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank

    if (key == "core") {
      flush();
      std::string name, count_tok;
      if (!(ls >> name >> count_tok) || count_tok.size() < 2 ||
          count_tok[0] != 'x') {
        fail(lineno, "expected 'core <name> x<count>'");
      }
      if (name.find_first_not_of(kTypeNameChars) != std::string::npos) {
        fail(lineno, "core type name must use only [A-Za-z0-9_.-]: " + name);
      }
      if (!parse_count(count_tok.substr(1), 1, kMaxCores, &count)) {
        fail(lineno, "core count must be an integer in [1, " +
                         std::to_string(kMaxCores) + "]: " + count_tok);
      }
      current = medium_core();  // defaults
      current.name = name;
      in_block = true;
      continue;
    }

    if (!in_block) fail(lineno, "field before any 'core' block: " + key);
    const auto it = fields().find(key);
    if (it == fields().end()) fail(lineno, "unknown field: " + key);
    double value = 0;
    if (!(ls >> value)) fail(lineno, "missing numeric value for " + key);
    std::string extra;
    if (ls >> extra) fail(lineno, "trailing junk after " + key);
    if (it->second.dmember) {
      current.*(it->second.dmember) = value;
    } else {
      if (value != std::trunc(value) ||
          value < std::numeric_limits<int>::min() ||
          value > std::numeric_limits<int>::max()) {
        fail(lineno, key + " must be an integer in int range");
      }
      current.*(it->second.imember) = static_cast<int>(value);
    }
  }
  flush();
  platform.validate();
  return platform;
}

Platform load_platform_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read platform file: " + path);
  return load_platform(is);
}

Platform generate_platform(const std::string& spec) {
  auto bad = [&spec](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument("generate_platform: " + why + " in '" +
                                 spec + "' (expected <big>x<LITTLE>[:clusters])");
  };
  auto count_of = [&](const std::string& tok, const char* what, long lo) {
    if (tok.empty()) throw bad(std::string("empty ") + what);
    int v = 0;
    if (!parse_count(tok, lo, kMaxCores, &v)) {
      throw bad(std::string("bad ") + what + " '" + tok + "'");
    }
    return v;
  };

  std::string counts = spec;
  int clusters = 1;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    counts = spec.substr(0, colon);
    clusters = count_of(spec.substr(colon + 1), "cluster count", 1);
  }
  const auto x = counts.find('x');
  if (x == std::string::npos) throw bad("missing 'x'");
  const int big = count_of(counts.substr(0, x), "big count", 0);
  const int little = count_of(counts.substr(x + 1), "LITTLE count", 0);
  const long total = static_cast<long>(big + little) * clusters;
  if (total < 1) throw bad("empty platform");
  if (total > kMaxCores) {
    throw bad("total of " + std::to_string(total) + " cores exceeds kMaxCores");
  }

  // Type-major layout (see header): one contiguous block per type, so the
  // generated platform round-trips through save_platform byte for byte.
  Platform platform;
  if (big > 0) platform.add_cores(big_core(), big * clusters);
  if (little > 0) platform.add_cores(small_core(), little * clusters);
  platform.validate();
  return platform;
}

void save_platform(std::ostream& os, const Platform& platform) {
  for (CoreTypeId t = 0; t < platform.num_types(); ++t) {
    const CoreParams& p = platform.params_of_type(t);
    os << "core " << p.name << " x" << platform.cores_of_type(t).size()
       << "\n";
    const CoreParams defaults = [] {
      auto d = medium_core();
      return d;
    }();
    for (const auto& [name, field] : fields()) {
      double v, dv;
      if (field.dmember) {
        v = p.*(field.dmember);
        dv = defaults.*(field.dmember);
      } else {
        v = p.*(field.imember);
        dv = defaults.*(field.imember);
      }
      if (v != dv) os << "  " << name << ' ' << v << "\n";
    }
  }
}

}  // namespace sb::arch
