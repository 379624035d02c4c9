// Text-format platform descriptions.
//
// Lets users define custom heterogeneous platforms without recompiling
// (sbsim --platform-file=...). Format: '#' comments, blank lines ignored;
// each core type is a block started by `core <name> x<count>` followed by
// `key value` lines; unspecified keys keep the defaults of a Medium-class
// core. Names use only [A-Za-z0-9_.-]: they become CSV cells and signal
// names in the exports. Example:
//
//   # 2 prime + 4 efficiency cores
//   core Prime x2
//     issue_width 6
//     rob_size 256
//     freq_mhz 2800
//     vdd 0.95
//     area_mm2 8.0
//     peak_power_w 4.5
//   core Eff x4
//     issue_width 2
//     freq_mhz 1400
//     peak_power_w 0.4
#pragma once

#include <iosfwd>
#include <string>

#include "arch/platform.h"

namespace sb::arch {

/// Parses a platform description; throws std::runtime_error with a line
/// number on malformed input, std::logic_error via Platform::validate() on
/// physically invalid parameters.
Platform load_platform(std::istream& is);
Platform load_platform_file(const std::string& path);

/// Writes `platform` in the same format (round-trips with load_platform).
void save_platform(std::ostream& os, const Platform& platform);

/// Synthetic large-platform generator (sbsim --platform=gen:<spec>): spec is
/// `<big>x<LITTLE>[:clusters]`, e.g. "2x2" (one cluster of 2 big + 2
/// LITTLE) or "32x96:8" (8 clusters totalling 256 big + 768 LITTLE = 1024
/// cores). Cores are laid out type-major (all big cores first, then all
/// LITTLEs) so the description round-trips through save_platform /
/// load_platform, which group by type; cluster c owns big cores
/// [c·big, (c+1)·big) and LITTLEs clusters·big + [c·little, (c+1)·little).
/// Throws std::invalid_argument on a malformed spec or a total core count
/// of 0 or beyond kMaxCores.
Platform generate_platform(const std::string& spec);

}  // namespace sb::arch
