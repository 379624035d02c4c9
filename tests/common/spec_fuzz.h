// Seeded mutation stream shared by the grammar fuzz suites.
//
// SplitMix64 keeps the stream deterministic and independent of libc rand;
// each grammar supplies an alphabet biased toward its own bytes so that
// mutations stay interesting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sb::fuzz {

class Mutator {
 public:
  Mutator(std::uint64_t seed, std::string_view alphabet)
      : state_(seed), alphabet_(alphabet) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  char random_char() { return alphabet_[below(alphabet_.size())]; }

  /// One to four edits: flip, insert, delete, truncate, or append a slice.
  std::string mutate(std::string s) {
    const int edits = 1 + static_cast<int>(below(4));
    for (int e = 0; e < edits; ++e) {
      switch (below(5)) {
        case 0:
          if (!s.empty()) s[below(s.size())] = random_char();
          break;
        case 1:
          s.insert(s.begin() +
                       static_cast<std::ptrdiff_t>(below(s.size() + 1)),
                   random_char());
          break;
        case 2:
          if (!s.empty()) s.erase(below(s.size()), 1);
          break;
        case 3:
          if (!s.empty()) s.resize(below(s.size()));
          break;
        case 4:
          if (!s.empty()) {
            const std::size_t at = below(s.size());
            s += s.substr(at, below(s.size() - at) + 1);
          }
          break;
      }
    }
    return s;
  }

  /// A mutated corpus entry, or one time in ten a run of up to 31
  /// copies of one random byte.
  std::string input(const std::vector<std::string>& corpus) {
    const std::string& base = corpus[below(corpus.size())];
    return below(10) == 0
               ? std::string(below(32), static_cast<char>(next() & 0xff))
               : mutate(base);
  }

 private:
  std::uint64_t state_;
  std::string_view alphabet_;
};

/// The corpus the grammar fuzz row registered under test suite `suite`
/// (e.g. "FaultPlanFuzz") mutates.
const std::vector<std::string>& spec_corpus(std::string_view suite);

}  // namespace sb::fuzz
