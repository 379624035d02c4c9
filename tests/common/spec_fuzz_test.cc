// One grammar fuzz suite for every config grammar built on common/spec.h.
//
// Each row holds a grammar's corpus, alphabet and seed; every row runs 10k
// seeded mutations of its corpus plus raw garbage against one contract:
//   - parse() returns a config or throws std::invalid_argument, and
//     nothing else (the suite also runs under ASan/UBSan in CI);
//   - an accepted spec's canonical() parses back to the same field values,
//     bit for bit, and to the same canonical text.
// Rows register under the ids their per-grammar harnesses had, so test
// history stays continuous.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/adapt.h"
#include "core/shard.h"
#include "fault/fault_plan.h"
#include "fleet/fleet_config.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "spec_fuzz.h"

namespace sb::fuzz {
namespace {

using namespace std::string_view_literals;

/// A parsed spec: its canonical() text and the exact bits of every field.
using Parsed = std::pair<std::string, std::string>;

template <class... T>
std::string bits(const T&... v) {
  std::string out;
  ((out += std::to_string(
        std::bit_cast<std::uint64_t>(static_cast<double>(v))),
    out += ','),
   ...);
  return out;
}

struct Grammar {
  const char* suite;
  const char* test;
  std::function<Parsed(const std::string&)> parse;
  std::vector<std::string> corpus;
  std::string_view alphabet;
  std::uint64_t seed;
};

const std::vector<Grammar>& grammars() {
  static const std::vector<Grammar> kGrammars = {
      {"FaultPlanFuzz", "TenThousandSeededMutations",
       [](const std::string& s) {
         const auto plan = fault::FaultPlan::parse(s, 1);
         std::string b;
         for (const auto& f : plan.specs()) {
           b += bits(static_cast<int>(f.cls), f.rate, f.magnitude,
                     f.duration_epochs);
         }
         return Parsed{plan.canonical(), b};
       },
       {"wrap:0.05", "wrap:0.05,noise:0.02:3", "sat:0.1:2.5",
        "drop:0.01,dup:0.01,stuck:0.02:1:4", "blackout:0.0125:1:3",
        "delay:0.5,reject:0.25", "noise:1:0:1024", "wrap:1e-3:0.5:7", ""},
       "0123456789.:,-+eE \tinfnanwrapsatdropdupstucknoisedelayreject"
       "blackout\0\x7f"sv,
       0x5eedf00dULL},
      {"AdaptationConfigFuzz", "TenThousandSeededMutations",
       [](const std::string& s) {
         const auto c = core::AdaptationConfig::parse(s);
         return Parsed{c.canonical(), bits(c.bias, c.rls)};
       },
       {"bias", "rls", "bias,rls", "rls,bias", ",bias,", "rls,,rls", ""},
       "0123456789.:,-+eE \tinfnanbiasrlsdriftresetlambdaclamp\0\x7f"sv,
       0xada9f00dULL},
      {"ShardingConfig", "FuzzedSpecsEitherParseOrThrowInvalidArgument",
       [](const std::string& s) {
         const auto c = core::ShardingConfig::parse(s);
         return Parsed{c.canonical(),
                       bits(c.shards, c.jobs, c.exchange_moves)};
       },
       {"8", "8:4", "8:4:16", "0", "1", "4:0:0", "2:1", "1024:4096:1048576"},
       "0123456789:-+x abc\0\x7f"sv, 2024},
      {"FleetConfig", "CanonicalRoundTripFuzz",
       [](const std::string& s) {
         const auto c = fleet::FleetConfig::parse(s);
         return Parsed{c.canonical(),
                       bits(c.nodes, static_cast<int>(c.policy), c.rate_hz)};
       },
       {"4", "8:rr", "8:energy:450", "16:least:120.25", "1024:energy:1",
        "3:round-robin:1e-7", "2:least-loaded:450.1234567",
        "6:energy-aware:1e7"},
       "0123456789.:-+eE \troundrobinleastloadedenergyaware\0\x7f"sv,
       0xf1ee7ULL},
      {"TimeseriesConfigFuzz", "TenThousandSeededMutations",
       [](const std::string& s) {
         const auto c = obs::TimeseriesConfig::parse(s);
         return Parsed{c.canonical(), bits(c.enabled, c.window, c.capacity)};
       },
       {"10", "5:8192", "1:64", "60000:64", "25", "10:16777216", ""},
       "0123456789.:,-+eE \twindowburncapacity<>=_janp99\0\x7f"sv, 0x75dbULL},
      {"SloConfigFuzz", "TenThousandSeededMutations",
       [](const std::string& s) {
         const auto c = obs::SloConfig::parse(s);
         std::string b;
         for (const auto& o : c.objectives) {
           b += o.signal + ',' + bits(o.upper, o.threshold, o.burn, o.window);
         }
         return Parsed{c.canonical(), b};
       },
       {"p99_wake_us<2000:burn=0.02", "je>55e6:window=200",
        "je_w>1e9:burn=0.3:window=200,p99_wake_us<20000:burn=0.3:window=200",
        "a<1", "sig_1.x>0:burn=0.5:window=1", "x>0:window=600000", ""},
       "0123456789.:,-+eE \tburn=window=<>_jep99wakeusw\0\x7f"sv,
       0x510f00dULL},
  };
  return kGrammars;
}

class GrammarFuzz : public ::testing::Test {
 public:
  explicit GrammarFuzz(const Grammar& g) : g_(g) {}

  void TestBody() override {
    Mutator m(g_.seed, g_.alphabet);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 10'000; ++i) {
      const std::string input = m.input(g_.corpus);
      Parsed first;
      try {
        first = g_.parse(input);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "parse('" << input << "') leaked " << typeid(e).name()
                      << ": " << e.what();
        continue;
      }
      ++parsed;
      try {
        const Parsed again = g_.parse(first.first);
        EXPECT_EQ(again.second, first.second)
            << "'" << input << "' -> '" << first.first << "' lost bits";
        EXPECT_EQ(again.first, first.first) << "unstable canonical form";
      } catch (const std::exception& e) {
        ADD_FAILURE() << "canonical '" << first.first << "' of '" << input
                      << "' does not parse: " << e.what();
      }
    }
    // The mutation stream must exercise both sides of the grammar.
    EXPECT_GT(parsed, 100) << "mutations never produced a valid spec";
    EXPECT_GT(rejected, 1000) << "mutations never produced an invalid spec";
  }

 private:
  const Grammar& g_;
};

[[maybe_unused]] const bool kRegistered = [] {
  for (const Grammar& g : grammars()) {
    ::testing::RegisterTest(g.suite, g.test, nullptr, nullptr, __FILE__,
                            __LINE__, [&g]() -> ::testing::Test* {
                              return new GrammarFuzz(g);
                            });
  }
  return true;
}();

}  // namespace

const std::vector<std::string>& spec_corpus(std::string_view suite) {
  for (const Grammar& g : grammars()) {
    if (g.suite == suite) return g.corpus;
  }
  throw std::invalid_argument("no grammar fuzz row for " + std::string(suite));
}

}  // namespace sb::fuzz
