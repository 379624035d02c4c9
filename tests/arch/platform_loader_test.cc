#include "arch/platform_loader.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sb::arch {
namespace {

TEST(PlatformLoader, ParsesTwoTypeDescription) {
  std::stringstream in(R"(
# prime + efficiency
core Prime x2
  issue_width 6
  rob_size 256
  freq_mhz 2800
  vdd 0.95
  area_mm2 8.0
  peak_power_w 4.5
core Eff x4
  issue_width 2
  freq_mhz 1400
  peak_power_w 0.4
)");
  const Platform p = load_platform(in);
  EXPECT_EQ(p.num_cores(), 6);
  EXPECT_EQ(p.num_types(), 2);
  const auto& prime = p.params_of_type(p.type_by_name("Prime"));
  EXPECT_EQ(prime.issue_width, 6);
  EXPECT_EQ(prime.rob_size, 256);
  EXPECT_DOUBLE_EQ(prime.freq_mhz, 2800);
  EXPECT_DOUBLE_EQ(prime.peak_power_w, 4.5);
  const auto& eff = p.params_of_type(p.type_by_name("Eff"));
  EXPECT_EQ(eff.issue_width, 2);
  // Unspecified fields fall back to Medium-class defaults.
  EXPECT_EQ(eff.rob_size, 64);
  EXPECT_DOUBLE_EQ(eff.l1d_kb, 16);
}

TEST(PlatformLoader, RoundTripsThroughSave) {
  std::stringstream in(R"(
core Big x1
  issue_width 4
  rob_size 128
  freq_mhz 1500
  vdd 0.8
  area_mm2 5.08
  peak_power_w 1.41
core Tiny x3
  issue_width 1
  freq_mhz 600
  peak_power_w 0.12
)");
  const Platform original = load_platform(in);
  std::stringstream buf;
  save_platform(buf, original);
  const Platform restored = load_platform(buf);
  EXPECT_EQ(restored.num_cores(), original.num_cores());
  EXPECT_EQ(restored.num_types(), original.num_types());
  for (CoreTypeId t = 0; t < original.num_types(); ++t) {
    EXPECT_TRUE(restored.params_of_type(t).same_microarchitecture(
        original.params_of_type(t)))
        << original.params_of_type(t).name;
    EXPECT_DOUBLE_EQ(restored.params_of_type(t).peak_power_w,
                     original.params_of_type(t).peak_power_w);
  }
}

TEST(PlatformLoader, CommentsAndBlanksIgnored) {
  std::stringstream in(
      "# leading comment\n\ncore A x1  # trailing comment\n"
      "  freq_mhz 900 # another\n\n");
  const Platform p = load_platform(in);
  EXPECT_EQ(p.num_cores(), 1);
  EXPECT_DOUBLE_EQ(p.params_of(0).freq_mhz, 900);
}

TEST(PlatformLoader, Errors) {
  std::stringstream no_block("freq_mhz 1000\n");
  EXPECT_THROW(load_platform(no_block), std::runtime_error);

  std::stringstream bad_count("core A x0\n");
  EXPECT_THROW(load_platform(bad_count), std::runtime_error);

  std::stringstream bad_header("core OnlyName\n");
  EXPECT_THROW(load_platform(bad_header), std::runtime_error);

  std::stringstream unknown("core A x1\n  warp_drive 9\n");
  EXPECT_THROW(load_platform(unknown), std::runtime_error);

  std::stringstream no_value("core A x1\n  freq_mhz\n");
  EXPECT_THROW(load_platform(no_value), std::runtime_error);

  std::stringstream junk("core A x1\n  freq_mhz 100 200\n");
  EXPECT_THROW(load_platform(junk), std::runtime_error);

  std::stringstream empty("");
  EXPECT_THROW(load_platform(empty), std::logic_error);  // no cores

  // Core counts parse strictly (the whole token, within [1, kMaxCores]);
  // integer fields reject fractional and out-of-int-range values.
  for (const char* text :
       {"core A x2junk\n", "core A x99999999999\n", "core A x1025\n",
        "core A x-1\n", "core A x1\n  rob_size 3.7\n",
        "core A x1\n  rob_size 1e12\n", "core A x1\n  rob_size -1e12\n",
        "core Pr\"ime x2\n", "core Pr,ime x2\n"}) {
    std::stringstream is(text);
    EXPECT_THROW(load_platform(is), std::runtime_error) << text;
  }

  // Physically invalid parameters are caught by Platform::validate.
  std::stringstream invalid("core A x1\n  freq_mhz -5\n");
  EXPECT_THROW(load_platform(invalid), std::logic_error);

  EXPECT_THROW(load_platform_file("/no/such/platform.txt"),
               std::runtime_error);
}

TEST(PlatformLoader, ErrorsCarryLineNumbers) {
  for (const char* text : {"core A x1\n  freq_mhz 100\n  bogus 3\n",
                           "core A x1\n  freq_mhz 100\ncore B x2junk\n",
                           "core A x1\n  freq_mhz 100\n  rob_size 3.7\n",
                           "core A x1\n  freq_mhz 100\n  rob_size 1e12\n",
                           "core A x1\n  freq_mhz 100\ncore Pr\"ime x2\n",
                           "core A x1\n  freq_mhz 100\ncore Pr,ime x2\n"}) {
    std::stringstream bad(text);
    try {
      load_platform(bad);
      ADD_FAILURE() << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(PlatformLoader, GeneratesBigLittle) {
  const Platform p = generate_platform("2x2");
  EXPECT_EQ(p.num_cores(), 4);
  EXPECT_EQ(p.num_types(), 2);
  EXPECT_EQ(p.cores_of_type(0).size(), 2u);
  EXPECT_EQ(p.cores_of_type(1).size(), 2u);
  // Type-major layout: big block first, LITTLE block after.
  EXPECT_EQ(p.type_of(0), p.type_of(1));
  EXPECT_EQ(p.type_of(2), p.type_of(3));
  EXPECT_NE(p.type_of(0), p.type_of(2));
}

TEST(PlatformLoader, GeneratesClusteredThousandCorePlatform) {
  const Platform p = generate_platform("32x96:8");
  EXPECT_EQ(p.num_cores(), 1024);
  EXPECT_EQ(p.num_types(), 2);
  EXPECT_EQ(p.cores_of_type(0).size(), 256u);
  EXPECT_EQ(p.cores_of_type(1).size(), 768u);
}

TEST(PlatformLoader, GeneratedSingleTypePlatforms) {
  EXPECT_EQ(generate_platform("4x0").num_types(), 1);
  EXPECT_EQ(generate_platform("0x4").num_types(), 1);
  EXPECT_EQ(generate_platform("0x1:3").num_cores(), 3);
}

TEST(PlatformLoader, GeneratedPlatformRoundTripsThroughSave) {
  // The generated layout is type-major precisely so save_platform (which
  // groups by type) reproduces it: save -> load must preserve every core's
  // type and per-type parameters.
  const Platform original = generate_platform("2x6:2");
  std::stringstream buf;
  save_platform(buf, original);
  const Platform restored = load_platform(buf);
  ASSERT_EQ(restored.num_cores(), original.num_cores());
  ASSERT_EQ(restored.num_types(), original.num_types());
  for (CoreId c = 0; c < original.num_cores(); ++c) {
    EXPECT_EQ(restored.type_of(c), original.type_of(c)) << "core " << c;
  }
  for (CoreTypeId t = 0; t < original.num_types(); ++t) {
    EXPECT_TRUE(restored.params_of_type(t).same_microarchitecture(
        original.params_of_type(t)));
  }
}

TEST(PlatformLoader, GeneratedMatchesHandWrittenQuadFixture) {
  // gen:2x2 must describe the same platform as the equivalent hand-written
  // big.LITTLE fixture loaded from text (modulo type names).
  const Platform gen = generate_platform("2x2");
  std::stringstream buf;
  save_platform(buf, gen);
  const Platform fixture = load_platform(buf);
  EXPECT_EQ(fixture.num_cores(), gen.num_cores());
  for (CoreId c = 0; c < gen.num_cores(); ++c) {
    EXPECT_DOUBLE_EQ(fixture.params_of(c).freq_mhz, gen.params_of(c).freq_mhz);
    EXPECT_DOUBLE_EQ(fixture.params_of(c).peak_power_w,
                     gen.params_of(c).peak_power_w);
  }
}

TEST(PlatformLoader, GenerateErrors) {
  EXPECT_THROW(generate_platform(""), std::invalid_argument);
  EXPECT_THROW(generate_platform("4"), std::invalid_argument);      // no 'x'
  EXPECT_THROW(generate_platform("x4"), std::invalid_argument);     // no big
  EXPECT_THROW(generate_platform("4x"), std::invalid_argument);     // no LITTLE
  EXPECT_THROW(generate_platform("0x0"), std::invalid_argument);    // empty
  EXPECT_THROW(generate_platform("0x0:4"), std::invalid_argument);  // empty
  EXPECT_THROW(generate_platform("2x2:0"), std::invalid_argument);
  EXPECT_THROW(generate_platform("2x2:-1"), std::invalid_argument);
  EXPECT_THROW(generate_platform("-2x2"), std::invalid_argument);
  EXPECT_THROW(generate_platform("2x2x2"), std::invalid_argument);
  EXPECT_THROW(generate_platform("a2x2"), std::invalid_argument);
  EXPECT_THROW(generate_platform("2x2:junk"), std::invalid_argument);
  // Totals beyond kMaxCores are rejected even when each field parses.
  EXPECT_THROW(generate_platform("512x512:3"), std::invalid_argument);
}

}  // namespace
}  // namespace sb::arch
