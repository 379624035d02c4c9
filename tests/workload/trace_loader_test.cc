#include "workload/trace_loader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <typeinfo>

#include "workload/benchmarks.h"

namespace sb::workload {
namespace {

TEST(TraceLoader, RoundTripsEveryLibraryBenchmark) {
  for (const auto& name : BenchmarkLibrary::parsec_names()) {
    Rng rng(1);
    const auto original = BenchmarkLibrary::get(name).spawn(1, rng)[0];
    std::stringstream buf;
    save_thread_trace(buf, original);
    const auto restored = load_thread_trace(buf, original.name);
    ASSERT_EQ(restored.phases.size(), original.phases.size()) << name;
    for (std::size_t i = 0; i < original.phases.size(); ++i) {
      EXPECT_EQ(restored.phases[i].instructions,
                original.phases[i].instructions);
      EXPECT_DOUBLE_EQ(restored.phases[i].profile.ilp,
                       original.phases[i].profile.ilp);
      EXPECT_DOUBLE_EQ(restored.phases[i].profile.mr_l1d_ref,
                       original.phases[i].profile.mr_l1d_ref);
      EXPECT_DOUBLE_EQ(restored.phases[i].profile.mlp,
                       original.phases[i].profile.mlp);
    }
  }
}

TEST(TraceLoader, FileRoundTrip) {
  const std::string path = "trace_loader_test_tmp.csv";
  Rng rng(2);
  const auto original = BenchmarkLibrary::get("canneal").spawn(1, rng)[0];
  save_thread_trace_file(path, original);
  const auto restored = load_thread_trace_file(path, "canneal/0");
  EXPECT_EQ(restored.phases.size(), original.phases.size());
  std::remove(path.c_str());
}

TEST(TraceLoader, HandCraftedTrace) {
  std::stringstream buf;
  buf << trace_csv_header() << "\n"
      << "10000000,2.5,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,1.8,1.0\n"
      << "5000000,3.5,0.15,0.08,0.01,12,64,1.4,0.002,0.02,0.2,2.2,1.1\n";
  const auto tb = load_thread_trace(buf, "custom");
  ASSERT_EQ(tb.phases.size(), 2u);
  EXPECT_EQ(tb.phases[0].instructions, 10'000'000u);
  EXPECT_DOUBLE_EQ(tb.phases[1].profile.ilp, 3.5);
  EXPECT_EQ(tb.phases[0].profile.name, "custom.phase0");
  EXPECT_NO_THROW(tb.validate());
}

TEST(TraceLoader, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(load_thread_trace(empty, "x"), std::runtime_error);

  std::stringstream bad_header("foo,bar\n1,2\n");
  EXPECT_THROW(load_thread_trace(bad_header, "x"), std::runtime_error);

  std::stringstream short_row;
  short_row << trace_csv_header() << "\n1000,2.5\n";
  EXPECT_THROW(load_thread_trace(short_row, "x"), std::runtime_error);

  std::stringstream non_numeric;
  non_numeric << trace_csv_header()
              << "\n10000000,fast,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,1.8,"
                 "1.0\n";
  EXPECT_THROW(load_thread_trace(non_numeric, "x"), std::runtime_error);

  std::stringstream invalid_profile;
  invalid_profile << trace_csv_header()
                  << "\n10000000,99,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,"
                     "1.8,1.0\n";
  EXPECT_THROW(load_thread_trace(invalid_profile, "x"), std::runtime_error);

  std::stringstream zero_insts;
  zero_insts << trace_csv_header()
             << "\n0,2.5,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,1.8,1.0\n";
  EXPECT_THROW(load_thread_trace(zero_insts, "x"), std::runtime_error);

  std::stringstream header_only;
  header_only << trace_csv_header() << "\n";
  EXPECT_THROW(load_thread_trace(header_only, "x"), std::runtime_error);
}

TEST(TraceLoader, ErrorsCarryLineNumbers) {
  std::stringstream bad;
  bad << trace_csv_header() << "\n"
      << "10000000,2.5,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,1.8,1.0\n"
      << "10000000,2.5,0.3\n";
  try {
    load_thread_trace(bad, "x");
    FAIL() << "should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceLoader, OverRangeNumericsAreRuntimeErrorNotOutOfRange) {
  // Regression for the stod/stoi leak class: over-range numerics used to
  // escape as std::out_of_range instead of the documented runtime_error
  // (with a line number). Same bug family the grammar fuzz suite caught.
  const std::string tail = ",2.5,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,1.8,1.0";
  for (const char* insts : {"1e999", "9e18", "1e309", "-5", "nan", "inf",
                            "99999999999999999999"}) {
    std::stringstream buf;
    buf << trace_csv_header() << "\n" << insts << tail << "\n";
    try {
      load_thread_trace(buf, "x");
      FAIL() << "accepted instructions=" << insts;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << insts << " -> " << e.what();
    } catch (const std::exception& e) {
      FAIL() << "instructions=" << insts << " leaked " << typeid(e).name()
             << ": " << e.what();
    }
  }
  // Over-range in a double column, too.
  std::stringstream buf;
  buf << trace_csv_header()
      << "\n10000000,1e999,0.3,0.12,0.04,24,512,1.1,0.006,0.07,0.4,1.8,1.0\n";
  EXPECT_THROW(load_thread_trace(buf, "x"), std::runtime_error);
}

TEST(TraceLoader, MissingFileThrows) {
  EXPECT_THROW(load_thread_trace_file("/no/such/trace.csv", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace sb::workload
