// Grammar fuzz for parse_replay_trace: ~10k seeded, deterministic mutations
// of valid traces plus raw garbage. The contract under test: the parser
// either returns a trace or throws std::runtime_error with a line number —
// never any other exception type, never UB (the suite also runs under
// ASan/UBSan in CI). The mutation stream is the one the spec grammar fuzz
// suite (tests/common/spec_fuzz_test.cc) uses.
#include "workload/sched_replay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "spec_fuzz.h"

namespace sb::workload {
namespace {

using namespace std::string_view_literals;

// Biased toward trace-grammar bytes so mutations stay interesting.
constexpr std::string_view kAlphabet =
    "0123456789.,-+eE \t\nspawnwakesleepexit"
    "event,t_us,task,refbuiltin:cannealIMB_MTHI\0\x7f"sv;

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kCorpus = {
      "event,t_us,task,ref\n"
      "spawn,0.000,a,builtin:canneal\n",

      "event,t_us,task,ref\n"
      "spawn,0.000,a,builtin:canneal\n"
      "sleep,1000.000,a,\n"
      "wake,3000.000,a,\n"
      "sleep,4000.000,a,\n"
      "exit,5000.000,a,\n",

      "event,t_us,task,ref\n"
      "spawn,0.000,bg,builtin:canneal\n"
      "spawn,100.000,ui,builtin:IMB_MTHI\n"
      "sleep,500.500,ui,\n"
      "wake,1500.250,ui,\n",

      "event,t_us,task,ref\n"
      "spawn,0.000,a,builtin:IMB_MTHI\n"
      "spawn,0.000,b,builtin:canneal\n"
      "sleep,10.125,a,\n"
      "wake,20.750,a,\n"
      "exit,30.000,b,\n",

      "",
  };
  return kCorpus;
}

bool all_refs_builtin(const ReplayTrace& trace) {
  for (const ReplayEvent& ev : trace.events) {
    if (ev.kind == ReplayEvent::Kind::Spawn &&
        !std::string_view(ev.ref).starts_with("builtin:")) {
      return false;
    }
  }
  return true;
}

/// The parser must return or throw std::runtime_error; nothing else. On
/// success, save→reparse must reproduce the trace exactly, and — when all
/// refs resolve to builtins so no filesystem access happens — the compiler
/// must also return or throw std::runtime_error.
void expect_contract(const std::string& input) {
  try {
    std::istringstream in(input);
    const ReplayTrace trace = parse_replay_trace(in);
    std::ostringstream saved;
    save_replay_trace(saved, trace);
    std::istringstream in2(saved.str());
    const ReplayTrace again = parse_replay_trace(in2);
    EXPECT_EQ(again, trace) << "unstable round-trip for input '" << input
                            << "'";
    if (all_refs_builtin(trace)) {
      try {
        const ReplaySchedule sched = compile_replay_schedule(trace);
        EXPECT_EQ(sched.tasks.size(), trace.num_tasks());
      } catch (const std::runtime_error&) {
        // Documented rejection path (e.g. unknown builtin benchmark).
      }
    }
  } catch (const std::runtime_error&) {
    // Documented rejection path.
  } catch (const std::exception& e) {
    FAIL() << "parse_replay_trace('" << input << "') leaked "
           << typeid(e).name() << ": " << e.what();
  }
}

TEST(SchedReplayFuzz, TenThousandSeededMutations) {
  fuzz::Mutator m(0x5eedcafeULL, kAlphabet);
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string input = m.input(corpus());
    try {
      std::istringstream in(input);
      (void)parse_replay_trace(in);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    expect_contract(input);
  }
  // The mutation stream must exercise both sides of the grammar.
  EXPECT_GT(parsed, 100) << "mutations never produced a valid trace";
  EXPECT_GT(rejected, 1000) << "mutations never produced an invalid trace";
}

TEST(SchedReplayFuzz, OverRangeNumericsAreRuntimeErrorNotOutOfRange) {
  // std::stod throws std::out_of_range on these; the parser must map that
  // onto its documented std::runtime_error contract.
  const std::string h = replay_csv_header() + "\n";
  for (const char* t :
       {"1e999", "1e-999", "9e307", "1e309", "99999999999999999999",
        "184467440737095516160"}) {
    std::istringstream in(h + "spawn," + t + ",a,builtin:canneal\n");
    EXPECT_THROW((void)parse_replay_trace(in), std::runtime_error) << t;
  }
}

TEST(SchedReplayFuzz, ValidCorpusStillParses) {
  for (const std::string& input : corpus()) {
    if (input.empty()) continue;  // empty input is the documented rejection
    std::istringstream in(input);
    EXPECT_NO_THROW((void)parse_replay_trace(in)) << input;
  }
}

}  // namespace
}  // namespace sb::workload
