#include "os/task.h"

#include <array>
#include <stdexcept>

namespace sb::os {

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::Runnable:
      return "Runnable";
    case TaskState::Running:
      return "Running";
    case TaskState::Sleeping:
      return "Sleeping";
  }
  return "?";
}

TaskRecord Task::record(TimeNs exited_at) const {
  return {.name = name,
          .lifetime_insts = lifetime_insts,
          .lifetime_energy_j = lifetime_energy_j,
          .lifetime_runtime = lifetime_runtime,
          .migrations = migrations,
          .arrived_at = arrived_at,
          .first_dispatched_at = first_dispatched_at,
          .exited_at = exited_at,
          .total_wait = total_wait,
          .max_wait = max_wait,
          .dispatches = dispatches};
}

std::uint32_t nice_to_weight(int nice) {
  // Linux's sched_prio_to_weight table, nice -20 .. +19.
  static constexpr std::array<std::uint32_t, 40> kTable = {
      88761, 71755, 56483, 46273, 36291,  // -20 .. -16
      29154, 23254, 18705, 14949, 11916,  // -15 .. -11
      9548,  7620,  6100,  4904,  3906,   // -10 .. -6
      3121,  2501,  1991,  1586,  1277,   //  -5 .. -1
      1024,  820,   655,   526,   423,    //   0 .. +4
      335,   272,   215,   172,   137,    //  +5 .. +9
      110,   87,    70,    56,    45,     // +10 .. +14
      36,    29,    23,    18,    15,     // +15 .. +19
  };
  if (nice < -20 || nice > 19) throw std::out_of_range("nice must be -20..19");
  return kTable[static_cast<std::size_t>(nice + 20)];
}

}  // namespace sb::os
