#include "fault/fault_plan.h"

#include <stdexcept>

#include "common/spec.h"

namespace sb::fault {
namespace {

constexpr std::string_view kNames[kNumFaultClasses] = {
    "wrap", "sat", "drop", "dup", "stuck", "noise", "delay", "reject",
    "blackout"};

// One entry: class:rate[:magnitude[:duration]]; defaults match FaultSpec.
constexpr spec::Field kEntry[] = {
    {.name = "class", .kind = spec::Kind::kEnum, .names = kNames},
    {"rate", spec::Kind::kReal, 0, 1},
    {"magnitude", spec::Kind::kReal, 0, spec::kInf, 1.0},
    {"duration", spec::Kind::kInt, 1, 1024, 1},
};

FaultSpec parse_entry(std::string_view entry) {
  FaultSpec s;
  double v[] = {0, 0, s.magnitude, static_cast<double>(s.duration_epochs)};
  spec::read_fields("--faults", kEntry, spec::split(entry, ':'), v);
  s.cls = static_cast<FaultClass>(v[0]);
  s.rate = v[1];
  s.magnitude = v[2];
  s.duration_epochs = static_cast<int>(v[3]);
  return s;
}

}  // namespace

const char* fault_class_name(FaultClass cls) {
  return kNames[static_cast<int>(cls)].data();
}

bool fault_class_from_name(const std::string& name, FaultClass* out) {
  for (int i = 0; i < kNumFaultClasses; ++i) {
    if (name == kNames[i]) {
      *out = static_cast<FaultClass>(i);
      return true;
    }
  }
  return false;
}

bool FaultPlan::empty() const {
  for (const auto& s : specs_) {
    if (s.rate > 0.0) return false;
  }
  return true;
}

const FaultSpec* FaultPlan::spec_of(FaultClass cls) const {
  for (const auto& s : specs_) {
    if (s.cls == cls && s.rate > 0.0) return &s;
  }
  return nullptr;
}

void FaultPlan::set(FaultSpec spec) {
  for (auto& s : specs_) {
    if (s.cls == spec.cls) {
      s = spec;
      return;
    }
  }
  specs_.push_back(spec);
}

FaultPlan FaultPlan::parse(const std::string& text, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (const std::string_view entry : spec::split(text, ',')) {
    if (!entry.empty()) plan.set(parse_entry(entry));
  }
  return plan;
}

FaultPlan FaultPlan::uniform(double rate, std::uint64_t seed) {
  if (!(rate >= 0.0) || rate > 1.0) {
    throw std::invalid_argument("FaultPlan::uniform: rate out of [0,1]");
  }
  FaultPlan plan;
  plan.seed = seed;
  for (FaultClass cls :
       {FaultClass::kCounterWrap, FaultClass::kCounterSaturate,
        FaultClass::kSampleDrop, FaultClass::kSampleDuplicate,
        FaultClass::kPowerStuck, FaultClass::kPowerNoise,
        FaultClass::kMigrationDelay, FaultClass::kMigrationReject}) {
    plan.set(FaultSpec{cls, rate, 1.0, 1});
  }
  plan.set(FaultSpec{FaultClass::kCoreBlackout, rate / 4.0, 1.0, 3});
  return plan;
}

std::string FaultPlan::canonical() const {
  std::string out;
  for (const auto& s : specs_) {
    if (!out.empty()) out += ',';
    spec::append_fields(out, kEntry,
                        {static_cast<double>(s.cls), s.rate, s.magnitude,
                         static_cast<double>(s.duration_epochs)});
  }
  return out;
}

}  // namespace sb::fault
