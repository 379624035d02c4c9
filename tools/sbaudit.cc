// sbaudit — analyzer for SmartBalance prediction-audit exports.
//
// Reads one or more packed-CSV audit exports (written by sbsim --audit=,
// the bench sweeps' --audit=, or obs::write_audit_file) and reports how
// well the predictor and the SA optimizer actually did:
//
//   * Fig.6-style aggregate prediction error (throughput and power)
//   * per-(src,dst)-core-type residual tables and histograms
//   * decision-regret distribution (predicted ΔJ vs realized ΔJ)
//   * migration ledger (predicted vs realized efficiency gain)
//   * drift events and final detector state
//
// Modes:
//   sbaudit export.csv [more.csv ...]       human-readable report
//   sbaudit --summary=out.json export.csv   machine-readable summary (CI)
//   sbaudit --check --schema=tools/audit_schema.json export.csv
//                                           schema validation, exit != 0 on
//                                           any violation
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/spec.h"

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader for the schema file (objects / arrays / strings /
// numbers; no escapes beyond \" and \\ — the schema is ours and simple).
// ---------------------------------------------------------------------------
struct JsonValue {
  enum Kind { kNull, kNumber, kString, kArray, kObject } kind = kNull;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* msg) {
    throw std::runtime_error(std::string("schema JSON: ") + msg);
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    skip_ws();
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  std::string string_lit() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        out += s_[pos_++];
      } else {
        out += c;
      }
    }
    return out;
  }
  JsonValue value() {
    skip_ws();
    JsonValue v;
    char c = peek();
    if (c == '{') {
      ++pos_;
      v.kind = JsonValue::kObject;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        std::string key = [&] {
          skip_ws();
          return string_lit();
        }();
        expect(':');
        v.fields.emplace_back(std::move(key), value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    } else if (c == '[') {
      ++pos_;
      v.kind = JsonValue::kArray;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.items.push_back(value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        break;
      }
    } else if (c == '"') {
      v.kind = JsonValue::kString;
      v.str = string_lit();
    } else {
      v.kind = JsonValue::kNumber;
      char* end = nullptr;
      v.number = std::strtod(s_.c_str() + pos_, &end);
      if (end == s_.c_str() + pos_) fail("bad number");
      pos_ = static_cast<std::size_t>(end - s_.c_str());
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Export parsing
// ---------------------------------------------------------------------------
struct ThreadRec {
  std::uint64_t epoch;
  long tid;
  int core, src_type, dst_type;
  double pred_gips, obs_gips, pred_w, obs_w, gips_err, power_err;
  // v2: residuals of the pre-adaptation forecast (== gips_err/power_err in
  // v1 exports and unadapted v2 runs).
  double raw_gips_err, raw_power_err;
};
struct EpochRec {
  std::uint64_t epoch;
  double initial_j, final_j;
  int applied;
  double pred_dj, realized_j, realized_dj;
  int realized_valid;
  double regret;
  int migrations, joined, unjoined;
  double healthy_fraction;
  int degraded, sa_iterations, sa_accepted_worse, sa_improved;
  long faults_injected;
};
struct MigrationRec {
  std::uint64_t epoch;
  long tid;
  int src, dst, src_type, dst_type;
  double pred_gain, realized_gain;
  int realized_valid;
};
struct DriftRec {
  std::uint64_t epoch;
  int src_type, dst_type, metric;
  double ewma;
  std::uint64_t joins;
};
struct StateRec {
  int src_type, dst_type;
  std::uint64_t joins;
  double ewma_gips, ewma_power;
  int active;
  // v2: signed residual EWMAs (0 in v1 exports).
  double ewma_gips_signed, ewma_power_signed;
};

struct Export {
  int version = 0;
  std::map<std::string, std::vector<std::string>> columns;
  int runs = 0;             // #run blocks seen
  int declared_runs = -1;   // #summary runs=
  std::vector<ThreadRec> threads;
  std::vector<EpochRec> epochs;
  std::vector<MigrationRec> migrations;
  std::vector<DriftRec> drifts;
  std::vector<StateRec> states;
  std::vector<std::string> errors;  // populated in check mode
};

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

double field(const std::vector<std::string>& f, std::size_t i) {
  double v = 0;
  if (i < f.size()) parse_double(f[i], &v);
  return v;
}

void parse_file(const std::string& path, Export& ex, bool check) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  int lineno = 0;
  auto err = [&](const std::string& what) {
    ex.errors.push_back(path + ":" + std::to_string(lineno) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("#sb-audit v", 0) == 0) {
        ex.version = std::atoi(line.c_str() + std::strlen("#sb-audit v"));
      } else if (line.rfind("#columns ", 0) == 0) {
        std::istringstream is(line.substr(std::strlen("#columns ")));
        std::string kind, cols;
        is >> kind >> cols;
        const auto names = sb::spec::split(cols, ',');
        ex.columns[kind].assign(names.begin(), names.end());
      } else if (line.rfind("#run ", 0) == 0) {
        ++ex.runs;
      } else if (line.rfind("#summary runs=", 0) == 0) {
        ex.declared_runs =
            std::atoi(line.c_str() + std::strlen("#summary runs="));
      } else if (line.rfind("#counters ", 0) == 0) {
        // informational
      } else if (check) {
        err("unknown directive: " + line);
      }
      continue;
    }
    const auto views = sb::spec::split(line, ',');
    const std::vector<std::string> f(views.begin(), views.end());
    const std::string& kind = f[0];
    const auto it = ex.columns.find(kind);
    if (it == ex.columns.end()) {
      if (check) err("row of unknown kind: " + kind);
      continue;
    }
    if (f.size() != it->second.size() + 1) {
      if (check) {
        err(kind + " row has " + std::to_string(f.size() - 1) + " fields, " +
            "columns declare " + std::to_string(it->second.size()));
      }
      continue;
    }
    if (check) {
      for (std::size_t i = 1; i < f.size(); ++i) {
        double v;
        if (!parse_double(f[i], &v) || !std::isfinite(v)) {
          err(kind + " row field '" + it->second[i - 1] +
              "' is not a finite number: " + f[i]);
        }
      }
    }
    if (kind == "thread") {
      ThreadRec r{};
      r.epoch = static_cast<std::uint64_t>(field(f, 1));
      r.tid = static_cast<long>(field(f, 2));
      r.core = static_cast<int>(field(f, 3));
      r.src_type = static_cast<int>(field(f, 4));
      r.dst_type = static_cast<int>(field(f, 5));
      r.pred_gips = field(f, 6);
      r.obs_gips = field(f, 7);
      r.pred_w = field(f, 8);
      r.obs_w = field(f, 9);
      r.gips_err = field(f, 10);
      r.power_err = field(f, 11);
      if (f.size() >= 14) {
        r.raw_gips_err = field(f, 12);
        r.raw_power_err = field(f, 13);
      } else {  // v1 export: no adaptation existed, raw == corrected
        r.raw_gips_err = r.gips_err;
        r.raw_power_err = r.power_err;
      }
      ex.threads.push_back(r);
    } else if (kind == "epoch") {
      EpochRec r{};
      r.epoch = static_cast<std::uint64_t>(field(f, 1));
      r.initial_j = field(f, 2);
      r.final_j = field(f, 3);
      r.applied = static_cast<int>(field(f, 4));
      r.pred_dj = field(f, 5);
      r.realized_j = field(f, 6);
      r.realized_dj = field(f, 7);
      r.realized_valid = static_cast<int>(field(f, 8));
      r.regret = field(f, 9);
      r.migrations = static_cast<int>(field(f, 10));
      r.joined = static_cast<int>(field(f, 11));
      r.unjoined = static_cast<int>(field(f, 12));
      r.healthy_fraction = field(f, 13);
      r.degraded = static_cast<int>(field(f, 14));
      r.sa_iterations = static_cast<int>(field(f, 15));
      r.sa_accepted_worse = static_cast<int>(field(f, 16));
      r.sa_improved = static_cast<int>(field(f, 17));
      r.faults_injected = static_cast<long>(field(f, 18));
      ex.epochs.push_back(r);
    } else if (kind == "migration") {
      MigrationRec r{};
      r.epoch = static_cast<std::uint64_t>(field(f, 1));
      r.tid = static_cast<long>(field(f, 2));
      r.src = static_cast<int>(field(f, 3));
      r.dst = static_cast<int>(field(f, 4));
      r.src_type = static_cast<int>(field(f, 5));
      r.dst_type = static_cast<int>(field(f, 6));
      r.pred_gain = field(f, 7);
      r.realized_gain = field(f, 8);
      r.realized_valid = static_cast<int>(field(f, 9));
      ex.migrations.push_back(r);
    } else if (kind == "drift") {
      DriftRec r{};
      r.epoch = static_cast<std::uint64_t>(field(f, 1));
      r.src_type = static_cast<int>(field(f, 2));
      r.dst_type = static_cast<int>(field(f, 3));
      r.metric = static_cast<int>(field(f, 4));
      r.ewma = field(f, 5);
      r.joins = static_cast<std::uint64_t>(field(f, 6));
      ex.drifts.push_back(r);
    } else if (kind == "state") {
      StateRec r{};
      r.src_type = static_cast<int>(field(f, 1));
      r.dst_type = static_cast<int>(field(f, 2));
      r.joins = static_cast<std::uint64_t>(field(f, 3));
      r.ewma_gips = field(f, 4);
      r.ewma_power = field(f, 5);
      r.active = static_cast<int>(field(f, 6));
      r.ewma_gips_signed = field(f, 7);
      r.ewma_power_signed = field(f, 8);
      ex.states.push_back(r);
    }
  }
  if (check) {
    if (ex.version == 0) ex.errors.push_back(path + ": missing #sb-audit header");
    if (ex.declared_runs < 0) {
      ex.errors.push_back(path + ": missing #summary line");
    }
  }
}

// ---------------------------------------------------------------------------
// Schema check
// ---------------------------------------------------------------------------
int check_schema(const Export& ex, const std::string& schema_path) {
  std::vector<std::string> errors = ex.errors;
  if (!schema_path.empty()) {
    std::ifstream in(schema_path, std::ios::binary);
    if (!in) {
      std::cerr << "sbaudit: cannot open schema " << schema_path << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    JsonValue schema = JsonParser(text).parse();
    const JsonValue* version = schema.get("version");
    if (version == nullptr ||
        static_cast<int>(version->number) != ex.version) {
      errors.push_back("export version " + std::to_string(ex.version) +
                       " does not match schema version");
    }
    const JsonValue* records = schema.get("records");
    if (records == nullptr) {
      errors.push_back("schema has no 'records' object");
    } else {
      for (const auto& [kind, cols] : records->fields) {
        const auto it = ex.columns.find(kind);
        if (it == ex.columns.end()) {
          errors.push_back("export declares no columns for kind '" + kind +
                           "'");
          continue;
        }
        std::vector<std::string> want;
        for (const JsonValue& c : cols.items) want.push_back(c.str);
        if (want != it->second) {
          errors.push_back("column mismatch for kind '" + kind + "'");
        }
      }
      for (const auto& [kind, cols] : ex.columns) {
        if (records->get(kind) == nullptr) {
          errors.push_back("export kind '" + kind + "' not in schema");
        }
      }
    }
  }
  if (!errors.empty()) {
    for (const auto& e : errors) std::cerr << "sbaudit: " << e << "\n";
    std::cerr << "sbaudit: check FAILED (" << errors.size() << " error(s))\n";
    return 1;
  }
  std::cout << "sbaudit: check OK (v" << ex.version << ", " << ex.runs
            << " run(s), " << ex.threads.size() << " thread / "
            << ex.epochs.size() << " epoch / " << ex.migrations.size()
            << " migration records)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------
double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

struct PairStats {
  std::vector<double> gips_err, power_err;
};

constexpr double kHistEdges[] = {1, 2, 5, 10, 20, 50};
constexpr int kHistBins = 7;

void histogram(const std::vector<double>& errs_pct, long* bins) {
  for (int b = 0; b < kHistBins; ++b) bins[b] = 0;
  for (double e : errs_pct) {
    int b = 0;
    while (b < kHistBins - 1 && e >= kHistEdges[b]) ++b;
    ++bins[b];
  }
}

void print_histogram(const char* title, const std::vector<double>& errs_pct) {
  long bins[kHistBins];
  histogram(errs_pct, bins);
  std::printf("    %-18s", title);
  const char* labels[kHistBins] = {"<1%",    "1-2%",   "2-5%",  "5-10%",
                                   "10-20%", "20-50%", ">=50%"};
  for (int b = 0; b < kHistBins; ++b) {
    std::printf(" %s:%ld", labels[b], bins[b]);
  }
  std::printf("\n");
}

void report(const Export& ex, const std::string& summary_path) {
  // Per-(src,dst) residual tables.
  std::map<std::pair<int, int>, PairStats> pairs;
  std::map<int, PairStats> by_dst_type;
  std::vector<double> all_gips, all_power, all_raw_gips, all_raw_power;
  bool corrected = false;  // any record where adaptation moved the forecast
  for (const ThreadRec& r : ex.threads) {
    const double ge = std::abs(r.gips_err) * 100.0;
    const double pe = std::abs(r.power_err) * 100.0;
    all_raw_gips.push_back(std::abs(r.raw_gips_err) * 100.0);
    all_raw_power.push_back(std::abs(r.raw_power_err) * 100.0);
    if (r.raw_gips_err != r.gips_err || r.raw_power_err != r.power_err) {
      corrected = true;
    }
    auto& p = pairs[{r.src_type, r.dst_type}];
    p.gips_err.push_back(ge);
    p.power_err.push_back(pe);
    auto& d = by_dst_type[r.dst_type];
    d.gips_err.push_back(ge);
    d.power_err.push_back(pe);
    all_gips.push_back(ge);
    all_power.push_back(pe);
  }

  std::vector<double> regrets, pred_djs, realized_djs;
  long applied = 0, degraded = 0, valid = 0;
  for (const EpochRec& r : ex.epochs) {
    if (r.applied) ++applied;
    if (r.degraded) ++degraded;
    if (r.realized_valid) {
      ++valid;
      if (r.applied) {
        regrets.push_back(r.regret);
        pred_djs.push_back(r.pred_dj);
        realized_djs.push_back(r.realized_dj);
      }
    }
  }

  long mig_valid = 0, mig_won = 0;
  std::vector<double> mig_pred, mig_real;
  for (const MigrationRec& r : ex.migrations) {
    mig_pred.push_back(r.pred_gain);
    if (r.realized_valid) {
      ++mig_valid;
      mig_real.push_back(r.realized_gain);
      if (r.realized_gain > 0) ++mig_won;
    }
  }

  std::printf("prediction audit: %d run(s), %zu thread / %zu epoch / %zu "
              "migration records\n",
              ex.runs, ex.threads.size(), ex.epochs.size(),
              ex.migrations.size());
  std::printf("\naggregate prediction error (joined forecasts, Fig.6 "
              "analogue):\n");
  std::printf("    throughput: mean %.2f %%  p95 %.2f %%\n", mean(all_gips),
              percentile(all_gips, 0.95));
  std::printf("    power:      mean %.2f %%  p95 %.2f %%\n", mean(all_power),
              percentile(all_power, 0.95));
  if (corrected) {
    std::printf("  pre-adaptation (raw Eq.8 forecasts):\n");
    std::printf("    throughput: mean %.2f %%  p95 %.2f %%\n",
                mean(all_raw_gips), percentile(all_raw_gips, 0.95));
    std::printf("    power:      mean %.2f %%  p95 %.2f %%\n",
                mean(all_raw_power), percentile(all_raw_power, 0.95));
    const double before =
        0.5 * (mean(all_raw_gips) + mean(all_raw_power));
    const double after = 0.5 * (mean(all_gips) + mean(all_power));
    std::printf("    bias/gain correction: combined mean %.2f %% -> %.2f %%\n",
                before, after);
  }

  std::printf("\nper-(src,dst) core-type residuals:\n");
  std::printf("    %3s %3s %8s %12s %12s\n", "src", "dst", "joins",
              "|gips err|%", "|power err|%");
  for (const auto& [key, st] : pairs) {
    std::printf("    %3d %3d %8zu %12.2f %12.2f\n", key.first, key.second,
                st.gips_err.size(), mean(st.gips_err), mean(st.power_err));
  }

  std::printf("\nper-core-type residual histograms (dst type):\n");
  for (const auto& [t, st] : by_dst_type) {
    std::printf("  type %d:\n", t);
    print_histogram("throughput", st.gips_err);
    print_histogram("power", st.power_err);
  }

  std::printf("\ndecision regret (applied allocations, predicted dJ - "
              "realized dJ):\n");
  std::printf("    epochs: %zu  applied: %ld  degraded: %ld  validated: %ld\n",
              ex.epochs.size(), applied, degraded, valid);
  if (!regrets.empty()) {
    std::printf("    regret: mean %+.4f  p50 %+.4f  p90 %+.4f  (n=%zu)\n",
                mean(regrets), percentile(regrets, 0.5),
                percentile(regrets, 0.9), regrets.size());
    std::printf("    predicted dJ mean %+.4f  realized dJ mean %+.4f\n",
                mean(pred_djs), mean(realized_djs));
  } else {
    std::printf("    no validated applied decisions\n");
  }

  std::printf("\nmigration ledger:\n");
  std::printf("    migrations: %zu  validated: %ld  realized>0: %ld\n",
              ex.migrations.size(), mig_valid, mig_won);
  if (!mig_pred.empty()) {
    std::printf("    predicted gain mean %+.4f GIPS/W", mean(mig_pred));
    if (!mig_real.empty()) {
      std::printf("  realized gain mean %+.4f GIPS/W", mean(mig_real));
    }
    std::printf("\n");
  }

  std::printf("\ndrift: %zu event(s)\n", ex.drifts.size());
  for (const DriftRec& d : ex.drifts) {
    std::printf("    epoch %llu: pair (%d -> %d) %s residual EWMA %.3f "
                "(joins %llu)\n",
                static_cast<unsigned long long>(d.epoch), d.src_type,
                d.dst_type, d.metric == 0 ? "throughput" : "power", d.ewma,
                static_cast<unsigned long long>(d.joins));
  }

  if (!summary_path.empty()) {
    std::ofstream js(summary_path, std::ios::binary);
    if (!js) throw std::runtime_error("cannot write " + summary_path);
    js << "{\"schema\":\"sb.audit.summary\",\"version\":1";
    js << ",\"runs\":" << ex.runs;
    js << ",\"thread_records\":" << ex.threads.size();
    js << ",\"epoch_records\":" << ex.epochs.size();
    js << ",\"migration_records\":" << ex.migrations.size();
    char buf[64];
    auto num = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.6g", v);
      js << buf;
    };
    js << ",\"perf_err_pct\":";
    num(mean(all_gips));
    js << ",\"power_err_pct\":";
    num(mean(all_power));
    js << ",\"pairs\":[";
    bool first = true;
    for (const auto& [key, st] : pairs) {
      if (!first) js << ',';
      first = false;
      js << "{\"src\":" << key.first << ",\"dst\":" << key.second
         << ",\"joins\":" << st.gips_err.size() << ",\"gips_err_pct\":";
      num(mean(st.gips_err));
      js << ",\"power_err_pct\":";
      num(mean(st.power_err));
      js << "}";
    }
    js << "],\"regret\":{\"count\":" << regrets.size() << ",\"mean\":";
    num(mean(regrets));
    js << ",\"p50\":";
    num(percentile(regrets, 0.5));
    js << ",\"p90\":";
    num(percentile(regrets, 0.9));
    js << "},\"migrations\":{\"count\":" << ex.migrations.size()
       << ",\"validated\":" << mig_valid << ",\"realized_positive\":"
       << mig_won << ",\"pred_gain_mean\":";
    num(mean(mig_pred));
    js << ",\"realized_gain_mean\":";
    num(mean(mig_real));
    js << "},\"drift_events\":" << ex.drifts.size();
    js << ",\"degraded_epochs\":" << degraded;
    js << "}\n";
    std::cout << "\nsummary written to " << summary_path << "\n";
  }
}

// ---------------------------------------------------------------------------
// Diff mode: before/after Fig.6-style comparison of two exports
// ---------------------------------------------------------------------------
struct DiffSide {
  std::vector<double> gips, power;            // corrected |err| %
  std::vector<double> raw_gips, raw_power;    // pre-adaptation |err| %
  std::map<std::pair<int, int>, PairStats> pairs;
};

DiffSide collect_side(const Export& ex) {
  DiffSide s;
  for (const ThreadRec& r : ex.threads) {
    const double ge = std::abs(r.gips_err) * 100.0;
    const double pe = std::abs(r.power_err) * 100.0;
    s.gips.push_back(ge);
    s.power.push_back(pe);
    s.raw_gips.push_back(std::abs(r.raw_gips_err) * 100.0);
    s.raw_power.push_back(std::abs(r.raw_power_err) * 100.0);
    auto& p = s.pairs[{r.src_type, r.dst_type}];
    p.gips_err.push_back(ge);
    p.power_err.push_back(pe);
  }
  return s;
}

int diff_report(const Export& a, const std::string& pa, const Export& b,
                const std::string& pb, bool require_improvement) {
  // Both inputs were parsed in check mode: structural damage (truncated
  // rows, permuted sections, missing header/summary) fails the diff
  // outright rather than producing a silently wrong comparison.
  std::vector<std::string> errors;
  errors.insert(errors.end(), a.errors.begin(), a.errors.end());
  errors.insert(errors.end(), b.errors.begin(), b.errors.end());
  if (a.threads.empty()) errors.push_back(pa + ": no joined thread records");
  if (b.threads.empty()) errors.push_back(pb + ": no joined thread records");
  if (!errors.empty()) {
    for (const auto& e : errors) std::cerr << "sbaudit: " << e << "\n";
    std::cerr << "sbaudit: diff FAILED (" << errors.size() << " error(s))\n";
    return 1;
  }

  const DiffSide da = collect_side(a);
  const DiffSide db = collect_side(b);

  std::printf("prediction-audit diff (Fig.6 analogue, before -> after):\n");
  std::printf("    A: %s (v%d, %zu thread records, %zu drift events)\n",
              pa.c_str(), a.version, a.threads.size(), a.drifts.size());
  std::printf("    B: %s (v%d, %zu thread records, %zu drift events)\n",
              pb.c_str(), b.version, b.threads.size(), b.drifts.size());

  std::printf("\naggregate |err| %% (corrected forecasts):\n");
  std::printf("    %-18s %10s %10s %10s\n", "", "A", "B", "delta");
  auto row = [](const char* name, double va, double vb) {
    std::printf("    %-18s %10.2f %10.2f %+10.2f\n", name, va, vb, vb - va);
  };
  row("throughput mean", mean(da.gips), mean(db.gips));
  row("throughput p95", percentile(da.gips, 0.95),
      percentile(db.gips, 0.95));
  row("power mean", mean(da.power), mean(db.power));
  row("power p95", percentile(da.power, 0.95), percentile(db.power, 0.95));
  const double score_a = 0.5 * (mean(da.gips) + mean(da.power));
  const double score_b = 0.5 * (mean(db.gips) + mean(db.power));
  row("combined mean", score_a, score_b);
  const double raw_b = 0.5 * (mean(db.raw_gips) + mean(db.raw_power));
  if (raw_b != score_b) {
    std::printf("    (B pre-correction combined mean: %.2f %%)\n", raw_b);
  }

  std::printf("\nper-(src,dst) mean |err| %% (A -> B):\n");
  std::printf("    %3s %3s %8s %8s  %8s->%-8s %8s->%-8s\n", "src", "dst",
              "joins A", "joins B", "gips A", "gips B", "power A", "power B");
  std::map<std::pair<int, int>, int> merged;
  for (const auto& kv : da.pairs) merged[kv.first] = 0;
  for (const auto& kv : db.pairs) merged[kv.first] = 0;
  for (const auto& kv : merged) {
    const std::pair<int, int>& k = kv.first;
    const auto ita = da.pairs.find(k);
    const auto itb = db.pairs.find(k);
    const PairStats empty;
    const PairStats& sa = ita != da.pairs.end() ? ita->second : empty;
    const PairStats& sb = itb != db.pairs.end() ? itb->second : empty;
    std::printf("    %3d %3d %8zu %8zu  %8.2f->%-8.2f %8.2f->%-8.2f\n",
                k.first, k.second, sa.gips_err.size(), sb.gips_err.size(),
                mean(sa.gips_err), mean(sb.gips_err), mean(sa.power_err),
                mean(sb.power_err));
  }

  const bool improved = score_b < score_a;
  std::printf("\nverdict: combined mean |err| %.2f %% -> %.2f %% (%s)\n",
              score_a, score_b,
              improved ? "improved" : "NOT improved");
  if (require_improvement && !improved) {
    std::cerr << "sbaudit: diff FAILED (--require-improvement: B must "
                 "strictly reduce combined mean |err|)\n";
    return 1;
  }
  return 0;
}

[[noreturn]] void usage(int code) {
  std::cout << R"(sbaudit — SmartBalance prediction-audit analyzer

  sbaudit [options] <export.csv> [more exports ...]
  sbaudit --diff <before.csv> <after.csv> [--require-improvement]

  --summary=<file>   write a machine-readable JSON summary
  --check            validate the export structure (directives, row arity,
                     finite fields); exit 1 on any violation
  --schema=<file>    with --check: also validate column names and schema
                     version against the schema JSON (tools/audit_schema.json)
  --diff             compare exactly two exports (e.g. adaptation off vs on)
                     and render before/after Fig.6-style error tables; both
                     files are structurally validated first and any damage
                     fails the diff
  --require-improvement
                     with --diff: exit 1 unless the second export strictly
                     reduces the combined mean |err| (gated in CI)
)";
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> inputs;
    std::string summary_path, schema_path;
    bool check = false, diff = false, require_improvement = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg.rfind("--summary=", 0) == 0)
        summary_path = arg.substr(std::strlen("--summary="));
      else if (arg == "--check") check = true;
      else if (arg == "--diff") diff = true;
      else if (arg == "--require-improvement") require_improvement = true;
      else if (arg.rfind("--schema=", 0) == 0)
        schema_path = arg.substr(std::strlen("--schema="));
      else if (arg.rfind("--", 0) == 0) {
        std::cerr << "unknown option: " << arg << "\n";
        usage(2);
      } else {
        inputs.push_back(arg);
      }
    }
    if (require_improvement && !diff) {
      std::cerr << "--require-improvement needs --diff\n";
      usage(2);
    }
    if (diff) {
      if (inputs.size() != 2) {
        std::cerr << "--diff needs exactly two export files\n";
        usage(2);
      }
      Export a, b;
      parse_file(inputs[0], a, /*check=*/true);
      parse_file(inputs[1], b, /*check=*/true);
      return diff_report(a, inputs[0], b, inputs[1], require_improvement);
    }
    if (inputs.empty()) {
      std::cerr << "no export files given\n";
      usage(2);
    }
    Export ex;
    for (const auto& path : inputs) parse_file(path, ex, check);
    if (check) return check_schema(ex, schema_path);
    report(ex, summary_path);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sbaudit: " << e.what() << "\n";
    return 1;
  }
}
