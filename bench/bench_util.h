// Shared helpers and the sweep driver for the figure-regeneration benches.
//
// Each bench binary regenerates one figure of the paper: it sweeps the
// figure's x-axis, runs the simulator at each point, and prints the same
// series the paper plots as CSV rows (plus a human-readable header),
// mirrored into BENCH_<name>.json. A bench declares its sweep as data —
// x values x series x reps, a point function, and one column table per
// output — and run_sweep() owns the rest: the SweepRunner pool and its
// result slots, per-rep seeds, the rep merge, the CSV and JSON rows from
// that one table, the meta stamps, --check, and the exit code. Results
// land in pre-sized slots, so the rows are bit-identical no matter how
// many --jobs workers ran them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/network.h"
#include "harness/sweep_runner.h"
#include "sim/stats.h"

namespace wormcast::bench {

/// The shared flags. A bench passes the set it obeys to parse_bench_args;
/// any other flag exits 2 with a usage line listing only that set.
enum Flag : unsigned {
  kQuick = 1u << 0,  ///< --quick: small sweep for CI smoke tests
  kJobs = 1u << 1,   ///< --jobs N: worker threads for sweep points
  /// --reps N: replications (seeds) per sweep point, merged with
  /// RunningStat::merge in rep order
  kReps = 1u << 2,
  /// --shards N: executors for the sharded in-run engine (1 = classic
  /// single-queue). Results are bit-identical at any shard count — the CI
  /// shard gate diffs the rows — only wall time moves
  kShards = 1u << 3,
  /// --trace-cap N: flight-recorder ring capacity in events
  kTraceCap = 1u << 4,
  kTraceOut = 1u << 5,  ///< --trace-out FILE: Chrome trace-event JSON
  /// --check: run wormcheck protocol expectations over every sweep point's
  /// trace; any violation (or checker refusal) fails the run with exit 1
  /// and a deterministic report
  kCheck = 1u << 6,
  /// --strategy NAME: tree strategy (single-root | partition-merge |
  /// load-aware | multi-root); a typo fails fast
  kStrategy = 1u << 7,
};

struct BenchArgs {
  bool quick = false;
  bool check = false;
  int jobs = 1;
  int reps = 1;
  int shards = 1;
  std::size_t trace_cap = Tracer::kDefaultCapacity;
  std::string trace_out;
  TreeStrategyKind strategy = TreeStrategyKind::kSingleRoot;
  bool strategy_explicit = false;
};

/// Ring capacity --check auto-sizes to when --trace-cap is not given:
/// large enough that no standard sweep point wraps (a wrapped ring makes
/// the checker refuse — absence of evidence is not evidence). The busiest
/// standard point (full fig12, 8 KB all-send) records ~2.2M events; 4M
/// slots (~160 MB per concurrently-live point) leaves headroom.
inline constexpr std::size_t kCheckTraceCapacity = std::size_t{1} << 22;

/// Parses the flags in `accepted`; prints usage and exits(2) on anything
/// else, including a flag the bench does not obey or a missing value.
inline BenchArgs parse_bench_args(int argc, char** argv, unsigned accepted) {
  // Flag 1 << k is spelled kNames[k] and takes the argument kValues[k].
  static constexpr const char* kNames[] = {
      "--quick",     "--jobs",      "--reps",  "--shards",
      "--trace-cap", "--trace-out", "--check", "--strategy"};
  static constexpr const char* kValues[] = {"",   " N",    " N", " N",
                                            " N", " FILE", "",   " NAME"};
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s", argv[0]);
    for (unsigned k = 0; k < std::size(kNames); ++k)
      if ((accepted & (1u << k)) != 0)
        std::fprintf(stderr, " [%s%s]", kNames[k], kValues[k]);
    std::fputs("\n", stderr);
    std::exit(2);
  };
  BenchArgs args;
  bool trace_cap_explicit = false;
  for (int i = 1; i < argc; ++i) {
    unsigned flag = 0;
    for (unsigned k = 0; k < std::size(kNames); ++k)
      if (std::strcmp(argv[i], kNames[k]) == 0) flag = 1u << k;
    if ((flag & accepted) == 0) usage();
    if (flag == kQuick || flag == kCheck) {
      (flag == kQuick ? args.quick : args.check) = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    const int count = std::max(1, std::atoi(value));
    if (flag == kJobs) {
      args.jobs = count;
    } else if (flag == kReps) {
      args.reps = count;
    } else if (flag == kShards) {
      args.shards = count;
    } else if (flag == kTraceCap) {
      const long long cap = std::atoll(value);
      if (cap > 0) args.trace_cap = static_cast<std::size_t>(cap);
      trace_cap_explicit |= cap > 0;
    } else if (flag == kTraceOut) {
      args.trace_out = value;
    } else if (parse_tree_strategy(value, &args.strategy)) {
      args.strategy_explicit = true;
    } else {
      std::fprintf(stderr,
                   "unknown tree strategy '%s' (expected single-root, "
                   "partition-merge, load-aware, or multi-root)\n",
                   value);
      std::exit(2);
    }
  }
  // --check respects an explicit --trace-cap (and refuses loudly if the
  // ring wraps) instead of auto-sizing.
  if (args.check && !trace_cap_explicit) args.trace_cap = kCheckTraceCapacity;
  return args;
}

/// Common experiment defaults shared by the simulation figures
/// (Section 7.1): geometric worm lengths with mean 400 bytes.
inline ExperimentConfig sim_defaults(Scheme scheme, double load,
                                     double mcast_fraction,
                                     std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.traffic.offered_load = load;
  cfg.traffic.multicast_fraction = mcast_fraction;
  cfg.traffic.mean_worm_len = 400.0;
  // Ample forwarding buffers: the paper's simulations study latency, not
  // loss; reservations virtually always succeed (NACKs stay possible).
  cfg.protocol.pool_bytes = 128 * 1024;
  cfg.seed = seed;
  return cfg;
}

/// printf into a std::string (labels, column names, CSV cells).
template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[128];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// num / den, or 0 when den is not positive (a ratio over nothing).
inline double ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// Arms the network's deadlock watchdog with a bench-appropriate interval:
/// a sweep point that wedges (faulted run, pathological config) dumps its
/// per-host state to stderr instead of spinning silently until the job
/// timeout. Bounded runs only — the armed watchdog keeps the simulator
/// non-idle, so never pair it with run_to_quiescence().
inline DeadlockWatchdog& arm_watchdog(Network& net, Time interval = 250'000) {
  return net.attach_watchdog(interval);
}

/// Where a cell of a column table goes.
enum Sink : unsigned { kCsv = 1, kJson = 2, kBoth = kCsv | kJson };

/// One cell of a bench's column table: CSV header and JSON key, CSV printf
/// format, value, and sink. `fmt` is "%s" (prints `text`), "%lld" (prints
/// `value` as an integer) or a floating-point conversion. With has == false
/// the JSON cell is null while the CSV still prints `value` (a sentinel
/// such as 0 or -1): a statistic over zero samples is not a measurement.
/// A CSV cell with an empty name is an unlabeled marker: it has no header
/// entry and prints only when its text is non-empty.
struct Cell {
  std::string name;
  const char* fmt = "%g";
  double value = 0.0;
  bool has = true;
  Sink sink = kBoth;
  std::string text;
};
using Cells = std::vector<Cell>;

inline Cell col(std::string name, const char* fmt, double value,
                bool has = true) {
  return Cell{std::move(name), fmt, value, has, kBoth, {}};
}
inline Cell json_col(std::string name, double value, bool has = true) {
  return Cell{std::move(name), "%g", value, has, kJson, {}};
}
inline Cell text_col(std::string name, std::string text) {
  return Cell{std::move(name), "%s", 0.0, true, kCsv, std::move(text)};
}

/// The cell's CSV text.
inline std::string csv_text(const Cell& c) {
  const char conv = c.fmt[std::strlen(c.fmt) - 1];
  if (conv == 's') return c.text;
  if (conv == 'd') return format(c.fmt, static_cast<long long>(c.value));
  return format(c.fmt, c.value);
}

/// Prints a table's CSV cells as one line: their names when `header`,
/// else their values. A table without CSV cells prints nothing (JSON-only
/// summary rows).
inline void print_csv(const Cells& cells, bool header) {
  std::string line;
  bool any = false;
  for (const Cell& c : cells) {
    if ((c.sink & kCsv) == 0) continue;
    any = true;
    if (c.name.empty() && (header || c.text.empty())) continue;  // marker
    line.append(line.empty() ? "" : ",").append(header ? c.name : csv_text(c));
  }
  if (any) std::printf("%s\n", line.c_str());
}

/// Formats a double for BENCH_*.json. %.17g guarantees bit-exact
/// round-trip through any correct JSON parser (so the perf gate compares
/// values, never formatting artifacts); the decimal separator is forced
/// to '.' in case a host library dragged in a comma locale; non-finite
/// values become JSON null (Infinity/NaN are not JSON).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  for (char* c = buf; *c != '\0'; ++c)
    if (*c == ',') *c = '.';
  return std::string(buf);
}

/// Accumulates numeric result rows and writes them as BENCH_<name>.json —
/// a machine-readable mirror of the CSV stdout so CI and plotting scripts
/// need not parse the human-oriented format. A nullopt cell serializes as
/// JSON null. Rows are added in sweep order from one thread. Wall-clock
/// measurements go in the "meta" object — NOT in rows — so the rows stay
/// bit-identical across --jobs values (CI gates on this).
class JsonBench {
 public:
  using Row = std::vector<std::pair<std::string, std::optional<double>>>;

  explicit JsonBench(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  /// Appends a table's JSON cells as one row. A non-empty `row_name` is
  /// written as the row's "name" key; the perf gate then matches the row
  /// by name instead of by position.
  void add_row(const Cells& cells, std::string row_name = {}) {
    Row row;
    for (const Cell& c : cells)
      if ((c.sink & kJson) != 0)
        row.emplace_back(c.name, c.has ? std::optional<double>(c.value)
                                       : std::nullopt);
    rows_.push_back(std::move(row));
    row_names_.push_back(std::move(row_name));
  }

  /// Attaches a uniform counter dump (see CounterRegistry::snapshot()),
  /// serialized once as a top-level "counters" object.
  void set_counters(std::vector<std::pair<std::string, double>> counters) {
    counters_ = std::move(counters);
  }

  /// Run metadata (jobs, sweep wall-clock, ...): serialized as a
  /// top-level "meta" object, deliberately outside "rows" because wall
  /// times differ run to run while rows must not.
  void set_meta(const std::string& key, double value) {
    meta_.emplace_back(key, value);
  }

  /// Per-point wall-clock (ms), indexed like the sweep's tasks; lands in
  /// meta as "point_wall_ms": [...].
  void set_point_walls(std::vector<double> wall_ms) {
    point_wall_ms_ = std::move(wall_ms);
  }

  /// Writes BENCH_<name>.json in the current directory (unnamed: no file).
  void write() const {
    if (name_.empty()) return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "# could not write %s\n", path.c_str());
      return;
    }
    // Appends `"key": value` to a comma-separated list.
    const auto add = [](std::string& list, const std::string& key,
                        const std::string& value) {
      list.append(list.empty() ? "" : ", ").append("\"" + key + "\": ");
      list.append(value);
    };
    std::string out = "{\"bench\": \"" + name_ + "\", \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::string row;
      if (!row_names_[r].empty()) add(row, "name", "\"" + row_names_[r] + "\"");
      for (const auto& [key, value] : rows_[r])
        add(row, key, value.has_value() ? json_number(*value) : "null");
      out.append(r == 0 ? "\n  {" : ",\n  {").append(row).append("}");
    }
    out += "\n]";
    std::string counters, meta, walls;
    for (const auto& [key, value] : counters_)
      add(counters, key, json_number(value));
    for (const auto& [key, value] : meta_) add(meta, key, json_number(value));
    for (const double w : point_wall_ms_)
      walls.append(walls.empty() ? "" : ", ").append(json_number(w));
    if (!point_wall_ms_.empty()) add(meta, "point_wall_ms", "[" + walls + "]");
    if (!counters.empty()) out += ", \"counters\": {" + counters + "}";
    if (!meta.empty()) out += ", \"meta\": {" + meta + "}";
    std::fprintf(f, "%s}\n", out.c_str());
    std::fclose(f);
    std::fprintf(stderr, "# wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
  std::vector<std::string> row_names_;
  std::vector<std::pair<std::string, double>> counters_;
  std::vector<std::pair<std::string, double>> meta_;
  std::vector<double> point_wall_ms_;
};

/// Prints `cells` as a CSV row, after the table header when `first`, and
/// mirrors them into `json` as a row named `row_name`.
inline void emit(const Cells& cells, bool first, JsonBench& json,
                 std::string row_name = {}) {
  if (first) print_csv(cells, true);
  print_csv(cells, false);
  json.add_row(cells, std::move(row_name));
}

/// Gathers per-sweep-point wormcheck reports behind --check and renders a
/// single deterministic verdict at the end of the sweep.
///
/// Reports live in pre-sized slots keyed by task index — each written by
/// the one worker that ran the task, so no lock — and the verdict (and
/// wormcheck_report.txt) is identical no matter how many --jobs workers
/// ran the points. `collect` is called inside the point body while
/// its Network is still alive; `finalize` prints every failing report to
/// stderr, writes them to wormcheck_report.txt (the CI artifact), stamps
/// summary counts into the bench JSON meta, and returns the process exit
/// code: 0 clean, 1 on any violation or checker refusal.
class CheckCollector {
 public:
  CheckCollector(bool enabled, std::size_t slots)
      : enabled_(enabled), reports_(slots), labels_(slots) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Checks `net`'s trace against the standard rules and stores the report
  /// in slot `i` (race-free across sweep workers). No-op when disabled.
  void collect(std::size_t i, Network& net, std::string label) {
    if (!enabled_) return;
    reports_[i] = net.check_expectations();
    labels_[i] = std::move(label);
  }

  int finalize(std::vector<JsonBench>& jsons) {
    if (!enabled_) return 0;
    std::int64_t violations = 0, obligations = 0, unterminated = 0;
    std::int64_t refused = 0;
    std::size_t checked = 0;
    std::string failures;
    for (std::size_t i = 0; i < reports_.size(); ++i) {
      if (!reports_[i].has_value()) continue;  // point not run (skipped)
      const check::CheckReport& r = *reports_[i];
      ++checked;
      obligations += r.obligations;
      unterminated += r.unterminated;
      violations += static_cast<std::int64_t>(r.violations.size());
      if (!r.usable) ++refused;
      if (!r.ok())
        failures += "== " + labels_[i] + " ==\n" + r.format() + "\n";
    }
    const std::pair<const char*, double> summary[] = {
        {"check_points", checked},           {"check_obligations", obligations},
        {"check_unterminated", unterminated}, {"check_violations", violations},
        {"check_refused", refused}};
    for (JsonBench& json : jsons)
      for (const auto& [key, value] : summary) json.set_meta(key, value);
    std::FILE* f =
        failures.empty() ? nullptr : std::fopen("wormcheck_report.txt", "w");
    if (f != nullptr) {
      std::fputs(failures.c_str(), f);
      std::fclose(f);
    }
    std::fprintf(stderr,
                 "%s# wormcheck: %s -- %zu point(s), %lld obligation(s), %lld "
                 "unterminated at horizon, %lld violation(s), %lld "
                 "refusal(s)%s\n",
                 failures.c_str(), failures.empty() ? "OK" : "FAIL", checked,
                 static_cast<long long>(obligations),
                 static_cast<long long>(unterminated),
                 static_cast<long long>(violations),
                 static_cast<long long>(refused),
                 failures.empty() ? "" : "; wrote wormcheck_report.txt");
    return failures.empty() ? 0 : 1;
  }

 private:
  bool enabled_;
  std::vector<std::optional<check::CheckReport>> reports_;
  std::vector<std::string> labels_;
};

// ---------------------------------------------------------------------------
// The sweep driver.

/// One sweep task: replication `rep` of the point (x, series).
struct Point {
  std::size_t x = 0;
  std::size_t series = 0;
  std::size_t rep = 0;
  std::size_t slot = 0;     ///< flat task index (the --check report slot)
  std::uint64_t seed = 0;   ///< harness::point_seed(Sweep::base_seed, rep)
  CheckCollector* checks = nullptr;  ///< collect() is a no-op sans --check
  std::size_t trace_cap = 0;  ///< --trace-cap (auto-sized under --check)
};

/// A task's measurements, indexed by the bench's metric enum; nullopt =
/// not sampled (say, no delivery to take a p99 of), skipped by the merge.
using Sample = std::vector<std::optional<double>>;

/// Every task's sample plus, per point (x, series) and metric, the reps
/// merged with RunningStat::merge in rep order after all workers finish —
/// so the merged moments are identical at any --jobs.
class Results {
 public:
  Results(std::size_t series, std::size_t reps, std::vector<Sample> samples)
      : series_(series), reps_(reps), samples_(std::move(samples)) {
    for (std::size_t p = 0; p * reps_ < samples_.size(); ++p) {
      std::vector<RunningStat> merged;
      for (std::size_t r = 0; r < reps_; ++r) {
        const Sample& s = samples_[p * reps_ + r];
        if (merged.size() < s.size()) merged.resize(s.size());
        for (std::size_t m = 0; m < s.size(); ++m) {
          if (!s[m].has_value()) continue;
          RunningStat one;
          one.add(*s[m]);
          merged[m].merge(one);
        }
      }
      stats_.push_back(std::move(merged));
    }
  }

  /// Metric `m` of point (x, s), merged over its reps.
  [[nodiscard]] const RunningStat& stat(std::size_t x, std::size_t s,
                                        std::size_t m) const {
    return stats_[x * series_ + s][m];
  }
  [[nodiscard]] double mean(std::size_t x, std::size_t s,
                            std::size_t m) const {
    return stat(x, s, m).mean();
  }
  /// Rep `r`'s raw sample of point (x, s).
  [[nodiscard]] const Sample& sample(std::size_t x, std::size_t s,
                                     std::size_t r) const {
    return samples_[(x * series_ + s) * reps_ + r];
  }

 private:
  std::size_t series_;
  std::size_t reps_;
  std::vector<Sample> samples_;
  std::vector<std::vector<RunningStat>> stats_;
};

/// One output of a sweep: a column table printed as CSV on stdout and,
/// when `json` is set, written as BENCH_<json>.json.
struct View {
  std::string json;      ///< empty: CSV only
  std::string preamble;  ///< printed verbatim before the header
  std::function<Cells(std::size_t x, const Results&)> row;
};

/// A bench's sweep: xs x series x reps tasks, one printed row per x value.
struct Sweep {
  std::size_t xs = 0;
  std::size_t series = 1;
  std::size_t reps = 1;
  std::uint64_t base_seed = 0;
  std::function<Sample(const Point&)> point = nullptr;
  std::vector<View> views = {};
  /// Optional: runs after every row printed, before --check's verdict and
  /// the JSON write, with the first view's JSON; a non-zero return is the
  /// exit code (the bench's own gate).
  std::function<int(JsonBench&, const Results&)> finish = nullptr;
};

/// Runs the sweep and prints/writes its views; returns the exit code.
inline int run_sweep(const BenchArgs& args, const Sweep& sweep) {
  const std::size_t n = sweep.xs * sweep.series * sweep.reps;
  CheckCollector checks(args.check, n);
  std::vector<Sample> samples(n);
  const harness::WallTimer timer;
  harness::SweepRunner pool(args.jobs);
  const std::vector<double> walls = pool.run_indexed(n, [&](std::size_t i) {
    const std::size_t rep = i % sweep.reps;
    samples[i] = sweep.point({.x = i / (sweep.reps * sweep.series),
                              .series = (i / sweep.reps) % sweep.series,
                              .rep = rep,
                              .slot = i,
                              .seed = harness::point_seed(sweep.base_seed, rep),
                              .checks = &checks,
                              .trace_cap = args.trace_cap});
  });
  const Results results(sweep.series, sweep.reps, std::move(samples));

  std::vector<JsonBench> jsons;
  for (const View& view : sweep.views) {
    std::fputs(view.preamble.c_str(), stdout);
    JsonBench json(view.json);
    for (std::size_t x = 0; x < sweep.xs; ++x)
      emit(view.row(x, results), x == 0, json);
    json.set_meta("jobs", static_cast<double>(pool.jobs()));
    json.set_point_walls(walls);
    json.set_meta("sweep_wall_ms", timer.elapsed_ms());
    json.set_meta("reps", static_cast<double>(sweep.reps));
    jsons.push_back(std::move(json));
  }
  const int finish_rc =
      sweep.finish && !jsons.empty() ? sweep.finish(jsons.front(), results) : 0;
  std::fflush(stdout);
  const int check_rc = checks.finalize(jsons);
  for (const JsonBench& json : jsons) json.write();
  return finish_rc != 0 ? finish_rc : check_rc;
}

}  // namespace wormcast::bench
