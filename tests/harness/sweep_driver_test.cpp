// The bench sweep driver (bench/bench_util.h): rows independent of --jobs,
// rep merges equal to a hand-merged RunningStat sequence, one column table
// rendered consistently as CSV header, CSV row and JSON row, and flags a
// bench does not obey rejected with exit 2.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace wormcast::bench {
namespace {

// 3 x values x 2 series x 3 reps. Metric 0 is always sampled; metric 1
// only on even reps, so the merge must skip the unsampled reps.
Sweep toy_sweep() {
  Sweep sweep{.xs = 3, .series = 2, .reps = 3, .base_seed = 17};
  sweep.point = [](const Point& p) {
    const double v = static_cast<double>(p.seed % 1000) / 7.0 +
                     static_cast<double>(p.x) + 0.5 * p.series;
    Sample s{v, std::nullopt};
    if (p.rep % 2 == 0) s[1] = v * v;
    return s;
  };
  return sweep;
}

Cells toy_row(std::size_t x, const Results& r) {
  Cells row{col("x", "%lld", static_cast<double>(x))};
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string n = s == 0 ? "a" : "b";
    row.push_back(col(n + "_v", "%.6f", r.mean(x, s, 0)));
    row.push_back(col(n + "_sq", "%.3f", r.mean(x, s, 1),
                      r.stat(x, s, 1).count() > 0));
  }
  return row;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The "rows" (and "counters") part of a BENCH json: everything between
/// the bench name and the run-dependent "meta" object.
std::string rows_of(const std::string& json) {
  const std::size_t begin = json.find("\"rows\"");
  return json.substr(begin, json.find(", \"meta\"") - begin);
}

/// Runs the toy sweep at `jobs` workers; returns stdout and the JSON rows.
std::pair<std::string, std::string> run_toy(int jobs) {
  const std::string name = "sweep_driver_test_jobs" + std::to_string(jobs);
  BenchArgs args;
  args.jobs = jobs;
  Sweep sweep = toy_sweep();
  sweep.views = {{name, "# toy\n", toy_row}};
  testing::internal::CaptureStdout();
  const int rc = run_sweep(args, sweep);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0);
  const std::string path = "BENCH_" + name + ".json";
  const std::string json = read_file(path);
  std::remove(path.c_str());
  return {out, rows_of(json)};
}

TEST(SweepDriver, RowsAreIdenticalAtOneAndFourJobs) {
  const auto [out1, rows1] = run_toy(1);
  const auto [out4, rows4] = run_toy(4);
  EXPECT_EQ(out1, out4);
  EXPECT_EQ(rows1, rows4);
  EXPECT_EQ(out1.rfind("# toy\nx,a_v,a_sq,b_v,b_sq\n0,", 0), 0u) << out1;
  EXPECT_NE(rows1.find("\"a_sq\": "), std::string::npos);
}

TEST(SweepDriver, RepMergeEqualsHandMergedRunningStats) {
  const Sweep sweep = toy_sweep();
  std::vector<std::vector<RunningStat>> merged;  // [x * 2 + s] -> metrics
  Sweep probe = toy_sweep();
  probe.views = {{"", "", [&](std::size_t x, const Results& r) {
                    for (std::size_t s = 0; s < 2; ++s)
                      merged.push_back({r.stat(x, s, 0), r.stat(x, s, 1)});
                    return toy_row(x, r);
                  }}};
  BenchArgs args;
  args.jobs = 3;
  testing::internal::CaptureStdout();
  ASSERT_EQ(run_sweep(args, probe), 0);
  testing::internal::GetCapturedStdout();
  ASSERT_EQ(merged.size(), 6u);

  for (std::size_t x = 0; x < 3; ++x) {
    for (std::size_t s = 0; s < 2; ++s) {
      RunningStat hand[2];
      for (std::size_t rep = 0; rep < 3; ++rep) {
        Point p;
        p.x = x;
        p.series = s;
        p.rep = rep;
        p.seed = harness::point_seed(17, rep);
        const Sample sample = sweep.point(p);
        for (std::size_t m = 0; m < 2; ++m) {
          if (!sample[m].has_value()) continue;
          RunningStat one;
          one.add(*sample[m]);
          hand[m].merge(one);
        }
      }
      for (std::size_t m = 0; m < 2; ++m) {
        const RunningStat& got = merged[x * 2 + s][m];
        EXPECT_EQ(got.count(), hand[m].count());
        EXPECT_EQ(got.mean(), hand[m].mean());
        EXPECT_EQ(got.variance(), hand[m].variance());
        EXPECT_EQ(got.min(), hand[m].min());
        EXPECT_EQ(got.max(), hand[m].max());
      }
      EXPECT_EQ(merged[x * 2 + s][0].count(), 3);
      EXPECT_EQ(merged[x * 2 + s][1].count(), 2);  // reps 0 and 2
    }
  }
}

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  for (std::string tok; std::getline(ss, tok, ',');) out.push_back(tok);
  return out;
}

TEST(SweepDriver, CsvHeaderCsvRowAndJsonRowAgreeCellForCell) {
  Cells cells{text_col("label", "torus/rep0"),
              json_col("topo", 3),
              col("count", "%lld", 42),
              col("mean", "%.2f", 1.25),
              col("p99", "%.0f", -1.0, /*has=*/false),
              Cell{"fabric", "%s", 1.0, true, kBoth, "clos"},
              json_col("hidden", 7.5),
              text_col("", "FLAG")};

  testing::internal::CaptureStdout();
  print_csv(cells, true);
  print_csv(cells, false);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out,
            "label,count,mean,p99,fabric\ntorus/rep0,42,1.25,-1,clos,FLAG\n");

  JsonBench json("unused");
  json.add_row(cells, "row");
  ASSERT_EQ(json.rows().size(), 1u);
  const JsonBench::Row& row = json.rows()[0];

  // Walk the table once: every CSV cell is a header token and a row token
  // at the same position; every JSON cell is the next JSON key.
  const std::string header_line = out.substr(0, out.find('\n'));
  const std::string row_line = out.substr(out.find('\n') + 1);
  const std::vector<std::string> header = split(header_line);
  const std::vector<std::string> values =
      split(row_line.substr(0, row_line.size() - 1));
  std::size_t h = 0, v = 0, j = 0;
  for (const Cell& c : cells) {
    if ((c.sink & kCsv) != 0) {
      if (!c.name.empty()) {
        ASSERT_LT(h, header.size());
        EXPECT_EQ(header[h++], c.name);
      }
      ASSERT_LT(v, values.size());
      EXPECT_EQ(values[v++], csv_text(c));
    }
    if ((c.sink & kJson) != 0) {
      ASSERT_LT(j, row.size());
      EXPECT_EQ(row[j].first, c.name);
      EXPECT_EQ(row[j].second.has_value(), c.has);
      if (c.has) {
        EXPECT_EQ(*row[j].second, c.value);
      }
      ++j;
    }
  }
  EXPECT_EQ(h, header.size());
  EXPECT_EQ(v, values.size());
  EXPECT_EQ(j, row.size());

  // A silent marker adds no token; a table with no CSV cell prints nothing.
  cells.back().text.clear();
  testing::internal::CaptureStdout();
  print_csv(cells, false);
  print_csv({json_col("only_json", 1.0)}, false);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "torus/rep0,42,1.25,-1,clos\n");
}

BenchArgs parse(std::vector<std::string> words, unsigned accepted) {
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return parse_bench_args(static_cast<int>(argv.size()), argv.data(),
                          accepted);
}

TEST(SweepDriver, AcceptedFlagsParse) {
  const BenchArgs args =
      parse({"bench", "--jobs", "4", "--quick", "--reps", "0"},
            kQuick | kJobs | kReps);
  EXPECT_TRUE(args.quick);
  EXPECT_EQ(args.jobs, 4);
  EXPECT_EQ(args.reps, 1);  // clamped to at least one
  EXPECT_EQ(args.trace_cap, Tracer::kDefaultCapacity);
  EXPECT_EQ(parse({"bench", "--check"}, kCheck).trace_cap,
            kCheckTraceCapacity);
  EXPECT_EQ(parse({"bench", "--check", "--trace-cap", "99"},
                  kCheck | kTraceCap)
                .trace_cap,
            99u);
}

TEST(SweepDriverDeathTest, UnsupportedFlagExitsTwo) {
  const unsigned accepted = kQuick | kJobs;
  EXPECT_EXIT(parse({"bench", "--quick", "--shards", "4"}, accepted),
              testing::ExitedWithCode(2),
              "usage: bench \\[--quick\\] \\[--jobs N\\]");
  EXPECT_EXIT(parse({"bench", "--queue", "heap"}, accepted),
              testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"bench", "--jobs"}, accepted),
              testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(parse({"bench", "--quick"}, 0), testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(parse({"bench", "--strategy", "bogus"}, kStrategy),
              testing::ExitedWithCode(2), "unknown tree strategy");
}

}  // namespace
}  // namespace wormcast::bench
