// Figures 12 and 13: the Section 8.2 testbed measurements — a Hamiltonian
// circuit of eight hosts on a four-switch Myrinet — as two views of one
// sweep over packet size x sender mode.
//
// Figure 12, measured throughput (per host) vs packet size. Upper curve: a
// single host multicasting to the other seven members; lower curve: all
// eight hosts multicasting simultaneously (received data rate per host,
// lost packets excluded). Expected shape (paper): throughput grows with
// packet size as the fixed per-packet adapter cost amortizes — roughly
// 20 Mb/s at 1 KB to ~120 Mb/s at 8 KB for the single sender; the all-send
// curve sits below it, and the gap widens as input-buffer losses grow.
//
// Figure 13, packet loss rate per host vs packet size, all-send/receive
// case. Loss occurs only at the adapter input buffer (the implementation
// has no reservation protocol and cannot backpressure the fabric without
// risking deadlock — the point the paper uses to motivate its schemes).
// Expected shape: significant loss whenever hosts originate as well as
// forward, growing with packet size (fewer packets fit in the ~25 KB LANai
// buffer); the single-sender case loses nothing.
//
// Each (packet size, sender mode) point runs once; the fig12 table and then
// the fig13 table print from the same results, into
// BENCH_fig12_myrinet_throughput.json and BENCH_fig13_packet_loss.json.
// The rows are bit-identical at any --jobs (the CI determinism gate diffs
// --jobs 1 against --jobs 4 and 8) and any --shards.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "myrinet_testbed.h"

using namespace wormcast;

namespace {

enum Metric { kThroughput, kLoss };
enum Mode { kSingle, kAll };  // series: one sender, all eight send

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(
      argc, argv,
      bench::kQuick | bench::kJobs | bench::kShards | bench::kTraceCap |
          bench::kTraceOut | bench::kCheck);
  const Time span = args.quick ? 3'000'000 : 12'000'000;
  const std::vector<std::int64_t> sizes =
      args.quick ? std::vector<std::int64_t>{1024, 4096, 8192}
                 : std::vector<std::int64_t>{1024, 2048, 3072, 4096, 5120,
                                             6144, 7168, 8192};

  bench::Sweep sweep{.xs = sizes.size(), .series = 2};
  sweep.point = [&](const bench::Point& p) {
    const bool single = p.series == kSingle;
    bench::TestbedOptions opts;
    opts.senders = single ? 1 : 8;
    opts.packet_size = sizes[p.x];
    opts.span = span;
    opts.shards = args.shards;
    // --trace-out captures the first-size single-sender run: small enough
    // to load in Perfetto, yet it exercises every layer end to end.
    if (p.slot == 0) opts.trace_out = args.trace_out;
    opts.trace_cap = p.trace_cap;
    opts.point = &p;
    opts.check_label =
        bench::format("packet=%lld mode=%s", static_cast<long long>(sizes[p.x]),
                      single ? "single" : "all");
    const bench::TestbedResult r = bench::run_testbed(opts);
    return bench::Sample{r.throughput_mbps, r.loss_rate};
  };
  const auto fig12 = [&](std::size_t x, const bench::Results& r) {
    return bench::Cells{
        bench::col("packet_bytes", "%lld", sizes[x]),
        bench::col("single_sender", "%.1f", r.mean(x, kSingle, kThroughput)),
        bench::col("all_send_receive", "%.1f", r.mean(x, kAll, kThroughput)),
        bench::json_col("all_send_loss_rate", r.mean(x, kAll, kLoss))};
  };
  const auto fig13 = [&](std::size_t x, const bench::Results& r) {
    return bench::Cells{
        bench::col("packet_bytes", "%lld", sizes[x]),
        bench::col("loss_all_send_receive", "%.3f", r.mean(x, kAll, kLoss)),
        bench::col("loss_single_sender", "%.3f", r.mean(x, kSingle, kLoss)),
        bench::json_col("all_send_throughput_mbps",
                        r.mean(x, kAll, kThroughput))};
  };
  sweep.views = {
      {"fig12_myrinet_throughput",
       "# Figure 12: per-host throughput (Mb/s) vs packet size, 8-host "
       "Hamiltonian circuit on 4-switch Myrinet\n",
       fig12},
      {"fig13_packet_loss",
       "# Figure 13: packet loss per host vs packet size, all hosts "
       "sending+receiving (single-sender shown as control)\n",
       fig13}};
  return bench::run_sweep(args, sweep);
}
