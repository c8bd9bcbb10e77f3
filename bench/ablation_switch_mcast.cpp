// Ablation D: switch-level vs host-adapter multicasting.
//
// Section 3 argues switch-level replication gives the lowest latency (no
// per-member store-and-forward) at the price of switch complexity and
// tree-restricted routing; Section 9 singles out broadcast as the case
// worth the complexity. This bench compares, on an idle 8x8 torus:
//   - one multicast to an 8-member group under every host-adapter scheme
//     and under fabric replication (scheme (a)); and
//   - one full broadcast (63 destinations) via repeated unicast, the tree
//     schemes, and the root-flood fabric broadcast.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/topologies.h"
#include "traffic/groups.h"

using namespace wormcast;

namespace {

constexpr std::int64_t kPayload = 1024;

double host_scheme_latency(Scheme scheme, const MulticastGroupSpec& group,
                           HostId src) {
  ExperimentConfig cfg;
  cfg.protocol.scheme = scheme;
  cfg.routing.tree_links_only = true;  // same routing budget for fairness
  Network net(make_torus(8, 8), {group}, cfg);
  Demand d;
  d.src = src;
  d.multicast = true;
  d.group = group.id;
  d.length = kPayload;
  net.inject(d);
  net.run_to_quiescence();
  return net.metrics().mcast_completion().mean();
}

double fabric_mcast_latency(const MulticastGroupSpec& group, HostId src) {
  ExperimentConfig cfg;
  cfg.routing.tree_links_only = true;
  Network net(make_torus(8, 8), {group}, cfg);
  net.send_switch_multicast(src, group.id, kPayload);
  net.run_to_quiescence();
  return net.metrics().mcast_completion().mean();
}

double fabric_broadcast_latency(HostId src) {
  ExperimentConfig cfg;
  cfg.routing.tree_links_only = true;
  Network net(make_torus(8, 8), {}, cfg);
  net.send_switch_broadcast(src, kPayload);
  net.run_to_quiescence();
  return net.metrics().mcast_completion().mean();
}

/// One table line: the header when `scheme` is null, else the scheme's
/// completion latency.
void print_line(const char* scheme, double latency = 0.0) {
  bench::print_csv({bench::text_col("scheme", scheme ? scheme : ""),
                    bench::col("completion_latency", "%.0f", latency)},
                   scheme == nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  // One multicast per row on an idle network: the run is already
  // quick-sized, so --quick runs the same rows.
  (void)bench::parse_bench_args(argc, argv, bench::kQuick);
  std::printf("# Ablation D: switch-level (fabric) vs host-adapter "
              "multicast; completion latency (byte-times), 1 KB, idle 8x8 "
              "torus\n");

  MulticastGroupSpec group;
  group.id = 0;
  group.members = {3, 9, 17, 22, 30, 41, 50, 61};
  const HostId src = 17;

  std::printf("\nmulticast to 8 members\n");
  print_line(nullptr);
  for (const Scheme s :
       {Scheme::kRepeatedUnicast, Scheme::kHamiltonianSF,
        Scheme::kHamiltonianCT, Scheme::kTreeSF, Scheme::kTreeBroadcast})
    print_line(scheme_name(s), host_scheme_latency(s, group, src));
  print_line("switch-fabric-tree", fabric_mcast_latency(group, src));

  std::printf("\nbroadcast to all 64 hosts\n");
  print_line(nullptr);
  MulticastGroupSpec everyone = make_full_group(64);
  for (const Scheme s : {Scheme::kRepeatedUnicast, Scheme::kTreeSF,
                         Scheme::kTreeBroadcast})
    print_line(scheme_name(s), host_scheme_latency(s, everyone, src));
  print_line("switch-fabric-flood", fabric_broadcast_latency(src));
  return 0;
}
