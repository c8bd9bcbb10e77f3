#include "net/fabric.h"

#include <gtest/gtest.h>

#include "net/topologies.h"

namespace wormcast {
namespace {

TEST(Fabric, ChannelsAreDirectedPerLink) {
  Simulator sim;
  const Topology topo = make_line(2);
  Fabric fabric(sim, topo);
  const TopoLink& lk = topo.link(0);
  Channel& ab = fabric.channel_from(0, lk.node_a);
  Channel& ba = fabric.channel_from(0, lk.node_b);
  EXPECT_NE(&ab, &ba);
  EXPECT_EQ(ab.delay(), lk.delay);
}

TEST(Fabric, HostChannelsMatchAttachment) {
  Simulator sim;
  const Topology topo = make_star(3);
  Fabric fabric(sim, topo);
  for (HostId h = 0; h < 3; ++h) {
    Channel& tx = fabric.host_tx_channel(h);
    Channel& rx = fabric.host_rx_channel(h);
    EXPECT_NE(&tx, &rx);
    EXPECT_FALSE(tx.feed_attached());
  }
}

TEST(Fabric, SwitchAtRejectsHosts) {
  Simulator sim;
  const Topology topo = make_star(2);
  Fabric fabric(sim, topo);
  EXPECT_NO_THROW(static_cast<void>(fabric.switch_at(0)));  // the hub
  // Host nodes have no switch runtime; accessing one is a programming
  // error caught by assert in debug — only verify the happy path here.
  SwitchRt& hub = fabric.switch_at(0);
  EXPECT_EQ(hub.n_ports(), 2);
}

TEST(Fabric, CountersStartAtZero) {
  Simulator sim;
  const Topology topo = make_torus(2, 2);
  Fabric fabric(sim, topo);
  EXPECT_EQ(fabric.total_overflows(), 0);
  EXPECT_EQ(fabric.fabric_bytes_sent(), 0);
  EXPECT_EQ(fabric.host_egress_bytes(), 0);
}

TEST(Fabric, ValidatesTopologyOnConstruction) {
  Simulator sim;
  Topology bad;
  bad.add_switch();
  bad.add_switch();  // disconnected
  EXPECT_THROW(Fabric(sim, bad), std::logic_error);
}

}  // namespace
}  // namespace wormcast
