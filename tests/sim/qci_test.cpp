// QoS classes as packets carry them: the eNodeB's strict-priority rank
// and PDB discard read the QCI straight from each packet.
#include "sim/packet.hpp"

#include <gtest/gtest.h>

namespace tlc::sim {
namespace {

TEST(QciTest, DefaultBearerIsQci9) {
  const Packet packet;
  EXPECT_EQ(packet.qci, Qci::kQci9);
  EXPECT_EQ(qci_delay_budget(packet.qci), 300 * kMillisecond);
}

TEST(QciTest, Qci7DelayBudget) {
  EXPECT_EQ(qci_delay_budget(Qci::kQci7), 100 * kMillisecond);
}

TEST(QciTest, GamingQci3DelayBudget) {
  EXPECT_EQ(qci_delay_budget(Qci::kQci3), 50 * kMillisecond);
}

TEST(QciTest, PriorityOrdering) {
  // TS 23.203: lower QCI value -> higher scheduling priority here.
  EXPECT_LT(qci_priority(Qci::kQci3), qci_priority(Qci::kQci7));
  EXPECT_LT(qci_priority(Qci::kQci7), qci_priority(Qci::kQci9));
}

}  // namespace
}  // namespace tlc::sim
