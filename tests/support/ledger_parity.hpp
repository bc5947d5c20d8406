// Shared cost-parity assertions. DirqNetwork books each transmission and
// each reception exactly once, into one tree ledger and one per-node
// counter, on every transport and under loss (a CRC-dropped frame's rx is
// booked before the drop), and costs() is the sum of the tree ledgers.
// So the summed per-node counters must equal the ledger's tx/rx totals,
// and the tree ledgers must sum to the global ledger, whatever transports
// were swapped in along the way. Used by the experiment unit tests, the
// LMAC scenario tier and the core suites so the invariant's decomposition
// can never drift between them.
#pragma once

#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.hpp"
#include "core/network.hpp"

namespace dirq::core {

inline void expect_ledger_reconciles(const ExperimentResults& res) {
  const CostUnits tx_sum =
      std::accumulate(res.node_tx.begin(), res.node_tx.end(), CostUnits{0});
  const CostUnits rx_sum =
      std::accumulate(res.node_rx.begin(), res.node_rx.end(), CostUnits{0});
  EXPECT_EQ(tx_sum,
            res.ledger.query_tx + res.ledger.update_tx + res.ledger.control_tx);
  EXPECT_EQ(rx_sum,
            res.ledger.query_rx + res.ledger.update_rx + res.ledger.control_rx);
}

/// The live-network form: sum(node_tx) == tx, sum(node_rx) == rx, and
/// sum over trees of tree_ledger(t) == costs() component-wise.
inline void expect_network_ledger_reconciles(const DirqNetwork& net) {
  const CostLedger c = net.costs();
  CostUnits tx_sum = 0, rx_sum = 0;
  for (NodeId u = 0; u < net.size(); ++u) {
    tx_sum += net.node_tx(u);
    rx_sum += net.node_rx(u);
  }
  EXPECT_EQ(tx_sum, c.query_tx + c.update_tx + c.control_tx);
  EXPECT_EQ(rx_sum, c.query_rx + c.update_rx + c.control_rx);
  CostLedger trees;
  for (TreeId t = 0; t < net.tree_count(); ++t) trees += net.tree_ledger(t);
  EXPECT_EQ(trees.query_tx, c.query_tx);
  EXPECT_EQ(trees.query_rx, c.query_rx);
  EXPECT_EQ(trees.update_tx, c.update_tx);
  EXPECT_EQ(trees.update_rx, c.update_rx);
  EXPECT_EQ(trees.control_tx, c.control_tx);
  EXPECT_EQ(trees.control_rx, c.control_rx);
}

}  // namespace dirq::core
