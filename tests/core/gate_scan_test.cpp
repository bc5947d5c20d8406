// The branch-light gate sweep (mask + compact) must select exactly the
// nodes the scalar branchy filter selects, for any due vector, epoch, and
// sub-range — gate_filter_ref is the oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/gate_scan.hpp"
#include "sim/rng.hpp"

namespace dirq::core {
namespace {

std::vector<NodeId> scan_compact(const std::vector<std::int64_t>& due,
                                 const std::vector<NodeId>& nodes,
                                 std::size_t begin, std::size_t end,
                                 std::int64_t epoch) {
  std::vector<std::uint8_t> mask(due.size());
  gate_scan_mask(due.data(), due.size(), epoch, mask.data());
  std::vector<NodeId> out(end - begin);
  out.resize(gate_compact(nodes.data(), mask.data(), begin, end, out.data()));
  return out;
}

std::vector<NodeId> filter_ref(const std::vector<std::int64_t>& due,
                               const std::vector<NodeId>& nodes,
                               std::size_t begin, std::size_t end,
                               std::int64_t epoch) {
  std::vector<NodeId> out(end - begin);
  out.resize(
      gate_filter_ref(due.data(), nodes.data(), begin, end, epoch, out.data()));
  return out;
}

TEST(GateScan, EmptyRangeSelectsNothing) {
  std::vector<std::int64_t> due;
  std::vector<NodeId> nodes;
  EXPECT_TRUE(scan_compact(due, nodes, 0, 0, 5).empty());
}

TEST(GateScan, AllDueAndNoneDue) {
  const std::vector<std::int64_t> due{1, 2, 3, 4};
  const std::vector<NodeId> nodes{10, 20, 30, 40};
  EXPECT_EQ(scan_compact(due, nodes, 0, 4, 4), nodes);
  EXPECT_TRUE(scan_compact(due, nodes, 0, 4, 0).empty());
}

TEST(GateScan, BoundaryIsInclusive) {
  // due == epoch counts as due (the controller contract: fire at next_due).
  const std::vector<std::int64_t> due{7, 8, 7, 9};
  const std::vector<NodeId> nodes{1, 2, 3, 4};
  EXPECT_EQ(scan_compact(due, nodes, 0, 4, 7), (std::vector<NodeId>{1, 3}));
}

TEST(GateScan, MatchesScalarReferenceOnRandomizedVectors) {
  sim::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(0, trial < 100 ? 17 : 700));
    std::vector<std::int64_t> due(n);
    std::vector<NodeId> nodes(n);
    for (std::size_t j = 0; j < n; ++j) {
      due[j] = rng.uniform_int(-4, 40);
      nodes[j] = static_cast<NodeId>(rng.uniform_int(0, 100000));
    }
    const std::int64_t epoch = rng.uniform_int(-6, 42);
    // Full range plus a random interior segment, the shapes the engine
    // uses (the mask pass takes [0, n); each phase-A chunk compacts its
    // own [seg_lo, seg_hi)).
    const std::size_t begin = n == 0 ? 0 : static_cast<std::size_t>(
                                               rng.uniform_int(0, n - 1));
    const std::size_t end =
        static_cast<std::size_t>(rng.uniform_int(begin, n));
    EXPECT_EQ(scan_compact(due, nodes, 0, n, epoch),
              filter_ref(due, nodes, 0, n, epoch))
        << "trial " << trial;
    EXPECT_EQ(scan_compact(due, nodes, begin, end, epoch),
              filter_ref(due, nodes, begin, end, epoch))
        << "trial " << trial << " segment [" << begin << ", " << end << ")";
  }
}

}  // namespace
}  // namespace dirq::core
