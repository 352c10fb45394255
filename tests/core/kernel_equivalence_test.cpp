// Randomized equivalence of the slice kernels: the dense kernel, the
// per-cell reference fill it is pinned against (fill_slice_dense_reference,
// kept exactly for this test and the perf gate), and the compressed
// event-grid layout. The dense kernel must be a pure strength reduction —
// same F, same cells_tabulated, same arc_match_events — and the compressed
// layout must agree on F (its cell accounting differs by design: one cell
// per event pair, not per position). Under -DSRNA_DISABLE_SIMD the same
// cases pin the kernel's scalar instantiation.

#include <gtest/gtest.h>

#include "core/arc_index.hpp"
#include "core/mcos.hpp"
#include "core/memo_table.hpp"
#include "core/tabulate_slice.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

// SRNA2 driven entirely by the per-cell reference fill: the exact loop the
// dense kernel is pinned against, stage one and stage two included.
McosResult solve_with_reference_kernel(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2) {
  McosResult result;
  const ArcIndex idx1(s1);
  const ArcIndex idx2(s2);
  MemoTable memo(s1.length(), s2.length(), 0);
  auto d2 = [&](Pos k1, Pos, Pos k2, Pos) { return memo.get(k1 + 1, k2 + 1); };

  Matrix<Score> grid;
  auto tabulate = [&](SliceBounds b) -> Score {
    if (b.empty()) {
      ++result.stats.slices_tabulated;  // same accounting as tabulate_slice_dense
      return 0;
    }
    fill_slice_dense_reference(s1, s2, b, grid, d2, &result.stats);
    return grid(static_cast<std::size_t>(b.width()) - 1,
                static_cast<std::size_t>(b.height()) - 1);
  };

  for (std::size_t a = 0; a < idx1.size(); ++a)
    for (std::size_t b = 0; b < idx2.size(); ++b) {
      const Arc arc1 = idx1.arc(a);
      const Arc arc2 = idx2.arc(b);
      memo.set(arc1.left + 1, arc2.left + 1,
               tabulate(SliceBounds::under(arc1.left, arc1.right, arc2.left, arc2.right)));
    }
  result.value = tabulate(SliceBounds{0, s1.length() - 1, 0, s2.length() - 1});
  return result;
}

TEST(KernelEquivalence, EventRunMatchesReferenceAndCompressedOnRandomPairs) {
  // ~200 pairs spanning sparse to dense structures.
  int pairs = 0;
  for (const Pos n : {10, 16, 24, 33}) {
    for (const double density : {0.2, 0.5, 0.85}) {
      for (std::uint64_t seed = 0; seed < 17; ++seed) {
        const auto s1 = random_structure(n, density, 1000 + seed);
        const auto s2 = random_structure(n + 3, density, 2000 + seed);
        ++pairs;

        const McosResult reference = solve_with_reference_kernel(s1, s2);

        // The dense kernel is accounting-identical to the per-cell loop.
        const McosResult dense = srna2(s1, s2, McosOptions{});  // dense layout
        ASSERT_EQ(dense.value, reference.value)
            << "n=" << n << " density=" << density << " seed=" << seed;
        ASSERT_EQ(dense.stats.cells_tabulated, reference.stats.cells_tabulated);
        ASSERT_EQ(dense.stats.arc_match_events, reference.stats.arc_match_events);
        ASSERT_EQ(dense.stats.slices_tabulated, reference.stats.slices_tabulated);

        McosOptions compressed_opt;
        compressed_opt.layout = SliceLayout::kCompressed;
        const McosResult compressed = srna2(s1, s2, compressed_opt);
        ASSERT_EQ(compressed.value, reference.value)
            << "n=" << n << " density=" << density << " seed=" << seed;
      }
    }
  }
  EXPECT_GE(pairs, 200);
}

TEST(KernelEquivalence, AllVariantGridsAreCellIdenticalToReference) {
  // Stronger than the F check: the whole parent grid, cell by cell (the
  // traceback and enumeration read interior cells, not just the corner).
  // The position-dependent fake d2 is deliberately NOT a true DP oracle —
  // its deltas violate the arc-match increment bound, so the kernel must
  // be exact for arbitrary oracles, not just for memo reads.
  KernelScratch scratch;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto s1 = random_structure(30, 0.6, 500 + seed);
    const auto s2 = random_structure(28, 0.6, 600 + seed);

    // A nonzero, position-dependent d2 exercises the event cells properly.
    auto fake_d2 = [](Pos k1, Pos x, Pos k2, Pos y) {
      return static_cast<Score>((k1 + x + k2 + y) % 5);
    };
    const SliceBounds bounds{0, s1.length() - 1, 0, s2.length() - 1};

    Matrix<Score> expected;
    McosStats expected_stats;
    fill_slice_dense_reference(s1, s2, bounds, expected, fake_d2, &expected_stats);

    ColumnEvents col_events;
    col_events.build(s2);
    Matrix<Score> actual;
    McosStats actual_stats;
    fill_slice_dense(s1, s2, col_events, bounds, actual, SliceKernel{&scratch}, fake_d2,
                     &actual_stats);

    ASSERT_EQ(actual.rows(), expected.rows());
    ASSERT_EQ(actual.cols(), expected.cols());
    for (std::size_t r = 0; r < expected.rows(); ++r)
      for (std::size_t c = 0; c < expected.cols(); ++c)
        ASSERT_EQ(actual(r, c), expected(r, c))
            << "seed=" << seed << " cell (" << r << ", " << c << ")";
    EXPECT_EQ(actual_stats.cells_tabulated, expected_stats.cells_tabulated);
    EXPECT_EQ(actual_stats.arc_match_events, expected_stats.arc_match_events);
  }
}

TEST(KernelEquivalence, VariantsHandleEventFreeAndSingleEventRows) {
  // Edge geometry the kernel special-cases: slices whose column range
  // contains zero events (whole rows become one constant run), and ranges
  // with a single event or fewer events than one vector block (the scalar
  // remainder legs).
  KernelScratch scratch;
  const auto s1 = random_structure(20, 0.5, 7);
  const auto s2 = random_structure(22, 0.3, 9);
  ColumnEvents col_events;
  col_events.build(s2);
  auto zero = [](Pos, Pos, Pos, Pos) { return Score{0}; };

  for (Pos lo2 = 0; lo2 < s2.length(); lo2 += 3) {
    for (Pos hi2 = lo2; hi2 < s2.length(); hi2 += 2) {
      const SliceBounds b{0, s1.length() - 1, lo2, hi2};
      Matrix<Score> expected;
      fill_slice_dense_reference(s1, s2, b, expected, zero);
      Matrix<Score> actual;
      fill_slice_dense(s1, s2, col_events, b, actual, SliceKernel{&scratch}, zero);
      ASSERT_EQ(actual.rows(), expected.rows());
      ASSERT_EQ(actual.cols(), expected.cols());
      for (std::size_t r = 0; r < expected.rows(); ++r)
        for (std::size_t c = 0; c < expected.cols(); ++c)
          ASSERT_EQ(actual(r, c), expected(r, c)) << "lo2=" << lo2 << " hi2=" << hi2;
    }
  }
}

TEST(KernelEquivalence, ColumnEventsMatchPerPositionProbes) {
  // The precomputed event table must agree with the per-position
  // arc_left_of probes it replaces, for every slice restriction.
  const auto s = random_structure(40, 0.7, 42);
  ColumnEvents events;
  events.build(s);

  for (Pos lo = 0; lo < s.length(); ++lo) {
    for (Pos hi = lo; hi < s.length(); ++hi) {
      const auto span = events.in_range(lo, hi);
      std::size_t i = 0;
      for (Pos y = lo; y <= hi; ++y) {
        const Pos k = s.arc_left_of(y);
        if (k < 0) continue;  // no arc ends at y: no event
        ASSERT_LT(i, span.size());
        EXPECT_EQ(span[i].y, y);
        EXPECT_EQ(span[i].k, k);
        ++i;
      }
      EXPECT_EQ(i, span.size()) << "lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(KernelEquivalence, EmptyAndArcFreeSlicesAgree) {
  const auto s = db("..(..)..");
  Matrix<Score> a, b;
  McosStats sa, sb;
  auto zero = [](Pos, Pos, Pos, Pos) { return Score{0}; };

  // Arc-free restriction: the event span is empty, the whole row is one run.
  fill_slice_dense(s, s, SliceBounds{0, 1, 0, 1}, a, zero, &sa);
  fill_slice_dense_reference(s, s, SliceBounds{0, 1, 0, 1}, b, zero, &sb);
  EXPECT_EQ(a(1, 1), b(1, 1));
  EXPECT_EQ(sa.cells_tabulated, sb.cells_tabulated);
  EXPECT_EQ(sa.arc_match_events, sb.arc_match_events);

  // Empty bounds resize to 0x0 in both.
  fill_slice_dense(s, s, SliceBounds{3, 2, 0, 1}, a, zero);
  fill_slice_dense_reference(s, s, SliceBounds{3, 2, 0, 1}, b, zero);
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(b.rows(), 0u);
}

}  // namespace
}  // namespace srna
