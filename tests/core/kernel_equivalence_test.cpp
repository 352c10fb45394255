// Randomized equivalence of the slice kernels: the dense kernel, the
// per-cell reference fill it is pinned against (fill_slice_dense_reference,
// kept exactly for this test and the perf gate), the lean solver's row
// stream (detail::stream_slice_rows), and the compressed event-grid layout.
// All three run the one row routine. The dense kernel and the stream must be
// pure strength reductions — same cells, d2 calls, cells_tabulated and
// arc_match_events. The compressed layout keeps one cell per arc pair: each
// must equal the reference cell at the two arcs' right endpoints, with the
// reference's d2 calls and arc_match_events. Under -DSRNA_DISABLE_SIMD the
// same cases pin the row routine's scalar instantiation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <vector>

#include "core/arc_index.hpp"
#include "core/lean_slice.hpp"
#include "core/mcos.hpp"
#include "core/memo_table.hpp"
#include "core/tabulate_slice.hpp"
#include "rna/generators.hpp"
#include "testing/builders.hpp"

namespace srna {
namespace {

using testing::db;

using D2Call = std::array<Pos, 4>;  // (k1, x, k2, y)

// A position-dependent fake d2 that records every call. Deliberately NOT a
// DP oracle (its deltas break the arc-match increment bound): the kernels
// must be exact for arbitrary oracles.
struct RecordingD2 {
  std::vector<D2Call>* calls;
  Score operator()(Pos k1, Pos x, Pos k2, Pos y) const {
    calls->push_back({k1, x, k2, y});
    return static_cast<Score>((k1 + x + k2 + y) % 5);
  }
};

// Streams slice `b` as srna-lean does and collects every row, through the
// stream's row visitor, into `grid` — the shape fill_slice_dense writes.
template <typename D2>
Score stream_into_grid(const SecondaryStructure& s1, const ColumnEvents& col_events,
                       SliceBounds b, Matrix<Score>& grid, D2&& d2_of,
                       McosStats* stats = nullptr) {
  LeanSliceScratch rows;
  KernelScratch kernel;
  grid.resize(b.empty() ? 0 : static_cast<std::size_t>(b.width()),
              b.empty() ? 0 : static_cast<std::size_t>(b.height()), -7);
  return stream_slice_dense(s1, col_events, b, rows, SliceKernel{&kernel}, d2_of, stats,
                            [&](Pos x, const Score* row, const LeanSliceScratch&) {
                              std::copy(row, row + grid.cols(),
                                        grid.row_data(static_cast<std::size_t>(x - b.lo1)));
                            });
}

void expect_same_grid(const Matrix<Score>& actual, const Matrix<Score>& expected,
                      const std::string& what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (std::size_t r = 0; r < expected.rows(); ++r)
    for (std::size_t c = 0; c < expected.cols(); ++c)
      ASSERT_EQ(actual(r, c), expected(r, c)) << what << " cell (" << r << ", " << c << ")";
}

// The arcs of `s` inside [lo, hi], by right endpoint: the rows (S1) or
// columns (S2) of the compressed layout's event grid over that interval.
std::vector<Arc> arcs_within(const SecondaryStructure& s, Pos lo, Pos hi) {
  std::vector<Arc> out;
  for (const Arc& a : s.arcs_by_right())
    if (a.within(lo, hi)) out.push_back(a);
  return out;
}

// Tabulates slice `b` in the compressed layout under the position-dependent
// fake d2 and pins it to the per-cell reference: event-grid cell (r, c) is
// the reference cell at (rows[r].right, cols[c].right), the d2 calls are the
// reference's, and the layout tabulates — and counts as arc-match events —
// one cell per arc pair.
void expect_compressed_matches_reference(const SecondaryStructure& s1,
                                         const SecondaryStructure& s2, SliceBounds b,
                                         EventScratch& events, KernelScratch& kernel,
                                         const std::string& what) {
  std::vector<D2Call> expected_calls;
  Matrix<Score> expected;
  McosStats expected_stats;
  fill_slice_dense_reference(s1, s2, b, expected, RecordingD2{&expected_calls},
                             &expected_stats);
  const std::vector<Arc> rows = arcs_within(s1, b.lo1, b.hi1);
  const std::vector<Arc> cols = arcs_within(s2, b.lo2, b.hi2);

  std::vector<D2Call> calls;
  McosStats stats;
  const Score corner = tabulate_slice_compressed(rows, cols, events, SliceKernel{&kernel},
                                                 RecordingD2{&calls}, &stats);
  for (std::size_t r = 0; r < rows.size() && !cols.empty(); ++r)
    for (std::size_t c = 0; c < cols.size(); ++c)
      ASSERT_EQ(events.val(r, c), expected(static_cast<std::size_t>(rows[r].right - b.lo1),
                                            static_cast<std::size_t>(cols[c].right - b.lo2)))
          << "compressed " << what << " event cell (" << r << ", " << c << ")";
  EXPECT_EQ(corner, b.empty() ? 0 : expected(expected.rows() - 1, expected.cols() - 1))
      << "compressed " << what;
  EXPECT_EQ(calls, expected_calls) << "compressed " << what;
  EXPECT_EQ(stats.cells_tabulated, rows.size() * cols.size()) << what;
  EXPECT_EQ(stats.arc_match_events, expected_stats.arc_match_events) << what;
  EXPECT_EQ(stats.slices_tabulated, 1u) << what;
}

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
  // traceback and enumeration read interior cells, not just the corner),
  // and the exact sequence of d2 calls — SRNA1's memoize-on-miss oracle and
  // the lean store's LRU window both depend on it.
  KernelScratch scratch;
  EventScratch events;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto s1 = random_structure(30, 0.6, 500 + seed);
    const auto s2 = random_structure(28, 0.6, 600 + seed);
    for (const SliceBounds bounds : {SliceBounds{0, s1.length() - 1, 0, s2.length() - 1},
                                     SliceBounds{2, s1.length() - 2, 1, s2.length() - 3}}) {
      const std::string what =
          "seed=" + std::to_string(seed) + " lo1=" + std::to_string(bounds.lo1);

      std::vector<D2Call> expected_calls;
      Matrix<Score> expected;
      McosStats expected_stats;
      fill_slice_dense_reference(s1, s2, bounds, expected, RecordingD2{&expected_calls},
                                 &expected_stats);

      ColumnEvents col_events;
      col_events.build(s2);
      std::vector<D2Call> dense_calls;
      Matrix<Score> dense;
      McosStats dense_stats;
      fill_slice_dense(s1, s2, col_events, bounds, dense, SliceKernel{&scratch},
                       RecordingD2{&dense_calls}, &dense_stats);
      expect_same_grid(dense, expected, "dense " + what);
      EXPECT_EQ(dense_calls, expected_calls) << what;
      EXPECT_EQ(dense_stats.cells_tabulated, expected_stats.cells_tabulated);
      EXPECT_EQ(dense_stats.arc_match_events, expected_stats.arc_match_events);

      std::vector<D2Call> stream_calls;
      Matrix<Score> streamed;
      McosStats stream_stats;
      const Score corner = stream_into_grid(s1, col_events, bounds, streamed,
                                            RecordingD2{&stream_calls}, &stream_stats);
      expect_same_grid(streamed, expected, "stream " + what);
      EXPECT_EQ(corner, expected(expected.rows() - 1, expected.cols() - 1)) << what;
      EXPECT_EQ(stream_calls, expected_calls) << what;
      EXPECT_EQ(stream_stats.cells_tabulated, expected_stats.cells_tabulated);
      EXPECT_EQ(stream_stats.arc_match_events, expected_stats.arc_match_events);
      EXPECT_EQ(stream_stats.slices_tabulated, 1u);

      expect_compressed_matches_reference(s1, s2, bounds, events, scratch, what);
    }
  }
}

TEST(KernelEquivalence, VariantsHandleEventFreeAndSingleEventRows) {
  // Edge geometry the kernel special-cases: slices whose column range
  // contains zero events (whole rows become one constant run), and ranges
  // with a single event or fewer events than one vector block (the scalar
  // remainder legs).
  KernelScratch scratch;
  EventScratch events;
  const auto s1 = random_structure(20, 0.5, 7);
  const auto s2 = random_structure(22, 0.3, 9);
  ColumnEvents col_events;
  col_events.build(s2);
  auto zero = [](Pos, Pos, Pos, Pos) { return Score{0}; };

  for (Pos lo2 = 0; lo2 < s2.length(); lo2 += 3) {
    for (Pos hi2 = lo2; hi2 < s2.length(); hi2 += 2) {
      const SliceBounds b{0, s1.length() - 1, lo2, hi2};
      const std::string what = "lo2=" + std::to_string(lo2) + " hi2=" + std::to_string(hi2);
      Matrix<Score> expected;
      McosStats expected_stats;
      fill_slice_dense_reference(s1, s2, b, expected, zero, &expected_stats);
      Matrix<Score> actual;
      fill_slice_dense(s1, s2, col_events, b, actual, SliceKernel{&scratch}, zero);
      expect_same_grid(actual, expected, "dense " + what);

      Matrix<Score> streamed;
      McosStats stream_stats;
      stream_into_grid(s1, col_events, b, streamed, zero, &stream_stats);
      expect_same_grid(streamed, expected, "stream " + what);
      EXPECT_EQ(stream_stats.cells_tabulated, expected_stats.cells_tabulated) << what;
      EXPECT_EQ(stream_stats.arc_match_events, expected_stats.arc_match_events) << what;

      expect_compressed_matches_reference(s1, s2, b, events, scratch, what);
    }
  }
}

TEST(KernelEquivalence, StreamResumesFromSavedRowAndRetainedStack) {
  // The replay path of the lean traceback's grid view: snapshot the stream's
  // state after row r — the finished row and the retained-row stack — then
  // restart detail::stream_slice_rows from r + 1 with fresh scratch. Every
  // remaining row, and the d2 calls that produce them, must match the
  // reference. Interior bounds exercise the lo1/lo2 offsets.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto s1 = random_structure(34, 0.7, 900 + seed);
    const auto s2 = random_structure(31, 0.7, 950 + seed);
    ColumnEvents col_events;
    col_events.build(s2);
    for (const SliceBounds b : {SliceBounds{0, s1.length() - 1, 0, s2.length() - 1},
                                SliceBounds{2, s1.length() - 2, 1, s2.length() - 3}}) {
      std::vector<D2Call> expected_calls;
      Matrix<Score> expected;
      fill_slice_dense_reference(s1, s2, b, expected, RecordingD2{&expected_calls});

      // The stream's state after each row: its row becomes the next `up`.
      std::vector<LeanSliceScratch> after;
      LeanSliceScratch rows;
      KernelScratch kernel;
      std::vector<D2Call> ignored;
      stream_slice_dense(s1, col_events, b, rows, SliceKernel{&kernel}, RecordingD2{&ignored},
                         nullptr, [&](Pos, const Score*, const LeanSliceScratch& ws) {
                           after.push_back(ws);
                           after.back().prev = ws.cur;
                         });

      for (Pos restart = b.lo1; restart < b.hi1; ++restart) {
        const std::string what = "seed=" + std::to_string(seed) + " restart=" +
                                 std::to_string(restart) + " lo1=" + std::to_string(b.lo1);
        LeanSliceScratch resumed = after[static_cast<std::size_t>(restart - b.lo1)];
        Matrix<Score> grid = expected;  // rows past the restart must be rewritten
        std::fill(grid.flat().begin() + (restart - b.lo1 + 1) * b.height(), grid.flat().end(), -7);
        KernelScratch fresh;
        std::vector<D2Call> calls;
        detail::stream_slice_rows(s1, col_events, b, restart + 1, b.hi1, resumed,
                                  SliceKernel{&fresh}, RecordingD2{&calls}, nullptr,
                                  [&](Pos x, const Score* row, const LeanSliceScratch&) {
                                    std::copy(row, row + grid.cols(),
                                              grid.row_data(static_cast<std::size_t>(x - b.lo1)));
                                  });
        expect_same_grid(grid, expected, what);
        std::vector<D2Call> tail;
        std::copy_if(expected_calls.begin(), expected_calls.end(), std::back_inserter(tail),
                     [&](const D2Call& call) { return call[1] > restart; });
        EXPECT_EQ(calls, tail) << what;
      }
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
        EXPECT_EQ(span[i].right, y);
        EXPECT_EQ(span[i].left, k);
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
  ColumnEvents col_events;
  col_events.build(s);
  Matrix<Score> c;
  McosStats sc;

  // Arc-free restriction: the event span is empty, the whole row is one run.
  fill_slice_dense(s, s, SliceBounds{0, 1, 0, 1}, a, zero, &sa);
  fill_slice_dense_reference(s, s, SliceBounds{0, 1, 0, 1}, b, zero, &sb);
  stream_into_grid(s, col_events, SliceBounds{0, 1, 0, 1}, c, zero, &sc);
  EXPECT_EQ(a(1, 1), b(1, 1));
  expect_same_grid(c, b, "stream arc-free");
  EXPECT_EQ(sa.cells_tabulated, sb.cells_tabulated);
  EXPECT_EQ(sa.arc_match_events, sb.arc_match_events);
  EXPECT_EQ(sc.cells_tabulated, sb.cells_tabulated);
  EXPECT_EQ(sc.arc_match_events, sb.arc_match_events);

  // Empty bounds resize to 0x0 in both grid fills; the stream returns 0.
  fill_slice_dense(s, s, SliceBounds{3, 2, 0, 1}, a, zero);
  fill_slice_dense_reference(s, s, SliceBounds{3, 2, 0, 1}, b, zero);
  EXPECT_EQ(stream_into_grid(s, col_events, SliceBounds{3, 2, 0, 1}, c, zero), 0);
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(b.rows(), 0u);

  // The compressed layout: no arc pair inside either slice, one slice
  // counted, no cells.
  EventScratch events;
  KernelScratch kernel;
  expect_compressed_matches_reference(s, s, SliceBounds{0, 1, 0, 1}, events, kernel, "arc-free");
  expect_compressed_matches_reference(s, s, SliceBounds{3, 2, 0, 1}, events, kernel, "empty");
}

}  // namespace
}  // namespace srna
