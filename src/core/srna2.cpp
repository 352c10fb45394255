// SRNA2 (paper Algorithms 2–3): the two-stage eager algorithm.
//
// Stage one walks every arc pair ((i1,j1), (i2,j2)) — S1 arcs outer, S2 arcs
// inner, both by increasing right endpoint — and tabulates the child slice
// under the pair, memoizing its final value at M(i1+1, i2+1). Because a
// slice's dynamic dependencies always involve an S1 arc with a strictly
// smaller right endpoint, every d2 lookup hits an entry memoized in an
// earlier outer iteration: the per-cell "have we memoized this yet?" branch
// and the recursion of SRNA1 disappear. Stage two tabulates the parent slice
// (0, n-1, 0, m-1) with lookup-only d2.
//
// The S2 (inner) loop order is immaterial for correctness — the fact PRNA
// exploits to tabulate the inner loop's slices in parallel.

#include "core/detail.hpp"
#include "core/mcos.hpp"
#include "core/slice_tabulator.hpp"
#include "core/workspace.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

namespace detail {

Score run_srna2(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const McosOptions& options, McosStats& stats, MemoTable& memo,
                Workspace& scratch) {
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");
  SRNA_REQUIRE(memo.rows() == s1.length() && memo.cols() == s2.length(),
               "memo table must be n x m");

  const bool validate = options.validate_memo;

  // Preprocessing: determine the arc endpoints / traversal order (ArcIndex)
  // and the memo table initialization.
  WallTimer phase;
  obs::TraceScope preprocess_span("srna2", "preprocess");
  memo.fill(validate ? MemoTable::kUnset : Score{0});
  // The per-solve slice entry point over the S2 column-event table, shared
  // by every stage-one slice and stage two (O(n + m) to build).
  const SliceTabulator slices(s1, s2, scratch.column_events().build(s2), options.layout);
  const ArcIndex& idx1 = slices.arcs1();
  const ArcIndex& idx2 = slices.arcs2();
  preprocess_span.close();
  stats.preprocess_seconds = phase.seconds();

  auto d2_lookup = [&](Pos k1, Pos /*x*/, Pos k2, Pos /*y*/) -> Score {
    const Score v = memo.get(k1 + 1, k2 + 1);
    if (validate)
      SRNA_CHECK(v != MemoTable::kUnset,
                 "SRNA2 ordering violated: d2 lookup missed the memo table");
    return v;
  };

  // Stage one: tabulate all child slices.
  phase.reset();
  obs::TraceScope stage1_span("srna2", "stage1");
  SliceScratch& slice_scratch = scratch.slice_scratch(0);
  std::uint64_t slices_started = 0;
  for (std::size_t a = 0; a < idx1.size(); ++a) {
    const Arc arc1 = idx1.arc(a);
    obs::TraceScope row_span("srna2", "row");
    if (row_span.active())
      row_span.set_args(obs::trace_args({{"row", static_cast<std::int64_t>(a)}}));
    for (std::size_t b = 0; b < idx2.size(); ++b) {
      // Slice boundary: one cancel poll per slice (never per row/cell).
      if (options.cancelled()) throw SolveCancelled();
      if (options.slice_hook) options.slice_hook(slices_started);
      ++slices_started;
      memo.set(arc1.left + 1, idx2.arc(b).left + 1,
               slices.child(a, b, slice_scratch, d2_lookup, &stats));
    }
  }
  stage1_span.close();
  stats.stage1_seconds = phase.seconds();

  // Stage two: tabulate the parent slice.
  if (options.cancelled()) throw SolveCancelled();
  if (options.slice_hook) options.slice_hook(slices_started);
  phase.reset();
  obs::TraceScope stage2_span("srna2", "stage2");
  const Score answer = slices.parent(slice_scratch, d2_lookup, &stats);
  stage2_span.close();
  stats.stage2_seconds = phase.seconds();
  return answer;
}

Score run_srna2(const SecondaryStructure& s1, const SecondaryStructure& s2,
                const McosOptions& options, McosStats& stats, MemoTable& memo) {
  return run_srna2(s1, s2, options, stats, memo, Workspace::local());
}

}  // namespace detail

McosResult srna2(const SecondaryStructure& s1, const SecondaryStructure& s2,
                 const McosOptions& options) {
  return srna2(s1, s2, options, Workspace::local());
}

McosResult srna2(const SecondaryStructure& s1, const SecondaryStructure& s2,
                 const McosOptions& options, Workspace& workspace) {
  McosResult result;
  // run_srna2 overwrites every memo cell it needs; the initial fill value is
  // re-applied there, so 0 here is just the re-shape.
  MemoTable& memo = workspace.memo(s1.length(), s2.length(), 0);
  result.value = detail::run_srna2(s1, s2, options, result.stats, memo, workspace);
  bridge_stats_to_metrics("srna2", result.stats);
  return result;
}

}  // namespace srna
