#include "parallel/prna_mpi.hpp"

#include <vector>

#include "core/memo_table.hpp"
#include "core/slice_tabulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

std::uint64_t PrnaMpiResult::allreduce_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const mmpi::CommStats& c : comm) bytes += c.bytes_sent;
  return bytes;
}

PrnaMpiResult prna_mpi(const SecondaryStructure& s1, const SecondaryStructure& s2,
                       const PrnaMpiOptions& options) {
  SRNA_REQUIRE(options.ranks >= 1, "need at least one rank");
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");

  const auto ranks = static_cast<std::size_t>(options.ranks);

  PrnaMpiResult result;
  result.ranks = options.ranks;
  result.cells_per_rank.assign(ranks, 0);
  std::vector<Score> rank_values(ranks, 0);
  std::vector<McosStats> rank_stats(ranks);

  result.comm = mmpi::run(options.ranks, [&](mmpi::Rank& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    McosStats& stats = rank_stats[rank];

    // --- Preprocessing (replicated, deterministic on every rank). ---
    WallTimer phase;
    obs::TraceScope preprocess_span("prna_mpi", "preprocess");
    if (preprocess_span.active())
      preprocess_span.set_args(obs::trace_args({{"rank", comm.rank()}}));
    ColumnEvents col_events;
    const SliceTabulator slices(s1, s2, col_events.build(s2), options.layout);
    const ArcIndex& idx1 = slices.arcs1();
    const ArcIndex& idx2 = slices.arcs2();

    std::vector<std::uint64_t> col_weights(idx2.size());
    for (std::size_t b = 0; b < idx2.size(); ++b)
      col_weights[b] =
          static_cast<std::uint64_t>(std::max<Pos>(idx2.arc(b).interior_width(), 0));
    const Assignment assignment = balance_load(col_weights, ranks, options.balance);
    if (rank == 0) result.assignment = assignment;

    std::vector<std::size_t> owned;
    for (std::size_t b = 0; b < idx2.size(); ++b)
      if (assignment.owner[b] == rank) owned.push_back(b);

    // The replicated memo table: this rank's private copy.
    MemoTable memo(s1.length(), s2.length(), 0);
    preprocess_span.close();
    stats.preprocess_seconds = phase.seconds();

    auto d2_lookup = [&](Pos k1, Pos /*x*/, Pos k2, Pos /*y*/) -> Score {
      return memo.get(k1 + 1, k2 + 1);
    };

    // --- Stage one: owned child slices, then Allreduce(MAX) per row. ---
    phase.reset();
    obs::TraceScope stage1_span("prna_mpi", "stage1");
    if (stage1_span.active())
      stage1_span.set_args(obs::trace_args({{"rank", comm.rank()}}));
    SliceScratch scratch;
    for (std::size_t a = 0; a < idx1.size(); ++a) {
      const Arc arc1 = idx1.arc(a);
      for (const std::size_t b : owned)
        memo.set(arc1.left + 1, idx2.arc(b).left + 1,
                 slices.child(a, b, scratch, d2_lookup, &stats));
      // "Synchronize row i1 in M across all processors" — the paper's
      // MPI_Allreduce with MPI_MAX over the beginning address of the row.
      comm.allreduce_max(memo.row(arc1.left + 1), static_cast<std::size_t>(memo.cols()));
    }
    stage1_span.close();
    stats.stage1_seconds = phase.seconds();
    result.cells_per_rank[rank] = stats.cells_tabulated;

    // --- Stage two: every rank holds the full table; tabulate redundantly
    // (cheap — Table III) so no final broadcast is needed. ---
    phase.reset();
    obs::TraceScope stage2_span("prna_mpi", "stage2");
    if (stage2_span.active())
      stage2_span.set_args(obs::trace_args({{"rank", comm.rank()}}));
    rank_values[rank] = slices.parent(scratch, d2_lookup, rank == 0 ? &stats : nullptr);
    stats.stage2_seconds = phase.seconds();
  });

  // Every rank must agree on the answer (they hold identical tables).
  for (std::size_t r = 1; r < ranks; ++r)
    SRNA_CHECK(rank_values[r] == rank_values[0], "ranks disagree on the MCOS value");
  result.value = rank_values[0];

  for (const McosStats& s : rank_stats) {
    result.stats.cells_tabulated += s.cells_tabulated;
    result.stats.slices_tabulated += s.slices_tabulated;
    result.stats.arc_match_events += s.arc_match_events;
  }
  result.stats.preprocess_seconds = rank_stats[0].preprocess_seconds;
  // Stage one wall time = the slowest rank (they synchronize every row).
  for (const McosStats& s : rank_stats)
    result.stats.stage1_seconds = std::max(result.stats.stage1_seconds, s.stage1_seconds);
  result.stats.stage2_seconds = rank_stats[0].stage2_seconds;

  bridge_stats_to_metrics("prna_mpi", result.stats);
  // Communication volume, summed over ranks (the per-rank split is in the
  // returned CommStats; the registry records the aggregate).
  auto& metrics = obs::Registry::instance();
  mmpi::CommStats total;
  for (const mmpi::CommStats& c : result.comm) {
    total.barriers += c.barriers;
    total.allreduces += c.allreduces;
    total.broadcasts += c.broadcasts;
    total.gathers += c.gathers;
    total.point_to_point += c.point_to_point;
    total.bytes_sent += c.bytes_sent;
  }
  metrics.counter("prna_mpi.comm.barriers").add(total.barriers);
  metrics.counter("prna_mpi.comm.allreduces").add(total.allreduces);
  metrics.counter("prna_mpi.comm.broadcasts").add(total.broadcasts);
  metrics.counter("prna_mpi.comm.gathers").add(total.gathers);
  metrics.counter("prna_mpi.comm.point_to_point").add(total.point_to_point);
  metrics.counter("prna_mpi.comm.bytes_sent").add(total.bytes_sent);
  return result;
}

}  // namespace srna
