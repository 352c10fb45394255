// PRNA over the mini-MPI substrate — a faithful transcription of the
// paper's Algorithm 4 for a (simulated) distributed-memory machine.
//
// Unlike the shared-memory PRNA (one shared memo table, a barrier per
// row), this version gives every rank its own *replicated* memo table M and
// synchronizes exactly as the paper prescribes: after all ranks finish a
// row's owned child slices, MPI_Allreduce(MAX) over that row publishes the
// values — each rank contributes the columns it computed (others hold the
// initial 0) and receives the merged row. Stage two runs redundantly on
// every rank (each holds the full table), and rank 0's value is returned.
//
// The per-rank communication counters feed EXPERIMENTS.md's comparison with
// the cluster simulator's alpha-beta communication model.
#pragma once

#include "core/options.hpp"
#include "core/result.hpp"
#include "parallel/load_balance.hpp"
#include "parallel/mini_mpi.hpp"
#include "rna/secondary_structure.hpp"

namespace srna {

struct PrnaMpiOptions {
  int ranks = 2;
  BalanceStrategy balance = BalanceStrategy::kGreedyLpt;
  SliceLayout layout = SliceLayout::kDense;
};

struct PrnaMpiResult {
  Score value = 0;
  McosStats stats;                       // aggregated over ranks
  int ranks = 0;
  Assignment assignment;                 // stage-one column ownership
  std::vector<std::uint64_t> cells_per_rank;
  std::vector<mmpi::CommStats> comm;     // per-rank communication counters

  // Total payload bytes moved through row reductions (one rank's
  // contribution × ranks, summed over rows).
  [[nodiscard]] std::uint64_t allreduce_bytes() const noexcept;
};

PrnaMpiResult prna_mpi(const SecondaryStructure& s1, const SecondaryStructure& s2,
                       const PrnaMpiOptions& options = {});

}  // namespace srna
