// SRNA-lean — the space-lean long-sequence solve path.
//
// Same recurrence, same two-stage eager schedule as SRNA2, but the
// cross-slice memo lives in a WindowedMemoStore (core/memo_store.hpp)
// instead of the dense Θ(nm) table, and slices are streamed
// (core/lean_slice.hpp) instead of materialized. The resident score state is
//   O(n + m)                      index maps and column events
//   + live memo window            capped by the byte budget
//   + (2 + nesting depth) rows    streaming cur/prev + retained d1 rows
//   + O(S2 arcs)                  the dense kernel's per-event scratch
// A d2 probe that misses (row evicted under the budget, or simply not yet
// tabulated) recomputes the child slice on demand, SRNA1-style; the
// recursion terminates because children are strictly nested. Under a
// generous budget nothing is ever evicted and the work matches SRNA2
// exactly; under pressure the store trades recompute time for bytes.
//
// Scores and tracebacks are bit-identical to the dense backends: each
// streamed row is computed by the dense kernel's own row routine, and the
// lean traceback walks the identical decision kernel
// (core/traceback_walk.hpp) over a checkpoint-replay grid view.
#pragma once

#include <cstdint>

#include "core/checkpoint.hpp"
#include "core/memo_store.hpp"
#include "core/options.hpp"
#include "core/result.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"
#include "rna/secondary_structure.hpp"

namespace srna {

struct LeanOptions {
  McosOptions base;

  // Cap on resident solver bytes (memo window + streaming scratch);
  // 0 = unlimited (the window keeps every row, like a sparse dense table).
  // A non-zero budget below lean_minimum_bytes(s1, s2) fails fast with
  // std::invalid_argument at solve entry — never mid-solve.
  std::uint64_t memory_budget_bytes = 0;
};

// The irreducible resident floor for a pair: index maps + one memo row +
// the streaming rows (cur/prev + one retained row per nesting level) + the
// column-event table. Budgets below this are rejected up front.
std::size_t lean_minimum_bytes(const SecondaryStructure& s1, const SecondaryStructure& s2);

// Upper bound on the streaming-scratch part of the floor (everything except
// the memo window). The solver gives the window budget - this.
std::size_t lean_scratch_floor_bytes(const SecondaryStructure& s1,
                                     const SecondaryStructure& s2);

// SRNA-lean solve. Both layouts are honored (kDense streams; kCompressed
// tabulates the event grid per slice — space-lean in the memo dimension
// only). The workspace overload reuses the caller's pooled buffers.
McosResult srna_lean(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const LeanOptions& options = {});
McosResult srna_lean(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const LeanOptions& options, Workspace& workspace);

// Checkpoint/restart for the lean path (dense layout), in the one checkpoint
// format of core/checkpoint.hpp: the file holds the *resident window* rows
// plus the count of completed stage-one rows — evicted rows are recomputed
// on demand after resume, so a checkpoint under a tight budget stays small.
CheckpointedRun srna_lean_checkpointed(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2,
                                       const LeanOptions& options,
                                       const CheckpointPolicy& policy);

// MCOS value plus one witness set, computed entirely on the lean path: the
// walk re-streams each slice once, snapshotting (row, retained-stack)
// checkpoints every ~sqrt(width) rows, and materializes row blocks on demand
// by replaying from the nearest checkpoint — each block is replayed at most
// once because the walk frontier is monotone. Matches mcos_traceback
// bit-for-bit on the same inputs.
CommonSubstructure mcos_traceback_lean(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2,
                                       const LeanOptions& options = {});
CommonSubstructure mcos_traceback_lean(const SecondaryStructure& s1,
                                       const SecondaryStructure& s2,
                                       const LeanOptions& options, Workspace& workspace);

}  // namespace srna
