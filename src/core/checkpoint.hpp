// Checkpoint/restart for long stage-one runs (SRNA2 and SRNA-lean).
//
// The paper-scale worst cases are long-running (length 3200 is hours of
// single-core stage one), and the algorithm's structure makes interruption
// tolerance nearly free: between outer-loop iterations the only live state
// is the memo cells stage one has written plus the count of completed S1
// arcs — the same property PRNA's per-row synchronization exploits. Stage
// one writes exactly one memo cell per (S1 arc, S2 arc) pair, so both
// solvers serialize the same thing: rows keyed by S1-arc ordinal (arcs in
// right-endpoint order), each holding one Score per S2 arc — the row shape
// of WindowedMemoStore.
//
//   CheckpointedRun run;
//   do {
//     run = srna2_checkpointed(s1, s2, {}, policy);   // picks up where it left off
//   } while (!run.complete);                          // e.g. across process restarts
//
// One file format serves both solvers. A CheckpointHeader (magic, both input
// fingerprints, n, m, rows done, the McosStats counters, the row count, the
// S2 arc count, and an FNV-1a checksum over the whole file) is followed by
// `row_count` rows of (std::uint64_t ordinal, arcs2 × Score); a file in a
// retired format fails on its magic. SRNA2 writes
// every completed row and requires all of them on resume; SRNA-lean writes
// the rows its window holds resident and recomputes the rest on demand.
// Files are written atomically (temp file + rename) every `every_rows`
// completed rows and removed on successful completion.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/options.hpp"
#include "core/result.hpp"
#include "rna/secondary_structure.hpp"

namespace srna {

struct CheckpointPolicy {
  // Where the checkpoint lives. Must be non-empty.
  std::string path;
  // Persist after this many completed stage-one rows (S1 arcs).
  std::uint64_t every_rows = 64;
  // Stop (with complete = false, checkpoint written) after this many rows
  // in *this* invocation; 0 = run to completion. Gives tests and batch
  // schedulers a deterministic interruption point.
  std::uint64_t max_rows_this_run = 0;
};

struct CheckpointedRun {
  bool complete = false;
  bool resumed = false;              // a valid checkpoint was loaded
  std::uint64_t rows_done = 0;       // completed S1 arcs overall
  std::uint64_t rows_total = 0;
  McosResult result;                 // valid only when complete
};

// SRNA2 with checkpointing, under either layout: the saved memo rows do not
// depend on it, so a run may resume under the other. Throws
// std::invalid_argument on a checkpoint that does not match the inputs
// (wrong sizes or arc sets) or fails any of the loader's checks — resuming
// against different structures or a damaged file would silently corrupt the
// answer.
CheckpointedRun srna2_checkpointed(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                   const McosOptions& options, const CheckpointPolicy& policy);

// Fingerprint used to bind a checkpoint to its inputs (FNV-1a over lengths
// and arc endpoints). Exposed for tests.
std::uint64_t structure_fingerprint(const SecondaryStructure& s) noexcept;

namespace detail {

// The on-disk header. Exposed so tests can address its fields.
struct CheckpointHeader {
  char magic[8];
  std::uint64_t fingerprint1;
  std::uint64_t fingerprint2;
  std::int64_t n;
  std::int64_t m;
  std::uint64_t rows_done;
  std::uint64_t counters[6];  // the McosStats work counters, cells_tabulated first
  std::uint64_t row_count;    // rows that follow the header
  std::uint64_t arcs2;        // Scores per row: the S2 arc count
  std::uint64_t checksum;     // FNV-1a over the rows, then this header with it zeroed
};

// What a checkpointed solver plugs into the shared driver. Rows are S1 arc
// ordinals (right-endpoint order); a row's values are one Score per S2 arc.
struct CheckpointedSolver {
  std::function<void(std::uint64_t a)> tabulate_row;  // stage one for S1 arc a
  // Whether a checkpoint taken after `done` completed rows holds row a.
  std::function<bool(std::uint64_t a, std::uint64_t done)> saved;
  std::function<std::span<const Score>(std::uint64_t a)> row;
  std::function<void(std::uint64_t a, std::span<const Score>)> restore;
  std::function<Score()> stage_two;  // the parent slice
  // A checkpoint must hold exactly the completed rows (SRNA2), not any
  // subset (SRNA-lean recomputes missing rows on demand).
  bool all_rows = false;
};

// Resumes from policy.path if a checkpoint is there, runs stage one (writing
// checkpoints per `policy`), then stage two, and removes the file. Before
// the loader reads a row it checks the magic, the fingerprints, n and m,
// every count against the arc counts, the file size and the checksum; then
// each row's ordinal and values before solver.restore sees it. Any failure
// throws std::invalid_argument.
CheckpointedRun run_checkpointed(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                 const CheckpointPolicy& policy, McosStats& stats,
                                 const CheckpointedSolver& solver);

}  // namespace detail

}  // namespace srna
