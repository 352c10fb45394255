// McosEngine — the unified solver engine: one name-keyed registry of
// pluggable MCOS backends behind a single configuration surface.
//
// Everything above the core solvers (CLI, structure DB, clustering, bench,
// examples) dispatches through here instead of naming srna1()/srna2()/prna()
// directly. That buys three things:
//   * one `--algorithm` vocabulary everywhere (compare/search/matrix all
//     accept the same names, including the parallel and reference backends),
//   * per-backend validation of the unified SolverConfig (asking SRNA2 for a
//     hash-map memo is a config error, not a silently ignored flag),
//   * centralized workspace pooling: solve_with() threads a reusable
//     Workspace through every solve and publishes reuse/allocation counters
//     (engine.workspace_reuse, engine.workspace_alloc_bytes) proving that
//     steady-state corpus loops allocate nothing.
//
// Built-in backends (registered on first McosEngine::instance() call —
// explicit registration, not static-init self-registration, because the
// static-library link would dead-strip unreferenced registrar TUs):
//   srna1         lazy memoize-on-miss slice tabulation   (paper Algorithm 1)
//   srna2         two-stage eager tabulation              (Algorithms 2–3)
//   prna          shared-memory parallel SRNA2            (Algorithm 4, thread team)
//   prna-mpi-sim  Algorithm 4 over the mini-MPI substrate (replicated memo,
//                 per-row Allreduce)
//   topdown       memoized 4-D reference (ground truth, small inputs)
//   bottomup      full 4-D tabulation (the over-tabulating baseline)
//   prna-steal    barrier-free PRNA (dependency counting + work stealing)
//   srna-lean     space-lean SRNA2: windowed memo store + streamed slices
//                 under SolverConfig::memory_budget_bytes (long sequences)
//
// Adding a backend: subclass SolverBackend, then
// McosEngine::instance().register_backend(std::make_unique<MyBackend>()).
// See docs/ENGINE.md for the full walk-through.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.hpp"
#include "core/result.hpp"
#include "core/workspace.hpp"
#include "obs/json.hpp"
#include "parallel/load_balance.hpp"
#include "parallel/prna.hpp"
#include "parallel/prna_mpi.hpp"
#include "rna/secondary_structure.hpp"

namespace srna {

// The unified solver configuration: the union of every backend's knobs, with
// defaults chosen so a default-constructed SolverConfig is valid for every
// backend. Backends validate() the fields they cannot honor — a non-default
// value on a knob a backend does not implement is an error, with two
// deliberate exceptions (accept-and-ignore, see BackendCaps): `layout` and
// `validate_memo`, so layout/validation sweeps can run over the reference
// backends too.
struct SolverConfig {
  // All solvers (references accept-and-ignore).
  SliceLayout layout = SliceLayout::kDense;
  bool validate_memo = false;

  // SRNA1 only: lazy-evaluation controls.
  MemoKind memo_kind = MemoKind::kArray;
  bool memoize = true;
  std::uint64_t spawn_limit = 0;

  // Parallel backends. threads drives prna and prna-steal (0 = the CPUs in
  // the process's affinity mask; 1 inside another team's worker, since
  // teams do not nest: parallel/team.hpp); ranks drives prna-mpi-sim.
  int threads = 0;
  int ranks = 2;
  BalanceStrategy balance = BalanceStrategy::kGreedyLpt;
  // Test-only fault injection (prna); see PrnaOptions::stage1_hook.
  std::function<void(std::size_t, std::size_t)> stage1_hook;

  // Cooperative cancellation (srna1/srna2): polled at slice boundaries; the
  // solver throws SolveCancelled once the flag reads true. The serve
  // subsystem's deadline monitor owns the flag. See McosOptions::cancel.
  const std::atomic<bool>* cancel = nullptr;

  // Cap on resident solver bytes (srna-lean: memo window + streaming
  // scratch); 0 = unlimited. Backends without the memory_budget capability
  // reject non-default values — a budget they would silently ignore is a
  // config error. solve_with() additionally trims the pooled workspace back
  // under the budget after a solve that overshot it.
  std::uint64_t memory_budget_bytes = 0;

  // Projections onto the solver-native option structs.
  [[nodiscard]] McosOptions to_mcos() const;
  [[nodiscard]] PrnaOptions to_prna() const;
  [[nodiscard]] PrnaMpiOptions to_prna_mpi() const;
};

// What a backend implements, driving the default validate(). `layout` and
// `validate_memo` are never validated against (accept-and-ignore by design);
// everything else must be at its default unless the flag below is set.
struct BackendCaps {
  bool threads = false;          // honors SolverConfig::threads
  bool ranks = false;            // honors SolverConfig::ranks
  bool lazy_controls = false;    // honors memo_kind / memoize / spawn_limit
  bool balance_control = false;  // honors balance
  bool stage1_hook = false;      // honors stage1_hook
  bool cancel = false;           // honors SolverConfig::cancel (slice-boundary polls)
  bool memory_budget = false;    // honors SolverConfig::memory_budget_bytes
  bool honors_layout = true;     // informational: layout switches the kernel
};

// One backend's answer: the MCOS value plus execution statistics, and a
// backend-specific JSON blob (PRNA timeline, MPI communication counters;
// null for the sequential solvers) for run reports.
struct EngineResult {
  Score value = 0;
  McosStats stats;
  int threads_used = 1;  // threads (prna) or ranks (prna-mpi-sim); 1 otherwise
  obs::Json detail;      // null unless the backend has extra structure
};

// A solver implementation the engine can dispatch to. Stateless by
// contract: all per-solve state lives in the Workspace and on the stack, so
// one backend instance may be invoked concurrently from many threads
// (all_pairs_similarity does exactly this).
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  [[nodiscard]] virtual const char* description() const noexcept = 0;
  [[nodiscard]] virtual BackendCaps caps() const noexcept = 0;

  // Rejects (std::invalid_argument) configs this backend cannot honor. The
  // default implementation is caps()-driven; override for extra rules.
  virtual void validate(const SolverConfig& config) const;

  // Upper bound on the resident bytes one solve of (s1, s2) under `config`
  // will hold — what the serve layer's memory admission checks against its
  // process budget before dispatching. The default is the dense-family
  // footprint: the Θ(nm) memo table plus one live slice grid. Backends with
  // a different memory model (the 4-D references, the budgeted lean path)
  // override.
  [[nodiscard]] virtual std::uint64_t estimate_memory_bytes(
      const SecondaryStructure& s1, const SecondaryStructure& s2,
      const SolverConfig& config) const;

  // Solves MCOS(s1, s2). `workspace` provides the reusable buffers; backends
  // that manage their own memory (the references) may ignore it.
  [[nodiscard]] virtual EngineResult solve(const SecondaryStructure& s1,
                                           const SecondaryStructure& s2,
                                           const SolverConfig& config,
                                           Workspace& workspace) const = 0;
};

// The backend registry. A process-wide singleton: instance() registers the
// built-ins on first use; register_backend() adds plugins (duplicate names
// rejected). Lookups are mutex-guarded but cheap — still, resolve the
// backend once before a parallel pair loop rather than per pair.
class McosEngine {
 public:
  static McosEngine& instance();

  McosEngine(const McosEngine&) = delete;
  McosEngine& operator=(const McosEngine&) = delete;

  // Takes ownership. Throws std::invalid_argument on a duplicate name.
  void register_backend(std::unique_ptr<SolverBackend> backend);

  // nullptr when unknown.
  [[nodiscard]] const SolverBackend* find(std::string_view name) const;
  // Throws std::invalid_argument listing the registered names when unknown.
  [[nodiscard]] const SolverBackend& at(std::string_view name) const;

  // Registration order (built-ins first).
  [[nodiscard]] std::vector<const SolverBackend*> backends() const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::string names_joined(const char* separator = ", ") const;

 private:
  McosEngine();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SolverBackend>> backends_;
};

// Validates, then solves out of `workspace`, counting the solve as a reuse
// (engine.workspace_reuse) when the workspace has served a solve before and
// charging any capacity growth to engine.workspace_alloc_bytes. This is THE
// dispatch point: corpus loops call it per pair with a per-thread workspace.
EngineResult solve_with(const SolverBackend& backend, const SecondaryStructure& s1,
                        const SecondaryStructure& s2, const SolverConfig& config,
                        Workspace& workspace);

// One-shot convenience: look up `algorithm` in the registry and solve_with()
// the calling thread's pooled workspace.
EngineResult engine_solve(std::string_view algorithm, const SecondaryStructure& s1,
                          const SecondaryStructure& s2, const SolverConfig& config = {});

namespace detail {
// Defined in backends.cpp; called once from the McosEngine constructor.
void register_builtin_backends(McosEngine& engine);
}  // namespace detail

}  // namespace srna
