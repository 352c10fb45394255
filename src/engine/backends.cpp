// The built-in SolverBackend implementations: thin adapters from the
// unified SolverConfig onto the solver-native entry points. Registered
// explicitly from the McosEngine constructor (static-init self-registration
// would be dead-stripped out of the static-library link).

#include <memory>
#include <stdexcept>

#include "core/mcos.hpp"
#include "core/srna_lean.hpp"
#include "engine/engine.hpp"
#include "parallel/prna.hpp"
#include "parallel/prna_mpi.hpp"

namespace srna {

namespace {

EngineResult from_mcos(McosResult&& r) {
  EngineResult out;
  out.value = r.value;
  out.stats = r.stats;
  return out;
}

// The 4-D references memoize over interval pairs: ~(n²/2)·(m²/2) cells. This
// is exactly why the serve layer's memory admission exists — asking a
// reference for a genome-scale pair must be rejected up front.
std::uint64_t reference_estimate(const SecondaryStructure& s1, const SecondaryStructure& s2) {
  const auto n = static_cast<std::uint64_t>(s1.length());
  const auto m = static_cast<std::uint64_t>(s2.length());
  return n * n * m * m / 4 * sizeof(Score);
}

class Srna1Backend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "srna1"; }
  const char* description() const noexcept override {
    return "lazy slice tabulation with memoize-on-miss spawning (Algorithm 1)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.lazy_controls = true;
    c.cancel = true;
    return c;
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& config, Workspace& workspace) const override {
    return from_mcos(srna1(s1, s2, config.to_mcos(), workspace));
  }
};

class Srna2Backend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "srna2"; }
  const char* description() const noexcept override {
    return "two-stage eager slice tabulation (Algorithms 2-3)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.cancel = true;
    return c;
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& config, Workspace& workspace) const override {
    return from_mcos(srna2(s1, s2, config.to_mcos(), workspace));
  }
};

class SrnaLeanBackend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "srna-lean"; }
  const char* description() const noexcept override {
    return "space-lean SRNA2: windowed memo store + streamed slices under a "
           "byte budget (long sequences)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.cancel = true;
    c.memory_budget = true;
    return c;
  }
  std::uint64_t estimate_memory_bytes(const SecondaryStructure& s1,
                                      const SecondaryStructure& s2,
                                      const SolverConfig& config) const override {
    const std::uint64_t floor = lean_minimum_bytes(s1, s2);
    if (config.memory_budget_bytes != 0)
      // The solver holds the budget (validated against the floor at entry).
      return std::max<std::uint64_t>(config.memory_budget_bytes, floor);
    // Unbudgeted: the window can grow to one cell per arc pair.
    return floor + static_cast<std::uint64_t>(s1.arc_count()) *
                       static_cast<std::uint64_t>(s2.arc_count()) * sizeof(Score);
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& config, Workspace& workspace) const override {
    LeanOptions options;
    options.base = config.to_mcos();
    options.memory_budget_bytes = config.memory_budget_bytes;
    return from_mcos(srna_lean(s1, s2, options, workspace));
  }
};

class PrnaBackend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "prna"; }
  const char* description() const noexcept override {
    return "shared-memory parallel SRNA2 with per-row barriers (Algorithm 4, thread team)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.threads = true;
    c.balance_control = true;
    c.stage1_hook = true;
    return c;
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& config, Workspace& workspace) const override {
    PrnaResult r = prna(s1, s2, config.to_prna(), workspace);
    EngineResult out;
    out.value = r.value;
    out.stats = r.stats;
    out.threads_used = r.threads_used;
    out.detail = r.to_json();
    return out;
  }
};

class PrnaStealBackend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "prna-steal"; }
  const char* description() const noexcept override {
    return "barrier-free parallel SRNA2: dependency-counting scheduler with "
           "work-stealing deques";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.threads = true;
    // No balance_control: the stealing schedule has no static column
    // ownership to balance.
    c.stage1_hook = true;
    return c;
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& config, Workspace& workspace) const override {
    PrnaOptions options = config.to_prna();
    options.schedule = PrnaSchedule::kStealing;
    PrnaResult r = prna(s1, s2, options, workspace);
    EngineResult out;
    out.value = r.value;
    out.stats = r.stats;
    out.threads_used = r.threads_used;
    out.detail = r.to_json();
    return out;
  }
};

class PrnaMpiSimBackend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "prna-mpi-sim"; }
  const char* description() const noexcept override {
    return "Algorithm 4 over the mini-MPI substrate (replicated memo, per-row Allreduce)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.ranks = true;
    c.balance_control = true;
    return c;
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& config, Workspace& /*workspace*/) const override {
    // The replicated-memo design is the point: every rank owns its own table,
    // so the shared workspace does not apply.
    PrnaMpiResult r = prna_mpi(s1, s2, config.to_prna_mpi());
    EngineResult out;
    out.value = r.value;
    out.stats = r.stats;
    out.threads_used = r.ranks;
    obs::Json detail = obs::Json::object();
    detail.set("ranks", obs::Json(static_cast<std::int64_t>(r.ranks)));
    detail.set("allreduce_bytes", obs::Json(r.allreduce_bytes()));
    obs::Json cells = obs::Json::array();
    for (const std::uint64_t c : r.cells_per_rank) cells.push(obs::Json(c));
    detail.set("cells_per_rank", std::move(cells));
    out.detail = std::move(detail);
    return out;
  }
};

class TopDownBackend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "topdown"; }
  const char* description() const noexcept override {
    return "memoized top-down 4-D reference (ground truth; small inputs)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.honors_layout = false;  // accept-and-ignore: no slice kernel to switch
    return c;
  }
  std::uint64_t estimate_memory_bytes(const SecondaryStructure& s1,
                                      const SecondaryStructure& s2,
                                      const SolverConfig& /*config*/) const override {
    return reference_estimate(s1, s2);
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& /*config*/, Workspace& /*workspace*/) const override {
    return from_mcos(mcos_reference_topdown(s1, s2));
  }
};

class BottomUpBackend final : public SolverBackend {
 public:
  const char* name() const noexcept override { return "bottomup"; }
  const char* description() const noexcept override {
    return "full bottom-up 4-D tabulation (over-tabulating baseline; small inputs)";
  }
  BackendCaps caps() const noexcept override {
    BackendCaps c;
    c.honors_layout = false;
    return c;
  }
  std::uint64_t estimate_memory_bytes(const SecondaryStructure& s1,
                                      const SecondaryStructure& s2,
                                      const SolverConfig& /*config*/) const override {
    return reference_estimate(s1, s2);
  }
  EngineResult solve(const SecondaryStructure& s1, const SecondaryStructure& s2,
                     const SolverConfig& /*config*/, Workspace& /*workspace*/) const override {
    return from_mcos(mcos_reference_bottomup(s1, s2));
  }
};

}  // namespace

namespace detail {

void register_builtin_backends(McosEngine& engine) {
  engine.register_backend(std::make_unique<Srna1Backend>());
  engine.register_backend(std::make_unique<Srna2Backend>());
  engine.register_backend(std::make_unique<PrnaBackend>());
  engine.register_backend(std::make_unique<PrnaMpiSimBackend>());
  engine.register_backend(std::make_unique<TopDownBackend>());
  engine.register_backend(std::make_unique<BottomUpBackend>());
  engine.register_backend(std::make_unique<PrnaStealBackend>());
  engine.register_backend(std::make_unique<SrnaLeanBackend>());
}

}  // namespace detail

}  // namespace srna
