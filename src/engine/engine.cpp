#include "engine/engine.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace srna {

McosOptions SolverConfig::to_mcos() const {
  McosOptions options;
  options.layout = layout;
  options.memo_kind = memo_kind;
  options.memoize = memoize;
  options.spawn_limit = spawn_limit;
  options.validate_memo = validate_memo;
  options.cancel = cancel;
  return options;
}

PrnaOptions SolverConfig::to_prna() const {
  PrnaOptions options;
  options.num_threads = threads;
  options.balance = balance;
  options.layout = layout;
  options.validate_memo = validate_memo;
  options.stage1_hook = stage1_hook;
  return options;
}

PrnaMpiOptions SolverConfig::to_prna_mpi() const {
  PrnaMpiOptions options;
  options.ranks = ranks;
  options.balance = balance;
  options.layout = layout;
  return options;
}

void SolverBackend::validate(const SolverConfig& config) const {
  const BackendCaps c = caps();
  const SolverConfig defaults;
  auto reject = [&](const char* knob) {
    obs::Registry::instance().counter("engine.validate_rejects").add();
    obs::log_warn("engine.validate_reject",
                  obs::log_fields({{"backend", obs::Json(name())},
                                   {"knob", obs::Json(knob)}}));
    throw std::invalid_argument(std::string("backend '") + name() +
                                "' does not support non-default " + knob);
  };
  if (!c.threads && config.threads != defaults.threads) reject("threads");
  if (!c.ranks && config.ranks != defaults.ranks) reject("ranks");
  if (!c.lazy_controls) {
    if (config.memo_kind != defaults.memo_kind) reject("memo_kind");
    if (config.memoize != defaults.memoize) reject("memoize");
    if (config.spawn_limit != defaults.spawn_limit) reject("spawn_limit");
  }
  if (!c.balance_control && config.balance != defaults.balance) reject("balance");
  if (!c.stage1_hook && config.stage1_hook != nullptr) reject("stage1_hook");
  if (!c.cancel && config.cancel != nullptr) reject("cancel");
  if (!c.memory_budget && config.memory_budget_bytes != defaults.memory_budget_bytes)
    reject("memory_budget_bytes");
  // layout and validate_memo are accept-and-ignore by design (BackendCaps).
}

std::uint64_t SolverBackend::estimate_memory_bytes(const SecondaryStructure& s1,
                                                   const SecondaryStructure& s2,
                                                   const SolverConfig& /*config*/) const {
  // Dense family (srna1/srna2/prna*): the Θ(nm) memo table plus one live
  // slice grid — the parent slice is the worst case at the same n × m.
  const auto nm = static_cast<std::uint64_t>(s1.length()) *
                  static_cast<std::uint64_t>(s2.length());
  return 2 * nm * sizeof(Score);
}

McosEngine& McosEngine::instance() {
  static McosEngine engine;
  return engine;
}

McosEngine::McosEngine() { detail::register_builtin_backends(*this); }

void McosEngine::register_backend(std::unique_ptr<SolverBackend> backend) {
  if (backend == nullptr) throw std::invalid_argument("null backend");
  std::lock_guard lock(mutex_);
  for (const auto& existing : backends_)
    if (std::string_view(existing->name()) == backend->name())
      throw std::invalid_argument(std::string("backend '") + backend->name() +
                                  "' is already registered");
  backends_.push_back(std::move(backend));
}

const SolverBackend* McosEngine::find(std::string_view name) const {
  std::lock_guard lock(mutex_);
  for (const auto& backend : backends_)
    if (std::string_view(backend->name()) == name) return backend.get();
  return nullptr;
}

const SolverBackend& McosEngine::at(std::string_view name) const {
  if (const SolverBackend* backend = find(name); backend != nullptr) return *backend;
  throw std::invalid_argument("unknown algorithm '" + std::string(name) +
                              "' (registered: " + names_joined() + ")");
}

std::vector<const SolverBackend*> McosEngine::backends() const {
  std::lock_guard lock(mutex_);
  std::vector<const SolverBackend*> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) out.push_back(backend.get());
  return out;
}

std::vector<std::string> McosEngine::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& backend : backends_) out.emplace_back(backend->name());
  return out;
}

std::string McosEngine::names_joined(const char* separator) const {
  std::ostringstream joined;
  bool first = true;
  for (const std::string& name : names()) {
    if (!first) joined << separator;
    joined << name;
    first = false;
  }
  return joined.str();
}

EngineResult solve_with(const SolverBackend& backend, const SecondaryStructure& s1,
                        const SecondaryStructure& s2, const SolverConfig& config,
                        Workspace& workspace) {
  backend.validate(config);
  const bool reused = workspace.solves() > 0;
  const std::size_t footprint_before = workspace.footprint_bytes();
  workspace.set_budget(static_cast<std::size_t>(config.memory_budget_bytes));
  EngineResult result = backend.solve(s1, s2, config, workspace);
  workspace.note_solve();
  auto& metrics = obs::Registry::instance();
  if (reused) metrics.counter("engine.workspace_reuse").add();
  std::size_t footprint_after = workspace.footprint_bytes();
  if (footprint_after > footprint_before)
    metrics.counter("engine.workspace_alloc_bytes").add(footprint_after - footprint_before);
  // High-watermark of any single pooled workspace — with
  // engine.workspace_pool_threads it bounds the pool's steady-state memory.
  metrics.gauge("engine.workspace_peak_bytes")
      .set_max(static_cast<double>(footprint_after));
  // Split watermarks, the memory ledger's exact view: memo table versus
  // per-slice scratch versus the per-solve event table (the paper's "M plus
  // one live slice" decomposition, plus the preprocessing state).
  metrics.gauge("engine.memo_table_bytes")
      .set_max(static_cast<double>(workspace.memo_bytes()));
  metrics.gauge("engine.slice_scratch_bytes")
      .set_max(static_cast<double>(workspace.slice_scratch_bytes()));
  metrics.gauge("engine.event_table_bytes")
      .set_max(static_cast<double>(workspace.event_table_bytes()));
  // A budgeted solve may leave the pool over budget (e.g. the lean window is
  // retained for tracebacks when driven directly): release pooled storage
  // back under the cap so concurrent budgeted workspaces stay bounded.
  if (workspace.budget() != 0 && footprint_after > workspace.budget())
    footprint_after = workspace.trim(workspace.budget());
  return result;
}

EngineResult engine_solve(std::string_view algorithm, const SecondaryStructure& s1,
                          const SecondaryStructure& s2, const SolverConfig& config) {
  return solve_with(McosEngine::instance().at(algorithm), s1, s2, config,
                    Workspace::local());
}

}  // namespace srna
