#include "core/workspace.hpp"

#include "obs/metrics.hpp"

namespace srna {

std::size_t Workspace::trim(std::size_t max_bytes) {
  const std::size_t before = footprint_bytes();
  while (footprint_bytes() > max_bytes && !dense_grids_.empty()) dense_grids_.pop_back();
  while (footprint_bytes() > max_bytes && !events_.empty()) events_.pop_back();
  while (footprint_bytes() > max_bytes && !lean_scratch_.empty()) lean_scratch_.pop_back();
  while (footprint_bytes() > max_bytes && !kernel_scratch_.empty()) kernel_scratch_.pop_back();
  if (footprint_bytes() > max_bytes) lean_store_.release();
  if (footprint_bytes() > max_bytes) column_events_ = ColumnEvents{};
  if (footprint_bytes() > max_bytes) memo_ = MemoTable{};
  const std::size_t after = footprint_bytes();
  if (after < before) obs::Registry::instance().counter("engine.workspace_trims").add();
  return after;
}

Workspace& Workspace::local() {
  // The once-per-thread counter bump sizes the pool: how many thread-local
  // workspaces exist process-wide (each holds its peak footprint until the
  // thread exits). Run reports and the admin endpoint surface it next to
  // engine.workspace_peak_bytes.
  thread_local Workspace workspace;
  thread_local const bool counted = [] {
    obs::Registry::instance().counter("engine.workspace_pool_threads").add();
    return true;
  }();
  (void)counted;
  return workspace;
}

}  // namespace srna
