// One thread team for every parallel path in the library.
//
// PRNA's stage one (both schedules, the paper's Algorithm 4 and the
// stealing extension), the mini-MPI ranks and the structure-database scans
// all start their workers here. A team is plain std::threads synchronized
// with C++20 primitives (std::barrier, atomics, mutexes), all of which
// ThreadSanitizer models exactly, so every parallel path the library ships
// can run under scripts/check_tsan.sh.
//
// Teams do not nest: inside a worker of a team of two or more, team_size()
// is 1, whatever was requested (OpenMP's rule for nested regions, where a
// team of one is not an active region either). A parallel solver called from
// a parallel scan therefore runs on the scan worker alone, and it must size
// its work split (PRNA's column ownership) from team_size(), the team it
// really gets, never from the request.
#pragma once

#include <cstddef>
#include <functional>

namespace srna {

// The worker count for a team about to start: 1 inside a worker of a team of
// two or more; otherwise `requested` when it is positive, else the number of
// CPUs in the process's affinity mask (at least 1).
[[nodiscard]] int team_size(int requested) noexcept;

// Runs worker(0) on the calling thread and worker(1) .. worker(n - 1) on new
// std::threads, joins every one of them, then rethrows the first exception a
// worker let escape (the other workers still run to completion). n >= 1;
// exactly n workers run, and n == 1 is a plain call. No worker starts until
// the whole team exists; when a thread cannot be created, none runs and the
// std::system_error propagates.
void run_team(int n, const std::function<void(std::size_t worker)>& worker);

}  // namespace srna
