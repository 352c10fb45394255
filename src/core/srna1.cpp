// SRNA1 (paper Algorithm 1): bottom-up slice tabulation with lazy recursive
// child-slice spawning and memoize-on-miss.
//
// The slice for the full problem is tabulated bottom-up; whenever the
// dynamic case matches a pair of arcs whose child slice has not been
// memoized yet, that child is spawned — allocated, tabulated recursively in
// the same manner, memoized, and discarded. The computation order (events by
// increasing right endpoints) guarantees the spawn depth never exceeds one:
// by the time a child runs, all of *its* dynamic dependencies were already
// memoized by earlier events of the spawning slice (tested in
// tests/core/srna1_test.cpp).

#include <stdexcept>
#include <unordered_map>

#include "core/mcos.hpp"
#include "core/memo_table.hpp"
#include "core/slice_tabulator.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

namespace {

class Srna1Runner {
 public:
  Srna1Runner(const SecondaryStructure& s1, const SecondaryStructure& s2,
              const McosOptions& options, McosStats& stats, Workspace& workspace)
      : options_(options),
        stats_(stats),
        workspace_(workspace),
        memo_(workspace.memo(s1.length(), s2.length(), MemoTable::kUnset)),
        slices_(s1, s2, workspace.column_events().build(s2), options.layout) {}

  Score run();

 private:
  // d2 for either layout: memoize-on-miss spawn of the child slice under the
  // matched arcs (k1, x) and (k2, y).
  Score child_value(Pos k1, Pos x, Pos k2, Pos y, std::uint64_t depth) {
    ++stats_.memo_lookups;
    if (options_.memoize) {
      if (options_.memo_kind == MemoKind::kHashMap) {
        const std::uint64_t key = (static_cast<std::uint64_t>(k1 + 1) << 32) |
                                  static_cast<std::uint32_t>(k2 + 1);
        if (const auto it = hash_memo_.find(key); it != hash_memo_.end()) return it->second;
        ++stats_.memo_misses;
        const Score v = spawn(k1, x, k2, y, depth + 1);
        hash_memo_.emplace(key, v);
        return v;
      }
      Score& cell = memo_.ref(k1 + 1, k2 + 1);
      if (cell != MemoTable::kUnset) return cell;
      ++stats_.memo_misses;
      cell = spawn(k1, x, k2, y, depth + 1);
      return cell;
    }
    // Memoization ablation: "spawn child slices again and again" — the paper
    // notes this "is not dynamic programming at all".
    ++stats_.memo_misses;
    return spawn(k1, x, k2, y, depth + 1);
  }

  // The d2 oracle of a slice at recursion depth `depth`.
  [[nodiscard]] auto d2_fn(std::uint64_t depth) {
    return [this, depth](Pos k1, Pos x, Pos k2, Pos y) {
      return child_value(k1, x, k2, y, depth);
    };
  }

  // Algorithm 1 allocates and deallocates each slice; the workspace keys
  // slice scratch by recursion depth instead, so the parent's live slice
  // survives a child spawn and the allocations are reused across slices and
  // solves.
  Score spawn(Pos /*k1*/, Pos x, Pos /*k2*/, Pos y, std::uint64_t depth) {
    const std::size_t a = slices_.arcs1().index_of_right(x);
    const std::size_t b = slices_.arcs2().index_of_right(y);
    SRNA_CHECK(a != ArcIndex::kNoArc && b != ArcIndex::kNoArc,
               "dynamic case fired without matching arcs");
    note_spawn(depth);
    return slices_.child(a, b, workspace_.slice_scratch(depth), d2_fn(depth), &stats_);
  }

  void note_spawn(std::uint64_t depth) {
    // Slice boundary: one cancel poll per spawned slice (never per row/cell).
    if (options_.cancelled()) throw SolveCancelled();
    if (options_.slice_hook) options_.slice_hook(spawned_);
    stats_.max_spawn_depth = std::max(stats_.max_spawn_depth, depth);
    ++spawned_;
    if (options_.spawn_limit != 0 && spawned_ > options_.spawn_limit)
      throw std::runtime_error("SRNA1 spawn limit exceeded (" +
                               std::to_string(options_.spawn_limit) +
                               " slices); expected with memoize=false on dense inputs");
  }

  const McosOptions& options_;
  McosStats& stats_;
  Workspace& workspace_;
  MemoTable& memo_;
  const SliceTabulator slices_;
  std::unordered_map<std::uint64_t, Score> hash_memo_;
  std::uint64_t spawned_ = 0;
};

Score Srna1Runner::run() {
  note_spawn(0);
  return slices_.parent(workspace_.slice_scratch(0), d2_fn(0), &stats_);
}

}  // namespace

McosResult srna1(const SecondaryStructure& s1, const SecondaryStructure& s2,
                 const McosOptions& options) {
  return srna1(s1, s2, options, Workspace::local());
}

McosResult srna1(const SecondaryStructure& s1, const SecondaryStructure& s2,
                 const McosOptions& options, Workspace& workspace) {
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");
  McosResult result;
  WallTimer timer;
  {
    obs::TraceScope span("srna1", "solve");
    Srna1Runner runner(s1, s2, options, result.stats, workspace);
    result.value = runner.run();
  }
  // SRNA1 has no stage structure; report everything as stage one.
  result.stats.stage1_seconds = timer.seconds();
  bridge_stats_to_metrics("srna1", result.stats);
  return result;
}

}  // namespace srna
