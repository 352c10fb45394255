#include "core/enumerate.hpp"

#include <algorithm>
#include <set>

#include "core/detail.hpp"
#include "core/tabulate_slice.hpp"
#include "util/assert.hpp"

namespace srna {

namespace {

using MatchSet = std::vector<ArcMatch>;

bool match_less(const ArcMatch& a, const ArcMatch& b) {
  if (a.a1 != b.a1) return a.a1 < b.a1;
  return a.a2 < b.a2;
}

MatchSet normalized(MatchSet set) {
  std::sort(set.begin(), set.end(), match_less);
  return set;
}

bool set_less(const MatchSet& a, const MatchSet& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(), match_less);
}

class Enumerator {
 public:
  Enumerator(const SecondaryStructure& s1, const SecondaryStructure& s2, const MemoTable& memo,
             std::size_t limit)
      : s1_(s1), s2_(s2), memo_(memo), limit_(limit) {
    col_events_.build(s2);  // shared by every re-tabulated slice
  }

  // All distinct match sets achieving the optimum of the slice over
  // `bounds` (capped at limit_; sets truncated_ when capped anywhere).
  std::vector<MatchSet> enumerate_slice(SliceBounds bounds) {
    std::vector<MatchSet> out;
    if (bounds.empty()) {
      out.push_back({});
      return out;
    }
    Matrix<Score> grid;
    fill_slice_dense(s1_, s2_, col_events_, bounds, grid, SliceKernel{&kernel_scratch_},
                     [&](Pos k1, Pos, Pos k2, Pos) { return memo_.get(k1 + 1, k2 + 1); });

    std::set<MatchSet, bool (*)(const MatchSet&, const MatchSet&)> dedup(set_less);
    collect_cell(bounds, grid, bounds.hi1, bounds.hi2, {}, dedup);
    out.assign(dedup.begin(), dedup.end());
    return out;
  }

  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

 private:
  Score get(const SliceBounds& b, const Matrix<Score>& grid, Pos x, Pos y) const {
    if (x < b.lo1 || y < b.lo2) return 0;
    return grid(static_cast<std::size_t>(x - b.lo1), static_cast<std::size_t>(y - b.lo2));
  }

  // Explores every decision that reproduces the value at (x, y), carrying
  // the matches accumulated so far in this slice (`prefix`).
  //
  // Rather than walking single static moves (which revisits the same
  // decision through exponentially many monotone lattice paths), scan the
  // whole equal-value region {(x', y') <= (x, y) : g(x', y') == v} once and
  // branch on every cell where the dynamic case produces v. Because g is
  // monotone in both coordinates, the equal-value y' of each row form a
  // contiguous suffix, so the scan early-exits rows cheaply.
  void collect_cell(const SliceBounds& b, const Matrix<Score>& grid, Pos x, Pos y,
                    const MatchSet& prefix,
                    std::set<MatchSet, bool (*)(const MatchSet&, const MatchSet&)>& dedup) {
    if (dedup.size() >= limit_) {
      truncated_ = true;
      return;
    }
    const Score v = get(b, grid, x, y);
    if (v == 0) {
      dedup.insert(normalized(prefix));
      return;
    }

    for (Pos xx = x; xx >= b.lo1; --xx) {
      if (get(b, grid, xx, y) < v) break;  // rows further left only shrink
      const Pos k1 = s1_.arc_left_of(xx);
      if (k1 < b.lo1) continue;
      for (Pos yy = y; yy >= b.lo2; --yy) {
        if (get(b, grid, xx, yy) < v) break;  // contiguous suffix in y
        const Pos k2 = s2_.arc_left_of(yy);
        if (k2 < b.lo2) continue;
        const Score d1 = get(b, grid, k1 - 1, k2 - 1);
        const Score d2 = memo_.get(k1 + 1, k2 + 1);
        if (v != 1 + d1 + d2) continue;

        // Every witness of the child slice × continuing before the arcs.
        const std::vector<MatchSet> child_sets =
            enumerate_slice(SliceBounds::under(k1, xx, k2, yy));
        for (const MatchSet& child : child_sets) {
          if (dedup.size() >= limit_) {
            truncated_ = true;
            return;
          }
          MatchSet extended = prefix;
          extended.push_back(ArcMatch{Arc{k1, xx}, Arc{k2, yy}});
          extended.insert(extended.end(), child.begin(), child.end());
          collect_cell(b, grid, k1 - 1, k2 - 1, extended, dedup);
        }
      }
    }
  }

  const SecondaryStructure& s1_;
  const SecondaryStructure& s2_;
  const MemoTable& memo_;
  ColumnEvents col_events_;
  // One scratch serves every fill: a fill finishes before collect_cell
  // recurses into child slices.
  KernelScratch kernel_scratch_;
  std::size_t limit_;
  bool truncated_ = false;
};

}  // namespace

std::vector<ArcMatch> EnumerationResult::persistent_matches() const {
  std::vector<ArcMatch> core;
  if (witnesses.empty()) return core;
  core = witnesses.front();
  for (std::size_t i = 1; i < witnesses.size() && !core.empty(); ++i) {
    std::vector<ArcMatch> kept;
    for (const ArcMatch& m : core)
      if (std::find(witnesses[i].begin(), witnesses[i].end(), m) != witnesses[i].end())
        kept.push_back(m);
    core = std::move(kept);
  }
  return core;
}

EnumerationResult enumerate_optimal_matches(const SecondaryStructure& s1,
                                            const SecondaryStructure& s2, std::size_t limit,
                                            const McosOptions& options) {
  SRNA_REQUIRE(limit >= 1, "witness limit must be at least 1");
  EnumerationResult result;
  MemoTable memo(s1.length(), s2.length(), 0);
  McosStats stats;
  result.value = detail::run_srna2(s1, s2, options, stats, memo);

  if (s1.length() == 0 || s2.length() == 0) {
    result.witnesses.push_back({});
    return result;
  }

  Enumerator enumerator(s1, s2, memo, limit);
  result.witnesses =
      enumerator.enumerate_slice(SliceBounds{0, s1.length() - 1, 0, s2.length() - 1});
  result.truncated = enumerator.truncated();

  for (const MatchSet& w : result.witnesses)
    SRNA_CHECK(static_cast<Score>(w.size()) == result.value,
               "enumerated witness has non-optimal size");
  return result;
}

}  // namespace srna
