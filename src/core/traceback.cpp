#include "core/traceback.hpp"

#include <algorithm>
#include <string>

#include "core/detail.hpp"
#include "core/tabulate_slice.hpp"
#include "core/traceback_walk.hpp"
#include "util/assert.hpp"

namespace srna {

namespace {

class TracebackWalker {
 public:
  TracebackWalker(const SecondaryStructure& s1, const SecondaryStructure& s2,
                  const MemoTable& memo)
      : s1_(s1), s2_(s2), memo_(memo) {
    col_events_.build(s2);  // shared by every re-tabulated slice of the walk
  }

  void walk(SliceBounds bounds, std::vector<ArcMatch>& out) {
    if (bounds.empty()) return;

    // Re-tabulate this slice (grid is local so only one level is live at a
    // time — children are collected first and descended into after the grid
    // is released).
    std::vector<SliceBounds> pending;
    {
      Matrix<Score> grid;
      fill_slice_dense(s1_, s2_, col_events_, bounds, grid, SliceKernel{&kernel_scratch_},
                       [&](Pos k1, Pos /*x*/, Pos k2, Pos /*y*/) {
                         return memo_.get(k1 + 1, k2 + 1);
                       });
      // The decision kernel itself is shared with the lean traceback
      // (detail::walk_slice_path) — only the grid access differs.
      detail::walk_slice_path(
          s1_, s2_, bounds,
          [&](Pos x, Pos y) -> Score {
            if (x < bounds.lo1 || y < bounds.lo2) return 0;
            return grid(static_cast<std::size_t>(x - bounds.lo1),
                        static_cast<std::size_t>(y - bounds.lo2));
          },
          [&](Pos k1, Pos k2) { return memo_.get(k1 + 1, k2 + 1); }, out, pending);
    }  // grid released before descending

    for (const SliceBounds& child : pending) walk(child, out);
  }

 private:
  const SecondaryStructure& s1_;
  const SecondaryStructure& s2_;
  const MemoTable& memo_;
  ColumnEvents col_events_;
  // One scratch serves every fill of the walk: a fill finishes before the
  // walk descends into the children it found.
  KernelScratch kernel_scratch_;
};

}  // namespace

CommonSubstructure mcos_traceback(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                  const McosOptions& options) {
  CommonSubstructure result;
  MemoTable memo(s1.length(), s2.length(), 0);
  result.value = detail::run_srna2(s1, s2, options, result.stats, memo);

  if (s1.length() > 0 && s2.length() > 0) {
    TracebackWalker walker(s1, s2, memo);
    walker.walk(SliceBounds{0, s1.length() - 1, 0, s2.length() - 1}, result.matches);
  }

  SRNA_CHECK(static_cast<Score>(result.matches.size()) == result.value,
             "traceback recovered a different number of matches than the optimum");
  std::sort(result.matches.begin(), result.matches.end(),
            [](const ArcMatch& a, const ArcMatch& b) { return a.a1.right < b.a1.right; });
  return result;
}

SecondaryStructure CommonSubstructure::as_structure() const {
  // Collect the S1 endpoints of matched arcs, relabel them by rank, and
  // rebuild the arcs over the compacted coordinates.
  std::vector<Pos> endpoints;
  endpoints.reserve(matches.size() * 2);
  for (const ArcMatch& m : matches) {
    endpoints.push_back(m.a1.left);
    endpoints.push_back(m.a1.right);
  }
  std::sort(endpoints.begin(), endpoints.end());
  auto rank = [&](Pos p) {
    return static_cast<Pos>(std::lower_bound(endpoints.begin(), endpoints.end(), p) -
                            endpoints.begin());
  };
  std::vector<Arc> arcs;
  arcs.reserve(matches.size());
  for (const ArcMatch& m : matches) arcs.push_back(Arc{rank(m.a1.left), rank(m.a1.right)});
  return SecondaryStructure::from_arcs(static_cast<Pos>(endpoints.size()), std::move(arcs));
}

std::string validate_matches(const SecondaryStructure& s1, const SecondaryStructure& s2,
                             const std::vector<ArcMatch>& matches) {
  auto describe = [](const ArcMatch& m) {
    return "match " + std::to_string(m.a1.left) + "," + std::to_string(m.a1.right) + " <-> " +
           std::to_string(m.a2.left) + "," + std::to_string(m.a2.right);
  };

  for (const ArcMatch& m : matches) {
    if (m.a1.right >= s1.length() || s1.arc_left_of(m.a1.right) != m.a1.left)
      return describe(m) + ": first arc not in S1";
    if (m.a2.right >= s2.length() || s2.arc_left_of(m.a2.right) != m.a2.left)
      return describe(m) + ": second arc not in S2";
  }

  // Relation of two arcs in a non-crossing structure with unique endpoints:
  // -1 = a entirely before b, +1 = b entirely before a, 2 = a inside b,
  // 3 = b inside a. Matched pairs must relate identically on both sides.
  auto relation = [](const Arc& a, const Arc& b) -> int {
    if (a.right < b.left) return -1;
    if (b.right < a.left) return 1;
    if (b.nests(a)) return 2;
    if (a.nests(b)) return 3;
    return 0;  // crossing or shared endpoint — invalid here
  };

  for (std::size_t i = 0; i < matches.size(); ++i) {
    for (std::size_t j = i + 1; j < matches.size(); ++j) {
      if (matches[i].a1 == matches[j].a1 || matches[i].a2 == matches[j].a2)
        return describe(matches[i]) + " and " + describe(matches[j]) + ": arc used twice";
      const int r1 = relation(matches[i].a1, matches[j].a1);
      const int r2 = relation(matches[i].a2, matches[j].a2);
      if (r1 == 0 || r2 == 0)
        return describe(matches[i]) + " and " + describe(matches[j]) + ": arcs overlap";
      if (r1 != r2)
        return describe(matches[i]) + " and " + describe(matches[j]) +
               ": ordering differs between the two structures";
    }
  }
  return {};
}

}  // namespace srna
