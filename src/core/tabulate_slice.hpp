// TabulateSlice — the bottom-up kernel shared by SRNA1, SRNA2, PRNA and the
// traceback (paper Algorithm 2).
//
// A slice is the two-dimensional restriction of the 4-D table to fixed
// beginning positions (lo1, lo2):
//
//     slice[x][y] = F(lo1, x, lo2, y),   lo1 <= x <= hi1, lo2 <= y <= hi2.
//
// Inside a slice the recurrence needs
//     s1 = slice[x-1][y],  s2 = slice[x][y-1],  d1 = slice[k1-1][k2-1]
// and the one cross-slice term d2 = F(k1+1, x-1, k2+1, y-1), which the
// caller supplies through the `d2_of(k1, x, k2, y)` callable — a memo-table
// read for SRNA2/PRNA, a memoize-on-miss recursive spawn for SRNA1.
//
// Two layouts (DESIGN.md §4.4):
//   * dense      — tabulates every cell of the grid; paper-faithful, and the
//                  cell count is the paper's work measure (Figure 7).
//   * compressed — one cell per (arc-right-endpoint, arc-right-endpoint)
//                  event pair, exploiting that F only changes at events.
//
// There is one dense fill (DESIGN.md §4.5). The column positions where the
// dynamic case can fire (S2 arc right endpoints) are precomputed once per
// solve into a ColumnEvents table; each row decomposes into arc-match cells
// at the events plus constant fills between them — F is provably constant
// between events, and a row where no S1 arc ends is a verbatim copy of the
// row above — and the event cells of a row are evaluated in batched passes,
// vectorized at compile time. Same cells, same stats, no per-cell partner
// probe or load. The per-cell loop is retained as fill_slice_dense_reference,
// the oracle of the equivalence tests and of the perf gate
// (bench/micro_kernels --smoke).
//
// Both layouts return the slice's final value F(lo1, hi1, lo2, hi2) — the
// only value the memo table M retains ("only the last tabulated subproblem
// of each child slice needs to be memoized").
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/options.hpp"
#include "core/result.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rna/secondary_structure.hpp"
#include "util/matrix.hpp"

// Compile-time SIMD dispatch for the dense kernel (DESIGN.md §4.5).
// -DSRNA_DISABLE_SIMD forces the scalar instantiation of the same blocked
// code path — the only instantiation sanitizer builds compile
// (scripts/check_asan.sh / check_ubsan.sh / check_tsan.sh configure with it),
// so a sanitizer-clean run certifies exactly the kernel it ran.
#if !defined(SRNA_DISABLE_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#define SRNA_KERNEL_AVX2 1
#define SRNA_KERNEL_SSE2 1
#if defined(__AVX512F__)
#define SRNA_KERNEL_AVX512 1
#endif
#elif !defined(SRNA_DISABLE_SIMD) && defined(__SSE2__)
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#define SRNA_KERNEL_SSE2 1
#endif

namespace srna {

namespace detail {

// Per-cell instrumentation is off the table (the cell loop IS the paper's
// cost model), so slices are traced *sampled*: when tracing is on, one slice
// in 64 per thread gets a span and a latency-histogram observation. When
// tracing is off this is a single relaxed atomic load per slice.
inline bool slice_trace_sample() noexcept {
  if (!obs::Tracer::instance().enabled()) return false;
  thread_local std::uint32_t n = 0;
  return (n++ & 63U) == 0;
}

inline obs::Histogram& sampled_slice_histogram() {
  static obs::Histogram& hist =
      obs::Registry::instance().histogram("slice.sampled_seconds");
  return hist;
}

}  // namespace detail

struct SliceBounds {
  Pos lo1 = 0, hi1 = -1, lo2 = 0, hi2 = -1;

  [[nodiscard]] bool empty() const noexcept { return hi1 < lo1 || hi2 < lo2; }
  [[nodiscard]] Pos width() const noexcept { return hi1 - lo1 + 1; }   // rows
  [[nodiscard]] Pos height() const noexcept { return hi2 - lo2 + 1; }  // cols

  // The child slice spawned by matching arcs (k1, x) and (k2, y): the
  // intervals strictly underneath the two arcs.
  static SliceBounds under(Pos k1, Pos x, Pos k2, Pos y) noexcept {
    return SliceBounds{k1 + 1, x - 1, k2 + 1, y - 1};
  }
};

// The column-event table of S2: every position y that is an arc right
// endpoint, paired with its left endpoint k, sorted by y, plus an O(1)
// position → first-event index so a slice restriction is two array reads.
// F is constant between these events (DESIGN.md §1), so inside a slice row
// the dynamic case can only fire at them — the fact the dense kernel below
// exploits. Built once per solve (pooled in Workspace; rebuilding reuses
// capacity) and shared read-only by every slice of that solve, including
// PRNA's stage-one workers.
struct ColumnEvents {
  struct Event {
    Pos y;  // arc right endpoint (the event column)
    Pos k;  // matching left endpoint: (k, y) is an arc of S2
  };
  std::vector<Event> events;            // sorted by y
  std::vector<std::uint32_t> first_at;  // size m+1: index of first event with y >= pos

  ColumnEvents& build(const SecondaryStructure& s2) {
    const auto m = static_cast<std::size_t>(s2.length());
    events.clear();
    first_at.resize(m + 1);
    for (std::size_t y = 0; y < m; ++y) {
      first_at[y] = static_cast<std::uint32_t>(events.size());
      const Pos k = s2.arc_left_of(static_cast<Pos>(y));
      if (k >= 0) events.push_back(Event{static_cast<Pos>(y), k});
    }
    first_at[m] = static_cast<std::uint32_t>(events.size());
    return *this;
  }

  // Events with y in [lo, hi] — the columns of a slice restricted to
  // [lo, hi]. Requires 0 <= lo <= hi < m.
  [[nodiscard]] std::span<const Event> in_range(Pos lo, Pos hi) const noexcept {
    const auto begin = first_at[static_cast<std::size_t>(lo)];
    const auto end = first_at[static_cast<std::size_t>(hi) + 1];
    return std::span<const Event>(events).subspan(begin, end - begin);
  }

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return events.capacity() * sizeof(Event) + first_at.capacity() * sizeof(std::uint32_t);
  }
};

// The per-cell dense fill: one partner probe and one arc branch per cell,
// exactly the loop the paper's cost model describes. Not a fast path — kept
// as the oracle the randomized equivalence tests and the micro_kernels perf
// gate pin the dense kernel against.
template <typename D2>
void fill_slice_dense_reference(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                SliceBounds b, Matrix<Score>& grid, D2&& d2_of,
                                McosStats* stats = nullptr) {
  if (b.empty()) {
    grid.resize(0, 0);
    return;
  }
  const auto rows = static_cast<std::size_t>(b.width());
  const auto cols = static_cast<std::size_t>(b.height());
  grid.resize(rows, cols, 0);

  if (stats != nullptr) {
    ++stats->slices_tabulated;
    stats->cells_tabulated += static_cast<std::uint64_t>(rows) * cols;
  }

  for (Pos x = b.lo1; x <= b.hi1; ++x) {
    const auto r = static_cast<std::size_t>(x - b.lo1);
    Score* row = grid.row_data(r);
    const Score* up = r > 0 ? grid.row_data(r - 1) : nullptr;

    // Arc of S1 ending at x, if its left endpoint is inside the slice.
    const Pos k1 = s1.arc_left_of(x);
    const bool has_arc1 = k1 >= b.lo1;
    const Score* d1_row =
        has_arc1 && k1 - 1 >= b.lo1 ? grid.row_data(static_cast<std::size_t>(k1 - 1 - b.lo1))
                                    : nullptr;

    Score left = 0;  // slice[x][y-1], carried across the row
    for (Pos y = b.lo2; y <= b.hi2; ++y) {
      const auto c = static_cast<std::size_t>(y - b.lo2);
      Score v = up != nullptr ? std::max(up[c], left) : left;
      if (has_arc1) {
        const Pos k2 = s2.arc_left_of(y);
        if (k2 >= b.lo2) {
          const Score d1 =
              (d1_row != nullptr && k2 - 1 >= b.lo2)
                  ? d1_row[static_cast<std::size_t>(k2 - 1 - b.lo2)]
                  : 0;
          const Score d2 = d2_of(k1, x, k2, y);
          v = std::max(v, static_cast<Score>(1 + d1 + d2));
          if (stats != nullptr) ++stats->arc_match_events;
        }
      }
      row[c] = v;
      left = v;
    }
  }
}

// ---------------------------------------------------------------------------
// The dense kernel's row evaluation (DESIGN.md §4.5).
//
// Evaluated cell by cell, an arc row's events form a serial max chain:
// `v = max(up[ce], left); v = max(v, 1 + d1 + d2); left = v` is a
// loop-carried dependency through `left`. The kernel breaks the row into
// three passes over contiguous per-event arrays:
//
//   1. candidates — cand[j] = 1 + d1 + d2 for the qualifying events (the
//      memo gather), no loop-carried dependency;
//   2. combine    — a[j] = max(cand[j], up[ce_j]) (vertical max, SIMD);
//   3. reduce     — v[j] = max(a_0..a_j), an inclusive prefix max run as a
//      log-step vector scan.
//
// Row identity: v_j = max(a_0..a_j) with no seed term, because the run
// before the first event contributes up[0] <= up[ce_0] <= a_0 (rows of F
// are monotone non-decreasing left to right). Cells between events keep
// the value of the event before them.
//
// The event columns and d1 gather indices are row-invariant, so they are
// precomputed once per slice into a KernelScratch (pooled per recursion
// level in Workspace).

// Reusable per-slice buffers of the dense kernel. Pooled in Workspace
// (slice_kernel(level)); a steady-state solve allocates nothing.
struct KernelScratch {
  // d1_idx sentinels: the event qualifies with d1 = 0 (its partner arc
  // starts exactly at the slice edge), or does not qualify at all.
  static constexpr std::int32_t kZeroD1 = -1;
  static constexpr std::int32_t kSkip = -2;

  std::vector<std::uint32_t> cols;   // per event: column offset within the slice
  std::vector<std::int32_t> d1_idx;  // per event: d1 gather column, or a sentinel
  std::vector<Score> vals;           // per event: candidate -> combined -> reduced

  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return cols.capacity() * sizeof(std::uint32_t) +
           d1_idx.capacity() * sizeof(std::int32_t) + vals.capacity() * sizeof(Score);
  }
};

// A handle to the KernelScratch one dense fill works in: what
// Workspace::slice_kernel(level) hands the solvers. Few-slice callers
// (traceback, enumeration, tests) wrap a scratch of their own.
struct SliceKernel {
  KernelScratch* scratch = nullptr;
};

namespace detail {

// Row-invariant per-slice event metadata, computed once per fill call.
struct PreparedEvents {
  std::size_t count = 0;       // events inside the slice columns
  std::size_t qualifying = 0;  // events whose dynamic case can fire
  std::size_t desc_prefix = 0; // leading events whose d1 columns descend by 1
  bool contiguous = false;     // event columns are consecutive offsets
};

inline PreparedEvents prepare_kernel_events(std::span<const ColumnEvents::Event> events,
                                            Pos lo2, KernelScratch& ks) {
  PreparedEvents prep;
  prep.count = events.size();
  ks.cols.resize(prep.count);
  ks.d1_idx.resize(prep.count);
  ks.vals.resize(prep.count);
  prep.contiguous = true;
  for (std::size_t j = 0; j < prep.count; ++j) {
    const ColumnEvents::Event& e = events[j];
    const auto ce = static_cast<std::uint32_t>(e.y - lo2);
    ks.cols[j] = ce;
    if (j > 0 && ce != ks.cols[j - 1] + 1) prep.contiguous = false;
    if (e.k >= lo2) {
      ++prep.qualifying;
      ks.d1_idx[j] = e.k - 1 >= lo2 ? static_cast<std::int32_t>(e.k - 1 - lo2)
                                    : KernelScratch::kZeroD1;
    } else {
      ks.d1_idx[j] = KernelScratch::kSkip;
    }
  }
  // Nested-arc runs (the Table I worst case is one) produce d1 columns that
  // descend by exactly one: d1_idx[j] = d1_idx[0] - j while nonnegative.
  // Over that prefix the d1 reads of a row are one reversed contiguous
  // block — a plain load instead of a gather.
  if (prep.count > 0 && ks.d1_idx[0] >= 0) {
    std::size_t p = 1;
    while (p < prep.count && ks.d1_idx[p] == ks.d1_idx[0] - static_cast<std::int32_t>(p) &&
           ks.d1_idx[p] >= 0)
      ++p;
    prep.desc_prefix = p;
  }
  return prep;
}

// Candidate value of a non-qualifying event: loses every max against the
// up-row (grid values are never negative — row 0 is zero and rows are
// pointwise monotone), so the event contributes up[ce] alone, exactly as in
// the reference.
inline constexpr Score kNoCandidate = std::numeric_limits<Score>::min();

// Pass 1b: vals[j] (holding the event's d2 value) += 1 + d1, kNoCandidate
// where the event does not qualify. Over the descending prefix the d1 reads
// are one reversed contiguous load per block; the remainder is a masked
// gather on AVX2 (masked-off lanes — the kZeroD1/kSkip sentinels — touch no
// memory).
inline void apply_d1_candidates(const std::int32_t* d1_idx, std::size_t ne,
                                std::size_t desc_prefix, const Score* d1_row,
                                Score* vals) noexcept {
  std::size_t j = 0;
#if defined(SRNA_KERNEL_AVX2)
  const __m256i ones = _mm256_set1_epi32(1);
  if (d1_row != nullptr && desc_prefix >= 8) {
    const __m256i rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    const auto base = static_cast<std::size_t>(d1_idx[0]);
    for (; j + 8 <= desc_prefix; j += 8) {
      __m256i d1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(d1_row + (base - j - 7)));
      d1 = _mm256_permutevar8x32_epi32(d1, rev);
      __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + j));
      v = _mm256_add_epi32(_mm256_add_epi32(v, d1), ones);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j), v);
    }
  }
  const __m256i skip = _mm256_set1_epi32(KernelScratch::kSkip);
  const __m256i none = _mm256_set1_epi32(kNoCandidate);
  const __m256i minus1 = _mm256_set1_epi32(-1);
  for (; j + 8 <= ne; j += 8) {
    const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d1_idx + j));
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + j));
    if (d1_row != nullptr) {
      const __m256i mask = _mm256_cmpgt_epi32(idx, minus1);  // di >= 0: real d1 column
      const __m256i d1 = _mm256_mask_i32gather_epi32(
          _mm256_setzero_si256(), reinterpret_cast<const int*>(d1_row), idx, mask, 4);
      v = _mm256_add_epi32(v, d1);
    }
    v = _mm256_add_epi32(v, ones);
    v = _mm256_blendv_epi8(v, none, _mm256_cmpeq_epi32(idx, skip));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j), v);
  }
#else
  (void)desc_prefix;
#endif
  for (; j < ne; ++j) {
    const std::int32_t di = d1_idx[j];
    if (di == KernelScratch::kSkip) {
      vals[j] = kNoCandidate;
      continue;
    }
    const Score d1 =
        (d1_row != nullptr && di >= 0) ? d1_row[static_cast<std::size_t>(di)] : Score{0};
    vals[j] = static_cast<Score>(vals[j] + 1 + d1);
  }
}

// Fused pass 1b + 2 for contiguous events: a[j] = max(cand[j], up_run[j])
// in one sweep over vals, avoiding a separate combine pass. Same descending-
// prefix reversed-load fast path as apply_d1_candidates.
inline void apply_d1_up_contiguous(const std::int32_t* d1_idx, std::size_t ne,
                                   std::size_t desc_prefix, const Score* d1_row,
                                   const Score* up_run, Score* vals) noexcept {
  std::size_t j = 0;
#if defined(SRNA_KERNEL_AVX2)
  const __m256i ones = _mm256_set1_epi32(1);
  if (d1_row != nullptr && desc_prefix >= 8) {
    const __m256i rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    const auto base = static_cast<std::size_t>(d1_idx[0]);
    for (; j + 8 <= desc_prefix; j += 8) {
      __m256i d1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(d1_row + (base - j - 7)));
      d1 = _mm256_permutevar8x32_epi32(d1, rev);
      __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + j));
      v = _mm256_add_epi32(_mm256_add_epi32(v, d1), ones);
      const __m256i up = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(up_run + j));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j), _mm256_max_epi32(v, up));
    }
  }
  const __m256i skip = _mm256_set1_epi32(KernelScratch::kSkip);
  const __m256i none = _mm256_set1_epi32(kNoCandidate);
  const __m256i minus1 = _mm256_set1_epi32(-1);
  for (; j + 8 <= ne; j += 8) {
    const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d1_idx + j));
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + j));
    if (d1_row != nullptr) {
      const __m256i mask = _mm256_cmpgt_epi32(idx, minus1);
      const __m256i d1 = _mm256_mask_i32gather_epi32(
          _mm256_setzero_si256(), reinterpret_cast<const int*>(d1_row), idx, mask, 4);
      v = _mm256_add_epi32(v, d1);
    }
    v = _mm256_add_epi32(v, ones);
    v = _mm256_blendv_epi8(v, none, _mm256_cmpeq_epi32(idx, skip));
    const __m256i up = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(up_run + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j), _mm256_max_epi32(v, up));
  }
#else
  (void)desc_prefix;
#endif
  for (; j < ne; ++j) {
    const std::int32_t di = d1_idx[j];
    if (di == KernelScratch::kSkip) {
      vals[j] = up_run[j];
      continue;
    }
    const Score d1 =
        (d1_row != nullptr && di >= 0) ? d1_row[static_cast<std::size_t>(di)] : Score{0};
    vals[j] = std::max(static_cast<Score>(vals[j] + 1 + d1), up_run[j]);
  }
}

// Pass 1a: vals[j] = the event's d2 value — d2_of invoked for the same
// (k1, x, k2, y) tuples, in the same left-to-right order, as the reference;
// SRNA1's memoize-on-miss oracle depends on that. Qualification is
// row-invariant, so the all-qualify sweep is branch-free (and
// auto-vectorizes for trivial oracles).
template <typename D2>
inline void compute_event_d2(const KernelScratch& ks, const PreparedEvents& prep, Pos k1,
                             Pos x, std::span<const ColumnEvents::Event> events,
                             Score* vals, D2&& d2_of) {
  const std::size_t ne = prep.count;
  if (prep.qualifying == ne) {
    for (std::size_t j = 0; j < ne; ++j)
      vals[j] = static_cast<Score>(d2_of(k1, x, events[j].k, events[j].y));
  } else {
    for (std::size_t j = 0; j < ne; ++j)
      vals[j] = ks.d1_idx[j] == KernelScratch::kSkip
                    ? Score{0}
                    : static_cast<Score>(d2_of(k1, x, events[j].k, events[j].y));
  }
}

#if defined(SRNA_KERNEL_SSE2)
inline __m128i max_epi32_sse(__m128i a, __m128i b) noexcept {
#if defined(__SSE4_1__) || defined(SRNA_KERNEL_AVX2)
  return _mm_max_epi32(a, b);
#else
  const __m128i gt = _mm_cmpgt_epi32(a, b);
  return _mm_or_si128(_mm_and_si128(gt, a), _mm_andnot_si128(gt, b));
#endif
}
#endif

// Pass 2 (non-contiguous events): a[j] = max(a[j], up[cols[j]]) — a gather on
// AVX2, scalar otherwise.
inline void combine_up_gather(Score* vals, const Score* up, const std::uint32_t* cols,
                              std::size_t n) noexcept {
  std::size_t j = 0;
#if defined(SRNA_KERNEL_AVX2)
  for (; j + 8 <= n; j += 8) {
    const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + j));
    const __m256i b = _mm256_i32gather_epi32(reinterpret_cast<const int*>(up), idx, 4);
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j), _mm256_max_epi32(a, b));
  }
#endif
  for (; j < n; ++j) vals[j] = std::max(vals[j], up[cols[j]]);
}

// Pass 3: inclusive prefix max of src into dst (dst == src for
// in-place), returning the running maximum. Vector blocks of four with a
// log-step shift-and-max scan; zeros shifted in at the block edge are
// harmless because the inputs (already maxed with the up row) are never
// negative. Writing straight into the grid row skips the scatter copy on
// the contiguous path.
inline Score prefix_max_to(Score* dst, const Score* src, std::size_t n) noexcept {
  std::size_t j = 0;
  Score carry = 0;
#if defined(SRNA_KERNEL_AVX2)
  __m256i vcarry = _mm256_setzero_si256();
  for (; j + 8 <= n; j += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
    // In-lane log-step scan, then propagate lane 0's max into lane 1.
    x = _mm256_max_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_max_epi32(x, _mm256_slli_si256(x, 8));
    const __m256i tops = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
    x = _mm256_max_epi32(x, _mm256_permute2x128_si256(tops, tops, 0x08));  // [0, tops.lo]
    const __m256i hi = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
    const __m256i bmax = _mm256_permute2x128_si256(hi, hi, 0x11);  // broadcast block max
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j), _mm256_max_epi32(x, vcarry));
    vcarry = _mm256_max_epi32(vcarry, bmax);  // the only op on the serial chain
  }
  carry = static_cast<Score>(_mm256_extract_epi32(vcarry, 0));
#elif defined(SRNA_KERNEL_SSE2)
  __m128i vcarry = _mm_setzero_si128();
  for (; j + 4 <= n; j += 4) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j));
    x = max_epi32_sse(x, _mm_slli_si128(x, 4));
    x = max_epi32_sse(x, _mm_slli_si128(x, 8));
    x = max_epi32_sse(x, vcarry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j), x);
    vcarry = _mm_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
  }
  carry = static_cast<Score>(_mm_cvtsi128_si32(vcarry));
#endif
  for (; j < n; ++j) {
    carry = std::max(carry, src[j]);
    dst[j] = carry;
  }
  return carry;
}

#if defined(SRNA_KERNEL_AVX2)
#if defined(SRNA_KERNEL_AVX512) && defined(__GNUC__) && !defined(__clang__)
// GCC 12's -Wmaybe-uninitialized fires on the _mm512_undefined_epi32()
// pass-through inside the unmasked AVX-512 intrinsics themselves.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
// Fully fused passes 1b + 2 + 3 for the contiguous case: candidate combine,
// up-max, and the inclusive prefix-max scan in a single loop writing straight
// into the grid row. The scan's carry chain is latency-bound (a shuffle +
// permute + max per block that each iteration must wait on); folding the
// d1 loads and max work into the same loop lets them execute in that shadow
// instead of costing a separate pass over the row.
inline Score fused_candidates_scan(const std::int32_t* d1_idx, std::size_t ne,
                                   std::size_t desc_prefix, const Score* d1_row,
                                   const Score* up_run, const Score* vals,
                                   Score* out) noexcept {
  std::size_t j = 0;
  Score carry = 0;
  // The reversed-load path reads through d1_row; without one, every
  // qualifying lane's d1 term is zero and the gather branch handles that.
  const std::size_t desc = d1_row != nullptr ? desc_prefix : 0;
  const std::size_t base = desc > 0 ? static_cast<std::size_t>(d1_idx[0]) : 0;
#if defined(SRNA_KERNEL_AVX512)
  // 16-wide leg over the descending prefix. The loop is bound by the shuffle
  // port (reverse permute + the scan's lane shifts all compete for it), so
  // doubling the lane count roughly halves the shuffle ops per event.
  if (desc >= 16) {
    const __m512i ones16 = _mm512_set1_epi32(1);
    const __m512i rev16 =
        _mm512_setr_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i zero16 = _mm512_setzero_si512();
    const __m512i lane15 = _mm512_set1_epi32(15);
    __m512i vcarry16 = zero16;
    for (; j + 16 <= desc; j += 16) {
      __m512i v = _mm512_loadu_si512(vals + j);
      __m512i d1 = _mm512_loadu_si512(d1_row + (base - j - 15));
      d1 = _mm512_permutexvar_epi32(rev16, d1);
      v = _mm512_add_epi32(_mm512_add_epi32(v, d1), ones16);
      __m512i x = _mm512_max_epi32(v, _mm512_loadu_si512(up_run + j));
      x = _mm512_max_epi32(x, _mm512_alignr_epi32(x, zero16, 15));  // shift left 1
      x = _mm512_max_epi32(x, _mm512_alignr_epi32(x, zero16, 14));  // shift left 2
      x = _mm512_max_epi32(x, _mm512_alignr_epi32(x, zero16, 12));  // shift left 4
      x = _mm512_max_epi32(x, _mm512_alignr_epi32(x, zero16, 8));   // shift left 8
      const __m512i bmax = _mm512_permutexvar_epi32(lane15, x);
      _mm512_storeu_si512(out + j, _mm512_max_epi32(x, vcarry16));
      vcarry16 = _mm512_max_epi32(vcarry16, bmax);
    }
    carry = static_cast<Score>(_mm_cvtsi128_si32(_mm512_castsi512_si128(vcarry16)));
  }
#endif
  const __m256i ones = _mm256_set1_epi32(1);
  const __m256i rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  const __m256i skipv = _mm256_set1_epi32(KernelScratch::kSkip);
  const __m256i none = _mm256_set1_epi32(kNoCandidate);
  const __m256i minus1 = _mm256_set1_epi32(-1);
  __m256i vcarry = _mm256_set1_epi32(carry);
  for (; j + 8 <= ne; j += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + j));
    if (j + 8 <= desc) {
      __m256i d1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(d1_row + (base - j - 7)));
      d1 = _mm256_permutevar8x32_epi32(d1, rev);
      v = _mm256_add_epi32(_mm256_add_epi32(v, d1), ones);
    } else {
      const __m256i idx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d1_idx + j));
      if (d1_row != nullptr) {
        const __m256i mask = _mm256_cmpgt_epi32(idx, minus1);
        const __m256i d1 = _mm256_mask_i32gather_epi32(
            _mm256_setzero_si256(), reinterpret_cast<const int*>(d1_row), idx, mask, 4);
        v = _mm256_add_epi32(v, d1);
      }
      v = _mm256_add_epi32(v, ones);
      v = _mm256_blendv_epi8(v, none, _mm256_cmpeq_epi32(idx, skipv));
    }
    __m256i x = _mm256_max_epi32(v, _mm256_loadu_si256(
                                        reinterpret_cast<const __m256i*>(up_run + j)));
    x = _mm256_max_epi32(x, _mm256_slli_si256(x, 4));
    x = _mm256_max_epi32(x, _mm256_slli_si256(x, 8));
    const __m256i tops = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
    x = _mm256_max_epi32(x, _mm256_permute2x128_si256(tops, tops, 0x08));
    // The block max (last element of the in-block scan) is broadcast from
    // the PRE-carry scan so only the final max sits on the serial carry
    // chain — the shuffles execute in the next block's shadow.
    const __m256i hi = _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 3, 3));
    const __m256i bmax = _mm256_permute2x128_si256(hi, hi, 0x11);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j),
                        _mm256_max_epi32(x, vcarry));
    vcarry = _mm256_max_epi32(vcarry, bmax);
  }
  carry = static_cast<Score>(_mm256_extract_epi32(vcarry, 0));
  for (; j < ne; ++j) {
    const std::int32_t di = d1_idx[j];
    Score cand;
    if (di == KernelScratch::kSkip) {
      cand = up_run[j];
    } else {
      const Score d1 =
          (d1_row != nullptr && di >= 0) ? d1_row[static_cast<std::size_t>(di)] : Score{0};
      cand = std::max(static_cast<Score>(vals[j] + 1 + d1), up_run[j]);
    }
    carry = std::max(carry, cand);
    out[j] = carry;
  }
  return carry;
}
#if defined(SRNA_KERNEL_AVX512) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

// Writes one reduced event row back into the grid: the head run before the
// first event, the event cells, the constant runs between them, and the
// tail run.
inline void scatter_event_row(Score* row, std::size_t cols, Score head,
                              const std::uint32_t* ecols, const Score* vals,
                              std::size_t ne) noexcept {
  const std::size_t first = ecols[0];
  if (first > 0) std::fill(row, row + first, head);
  std::size_t c = first;
  for (std::size_t j = 0; j < ne; ++j) {
    const std::size_t ce = ecols[j];
    if (ce > c) std::fill(row + c, row + ce, vals[j - 1]);
    row[ce] = vals[j];
    c = ce + 1;
  }
  const std::size_t last = ecols[ne - 1];
  if (last + 1 < cols) std::fill(row + last + 1, row + cols, vals[ne - 1]);
}

}  // namespace detail

// Fills `grid` (shaped width × height) with the dense slice:
// grid(x - lo1, y - lo2) = F(lo1, x, lo2, y). Used directly by the traceback
// and enumeration, which need the whole grid, and by tabulate_slice_dense
// below. No-op for empty bounds.
//
// `col_events` must be ColumnEvents::build(s2) — computed once per solve by
// the callers, not here, so tabulating a slice costs nothing beyond its own
// cells. `kernel.scratch` must stay untouched by anything else until the
// fill returns (SRNA1's d2 spawns child fills: they use a deeper level's
// scratch).
//
// Two facts of the max-recurrence, independent of the d2 oracle, carry the
// whole kernel (DESIGN.md §4.4):
//   * a row where no S1 arc ends is a verbatim copy of the row above
//     (position x is unusable, and rows are left-to-right monotone), and
//   * within any row, F is constant between S2 events — the dynamic case
//     fires only at event columns, and between them both `up` and `left`
//     are frozen.
// Cell and arc-event accounting stay identical to the per-cell reference:
// every cell is still written, and the dynamic case is evaluated for
// exactly the same (row, column) pairs, with d2_of called in the same
// order.
template <typename D2>
void fill_slice_dense(const SecondaryStructure& s1, const SecondaryStructure& /*s2*/,
                      const ColumnEvents& col_events, SliceBounds b, Matrix<Score>& grid,
                      SliceKernel kernel, D2&& d2_of, McosStats* stats = nullptr) {
  if (b.empty()) {
    grid.resize(0, 0);
    return;
  }
  const auto rows = static_cast<std::size_t>(b.width());
  const auto cols = static_cast<std::size_t>(b.height());
  grid.reshape(rows, cols);  // every cell is written below; no zero pass
  if (stats != nullptr) {
    ++stats->slices_tabulated;
    stats->cells_tabulated += static_cast<std::uint64_t>(rows) * cols;
  }
  KernelScratch& ks = *kernel.scratch;
  const std::span<const ColumnEvents::Event> events = col_events.in_range(b.lo2, b.hi2);
  const detail::PreparedEvents prep = detail::prepare_kernel_events(events, b.lo2, ks);
  const std::size_t ne = prep.count;

  for (Pos x = b.lo1; x <= b.hi1; ++x) {
    const auto r = static_cast<std::size_t>(x - b.lo1);
    Score* row = grid.row_data(r);
    const Pos k1 = s1.arc_left_of(x);
    if (k1 < b.lo1) {
      if (r == 0) {
        std::fill(row, row + cols, Score{0});
      } else {
        const Score* up = grid.row_data(r - 1);
        std::copy(up, up + cols, row);
      }
      continue;
    }

    const Score* up = grid.row_data(r - 1);
    if (ne == 0) {  // no events: the whole row is one constant run
      std::fill(row, row + cols, up[0]);
      continue;
    }
    const Score* d1_row =
        k1 - 1 >= b.lo1 ? grid.row_data(static_cast<std::size_t>(k1 - 1 - b.lo1)) : nullptr;
    Score* vals = ks.vals.data();
    detail::compute_event_d2(ks, prep, k1, x, events, vals, d2_of);
    if (prep.contiguous) {
      // Fused pipeline: one sweep combines cand/up, the prefix scan writes
      // straight into the grid row — no separate combine or scatter copy.
      const std::size_t first = ks.cols[0];
      std::fill(row, row + first, up[0]);
#if defined(SRNA_KERNEL_AVX2)
      const Score tail = detail::fused_candidates_scan(ks.d1_idx.data(), ne, prep.desc_prefix,
                                                       d1_row, up + first, vals, row + first);
#else
      detail::apply_d1_up_contiguous(ks.d1_idx.data(), ne, prep.desc_prefix, d1_row, up + first,
                                     vals);
      const Score tail = detail::prefix_max_to(row + first, vals, ne);
#endif
      if (first + ne < cols) std::fill(row + first + ne, row + cols, tail);
    } else {
      detail::apply_d1_candidates(ks.d1_idx.data(), ne, prep.desc_prefix, d1_row, vals);
      detail::combine_up_gather(vals, up, ks.cols.data(), ne);
      (void)detail::prefix_max_to(vals, vals, ne);
      detail::scatter_event_row(row, cols, up[0], ks.cols.data(), vals, ne);
    }
    if (stats != nullptr) stats->arc_match_events += prep.qualifying;
  }
}

// Convenience overload building the column events and kernel scratch
// locally: for tests and one-off fills. The per-slice solvers pass a
// prebuilt table and pooled scratch instead — never use this form in a loop
// over slices.
template <typename D2>
void fill_slice_dense(const SecondaryStructure& s1, const SecondaryStructure& s2,
                      SliceBounds b, Matrix<Score>& grid, D2&& d2_of,
                      McosStats* stats = nullptr) {
  ColumnEvents col_events;
  col_events.build(s2);
  KernelScratch scratch;
  fill_slice_dense(s1, s2, col_events, b, grid, SliceKernel{&scratch},
                   static_cast<D2&&>(d2_of), stats);
}

// Dense TabulateSlice: fills into `scratch` (reused across calls — the
// paper's per-call allocate/deallocate without the allocator churn) and
// returns the final value. `col_events` is the per-solve ColumnEvents table,
// `kernel` the caller's pooled kernel scratch (Workspace::slice_kernel).
template <typename D2>
Score tabulate_slice_dense(const SecondaryStructure& s1, const SecondaryStructure& s2,
                           const ColumnEvents& col_events, SliceBounds b,
                           Matrix<Score>& scratch, SliceKernel kernel, D2&& d2_of,
                           McosStats* stats = nullptr) {
  if (b.empty()) {
    // An empty slice (hairpin interior) still counts as one tabulated slice:
    // SRNA2's stage one visits it and memoizes 0.
    if (stats != nullptr) ++stats->slices_tabulated;
    return 0;
  }
  obs::TraceScope span("slice", "tabulate_dense", detail::slice_trace_sample());
  if (span.active())
    span.set_args(obs::trace_args({{"rows", b.width()}, {"cols", b.height()}}));
  fill_slice_dense(s1, s2, col_events, b, scratch, kernel, static_cast<D2&&>(d2_of),
                   stats);
  if (span.active()) {
    const std::uint64_t elapsed = obs::Tracer::instance().now_us() - span.start_us();
    detail::sampled_slice_histogram().observe(static_cast<double>(elapsed) * 1e-6);
  }
  return scratch(static_cast<std::size_t>(b.width()) - 1,
                 static_cast<std::size_t>(b.height()) - 1);
}

// Convenience overload building the column events and kernel scratch
// locally (tests and one-off fills only; see fill_slice_dense).
template <typename D2>
Score tabulate_slice_dense(const SecondaryStructure& s1, const SecondaryStructure& s2,
                           SliceBounds b, Matrix<Score>& scratch, D2&& d2_of,
                           McosStats* stats = nullptr) {
  ColumnEvents col_events;
  col_events.build(s2);
  KernelScratch kernel_scratch;
  return tabulate_slice_dense(s1, s2, col_events, b, scratch, SliceKernel{&kernel_scratch},
                              static_cast<D2&&>(d2_of), stats);
}

// Reusable buffers for the compressed (event-grid) layout: one value cell
// per (arc-right-endpoint, arc-right-endpoint) event pair plus the resolved
// d1 predecessor indices. Pooled inside Workspace so repeated solves reuse
// the allocations.
struct EventScratch {
  Matrix<Score> val;                    // one cell per (row arc, col arc)
  std::vector<std::size_t> prev_row;    // per row arc: last row with right < left(arc)
  std::vector<std::size_t> prev_col;    // per col arc: last col with right < left(arc)
  std::vector<std::size_t> stack;       // nesting stack for the prev_* scans
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Reserved backing bytes — feeds the engine.workspace_alloc_bytes accounting.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return val.flat().capacity() * sizeof(Score) +
           (prev_row.capacity() + prev_col.capacity() + stack.capacity()) *
               sizeof(std::size_t);
  }
};

namespace detail {

// prev[i]: the index of the last arc a' (in `arcs`, sorted by right
// endpoint) with right(a') < left(arcs[i]) — the predecessor a d1 lookup
// resolves to — or EventScratch::kNone. Sorted-by-right order is a
// post-order of the nesting forest, so one pass with a nesting stack
// resolves every arc in amortized O(1): the stack holds the already-seen
// arcs not nested inside any later-seen arc; popping the arcs nested inside
// arcs[i] (left endpoint greater than ours — non-crossing makes that the
// containment test) leaves exactly the latest arc entirely left of arcs[i]
// on top. Every arc is pushed and popped once: O(n) total, replacing the
// per-arc binary search this used to do.
inline void fill_prev_indices(std::span<const Arc> arcs, std::vector<std::size_t>& prev,
                              std::vector<std::size_t>& stack) {
  const std::size_t n = arcs.size();
  prev.resize(n);
  stack.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Pos left = arcs[i].left;
    while (!stack.empty() && arcs[stack.back()].left > left) stack.pop_back();
    prev[i] = stack.empty() ? EventScratch::kNone : stack.back();
    stack.push_back(i);
  }
}

}  // namespace detail

// Compressed TabulateSlice over the event grid. `rows` / `cols` are the arcs
// fully inside the slice's two intervals, sorted by right endpoint (use
// ArcIndex::interior / ArcIndex::all). Returns F(lo1, hi1, lo2, hi2).
template <typename D2>
Score tabulate_slice_compressed(std::span<const Arc> rows, std::span<const Arc> cols,
                                EventScratch& scratch, D2&& d2_of,
                                McosStats* stats = nullptr) {
  const std::size_t nr = rows.size();
  const std::size_t nc = cols.size();
  if (stats != nullptr) {
    ++stats->slices_tabulated;
    stats->cells_tabulated += static_cast<std::uint64_t>(nr) * nc;
    stats->arc_match_events += static_cast<std::uint64_t>(nr) * nc;
  }
  if (nr == 0 || nc == 0) return 0;

  obs::TraceScope span("slice", "tabulate_compressed", detail::slice_trace_sample());
  if (span.active())
    span.set_args(obs::trace_args({{"rows", static_cast<std::int64_t>(nr)},
                                   {"cols", static_cast<std::int64_t>(nc)}}));

  // prev_row[r]: the last row index r' with rows[r'].right < rows[r].left —
  // the row d1 resolves to. Resolved for all rows in one amortized O(nr)
  // nesting-stack pass (see fill_prev_indices), not a per-row binary search.
  detail::fill_prev_indices(rows, scratch.prev_row, scratch.stack);
  detail::fill_prev_indices(cols, scratch.prev_col, scratch.stack);

  Matrix<Score>& val = scratch.val;
  val.resize(nr, nc, 0);
  for (std::size_t r = 0; r < nr; ++r) {
    Score* row = val.row_data(r);
    const Score* up = r > 0 ? val.row_data(r - 1) : nullptr;
    const std::size_t d1r = scratch.prev_row[r];
    const Score* d1_row = d1r != EventScratch::kNone ? val.row_data(d1r) : nullptr;
    Score left = 0;
    for (std::size_t c = 0; c < nc; ++c) {
      Score v = up != nullptr ? std::max(up[c], left) : left;
      const std::size_t d1c = scratch.prev_col[c];
      const Score d1 =
          (d1_row != nullptr && d1c != EventScratch::kNone) ? d1_row[d1c] : 0;
      const Score d2 = d2_of(rows[r].left, rows[r].right, cols[c].left, cols[c].right);
      v = std::max(v, static_cast<Score>(1 + d1 + d2));
      row[c] = v;
      left = v;
    }
  }
  if (span.active()) {
    const std::uint64_t elapsed = obs::Tracer::instance().now_us() - span.start_us();
    detail::sampled_slice_histogram().observe(static_cast<double>(elapsed) * 1e-6);
  }
  return val(nr - 1, nc - 1);
}

}  // namespace srna
