#include "core/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/arc_index.hpp"
#include "core/memo_table.hpp"
#include "core/tabulate_slice.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

namespace {

constexpr char kMagic[8] = {'S', 'R', 'N', 'A', '2', 'C', 'K', '1'};

struct Header {
  char magic[8];
  std::uint64_t fingerprint1;
  std::uint64_t fingerprint2;
  std::int64_t n;
  std::int64_t m;
  std::uint64_t rows_done;
  std::uint64_t cells_tabulated;
  std::uint64_t slices_tabulated;
  std::uint64_t arc_match_events;
};

void write_checkpoint(const std::string& path, const Header& header, const MemoTable& memo) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SRNA_REQUIRE(out.good(), "cannot write checkpoint: " + tmp);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    const auto& flat = memo.matrix().flat();
    out.write(reinterpret_cast<const char*>(flat.data()),
              static_cast<std::streamsize>(flat.size() * sizeof(Score)));
    SRNA_CHECK(out.good(), "checkpoint write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path);  // atomic publish
}

// Returns true when a valid, matching checkpoint was loaded.
bool load_checkpoint(const std::string& path, const Header& expected, Header& header,
                     MemoTable& memo) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  if (!in.read(reinterpret_cast<char*>(&header), sizeof(header)))
    throw std::invalid_argument("checkpoint truncated: " + path);
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0)
    throw std::invalid_argument("not an SRNA2 checkpoint: " + path);
  if (header.fingerprint1 != expected.fingerprint1 ||
      header.fingerprint2 != expected.fingerprint2 || header.n != expected.n ||
      header.m != expected.m)
    throw std::invalid_argument("checkpoint does not match these inputs: " + path);

  auto& flat = memo.matrix_mutable().flat();
  if (!in.read(reinterpret_cast<char*>(flat.data()),
               static_cast<std::streamsize>(flat.size() * sizeof(Score))))
    throw std::invalid_argument("checkpoint memo table truncated: " + path);
  return true;
}

}  // namespace

std::uint64_t structure_fingerprint(const SecondaryStructure& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  auto mix = [&](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(s.length()));
  for (const Arc& a : s.arcs_by_right()) {
    mix(static_cast<std::uint64_t>(a.left));
    mix(static_cast<std::uint64_t>(a.right));
  }
  return h;
}

CheckpointedRun srna2_checkpointed(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                   const McosOptions& options, const CheckpointPolicy& policy) {
  SRNA_REQUIRE(!policy.path.empty(), "checkpoint path must be set");
  SRNA_REQUIRE(policy.every_rows >= 1, "checkpoint interval must be >= 1 row");
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");
  SRNA_REQUIRE(options.layout == SliceLayout::kDense,
               "checkpointing currently supports the dense layout");

  CheckpointedRun run;
  const ArcIndex idx1(s1);
  const ArcIndex idx2(s2);
  run.rows_total = idx1.size();

  Header expected{};
  std::memcpy(expected.magic, kMagic, sizeof(kMagic));
  expected.fingerprint1 = structure_fingerprint(s1);
  expected.fingerprint2 = structure_fingerprint(s2);
  expected.n = s1.length();
  expected.m = s2.length();

  MemoTable memo(s1.length(), s2.length(), 0);
  McosStats stats;
  std::uint64_t first_row = 0;

  Header loaded{};
  if (load_checkpoint(policy.path, expected, loaded, memo)) {
    run.resumed = true;
    first_row = loaded.rows_done;
    stats.cells_tabulated = loaded.cells_tabulated;
    stats.slices_tabulated = loaded.slices_tabulated;
    stats.arc_match_events = loaded.arc_match_events;
    SRNA_REQUIRE(first_row <= run.rows_total, "checkpoint row count out of range");
  }

  auto d2_lookup = [&](Pos k1, Pos /*x*/, Pos k2, Pos /*y*/) -> Score {
    return memo.get(k1 + 1, k2 + 1);
  };

  // Stage one from the first incomplete row.
  WallTimer phase;
  Matrix<Score> scratch;
  ColumnEvents col_events;
  col_events.build(s2);
  KernelScratch kernel_scratch;
  const SliceKernel kernel{&kernel_scratch};
  std::uint64_t rows_this_run = 0;
  std::uint64_t row = first_row;
  for (; row < run.rows_total; ++row) {
    if (policy.max_rows_this_run != 0 && rows_this_run >= policy.max_rows_this_run) break;
    const Arc arc1 = idx1.arc(row);
    for (std::size_t b = 0; b < idx2.size(); ++b) {
      const Arc arc2 = idx2.arc(b);
      const Score value = tabulate_slice_dense(
          s1, s2, col_events,
          SliceBounds::under(arc1.left, arc1.right, arc2.left, arc2.right), scratch,
          kernel, d2_lookup, &stats);
      memo.set(arc1.left + 1, arc2.left + 1, value);
    }
    ++rows_this_run;
    if ((row + 1 - first_row) % policy.every_rows == 0 && row + 1 < run.rows_total) {
      Header header = expected;
      header.rows_done = row + 1;
      header.cells_tabulated = stats.cells_tabulated;
      header.slices_tabulated = stats.slices_tabulated;
      header.arc_match_events = stats.arc_match_events;
      write_checkpoint(policy.path, header, memo);
    }
  }
  stats.stage1_seconds = phase.seconds();
  run.rows_done = row;

  if (row < run.rows_total) {
    // Interrupted by max_rows_this_run: persist progress and stop.
    Header header = expected;
    header.rows_done = row;
    header.cells_tabulated = stats.cells_tabulated;
    header.slices_tabulated = stats.slices_tabulated;
    header.arc_match_events = stats.arc_match_events;
    write_checkpoint(policy.path, header, memo);
    run.complete = false;
    return run;
  }

  // Stage two and cleanup.
  phase.reset();
  run.result.value =
      tabulate_slice_dense(s1, s2, col_events,
                           SliceBounds{0, s1.length() - 1, 0, s2.length() - 1}, scratch,
                           kernel, d2_lookup, &stats);
  stats.stage2_seconds = phase.seconds();
  run.result.stats = stats;
  run.complete = true;
  std::error_code ec;
  std::filesystem::remove(policy.path, ec);  // best effort
  return run;
}

}  // namespace srna
