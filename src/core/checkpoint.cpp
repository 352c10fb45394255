#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <vector>

#include "core/memo_table.hpp"
#include "core/slice_tabulator.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace srna {

namespace {

using detail::CheckpointHeader;
using detail::CheckpointedSolver;

constexpr char kMagic[8] = {'S', 'R', 'N', 'A', 'C', 'K', 'P', '2'};

// The McosStats counters a checkpoint carries, in CheckpointHeader order.
constexpr std::uint64_t McosStats::*kCounters[] = {
    &McosStats::cells_tabulated, &McosStats::slices_tabulated, &McosStats::arc_match_events,
    &McosStats::memo_lookups,    &McosStats::memo_misses,      &McosStats::max_spawn_depth};
static_assert(std::size(kCounters) == sizeof(CheckpointHeader::counters) / sizeof(std::uint64_t));

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  }
};

// The checksum runs over the rows in file order, then over the header with
// its checksum field zeroed.
std::uint64_t finish_checksum(Fnv1a fnv, CheckpointHeader header) noexcept {
  header.checksum = 0;
  fnv.add(&header, sizeof(header));
  return fnv.h;
}

[[noreturn]] void reject(const std::string& what, const std::string& path) {
  throw std::invalid_argument("checkpoint " + what + ": " + path);
}

void write_checkpoint(const std::string& path, const SecondaryStructure& s1,
                      const SecondaryStructure& s2, std::uint64_t rows_done,
                      const McosStats& stats, const CheckpointedSolver& solver) {
  CheckpointHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.fingerprint1 = structure_fingerprint(s1);
  header.fingerprint2 = structure_fingerprint(s2);
  header.n = s1.length();
  header.m = s2.length();
  header.rows_done = rows_done;
  for (std::size_t i = 0; i < std::size(kCounters); ++i) header.counters[i] = stats.*kCounters[i];
  header.arcs2 = static_cast<std::uint64_t>(s2.arc_count());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SRNA_REQUIRE(out.good(), "cannot write checkpoint: " + tmp);
    Fnv1a fnv;
    auto put = [&](const void* data, std::size_t size) {
      fnv.add(data, size);
      out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    };
    out.seekp(sizeof(header));  // the header goes in last, once the rows are counted
    for (std::uint64_t a = 0; a < static_cast<std::uint64_t>(s1.arc_count()); ++a) {
      if (!solver.saved(a, rows_done)) continue;
      const std::span<const Score> values = solver.row(a);
      SRNA_CHECK(values.size() == header.arcs2, "checkpoint row has the wrong width");
      put(&a, sizeof(a));
      put(values.data(), values.size_bytes());
      ++header.row_count;
    }
    header.checksum = finish_checksum(fnv, header);
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    SRNA_CHECK(out.good(), "checkpoint write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path);  // atomic publish
}

// Returns the completed-row count of the checkpoint at `path` after handing
// its rows to solver.restore and its counters to `stats`; nullopt when there
// is no file. Checks in the order run_checkpointed documents.
std::optional<std::uint64_t> load_checkpoint(const std::string& path,
                                             const SecondaryStructure& s1,
                                             const SecondaryStructure& s2, McosStats& stats,
                                             const CheckpointedSolver& solver) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  CheckpointHeader header{};
  if (!in.read(reinterpret_cast<char*>(&header), sizeof(header))) reject("truncated", path);
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) reject("magic unknown", path);
  if (header.fingerprint1 != structure_fingerprint(s1) ||
      header.fingerprint2 != structure_fingerprint(s2) || header.n != s1.length() ||
      header.m != s2.length())
    reject("does not match these inputs", path);

  // Every count is bounded by the inputs before it sizes anything.
  const auto arcs1 = static_cast<std::uint64_t>(s1.arc_count());
  const auto arcs2 = static_cast<std::uint64_t>(s2.arc_count());
  if (header.arcs2 != arcs2) reject("S2 arc count does not match these inputs", path);
  if (header.row_count > arcs1) reject("row count exceeds the S1 arc count", path);
  if (header.rows_done > arcs1) reject("rows done exceeds the S1 arc count", path);
  if (solver.all_rows && header.row_count != header.rows_done)
    reject("row count differs from the completed rows", path);
  const std::uint64_t row_bytes = sizeof(std::uint64_t) + arcs2 * sizeof(Score);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size != sizeof(header) + header.row_count * row_bytes)
    reject("size does not match its row count", path);

  Fnv1a fnv;
  std::vector<char> chunk(std::size_t{1} << 16);
  for (std::uint64_t left = size - sizeof(header); left > 0;) {
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk.size()));
    if (!in.read(chunk.data(), static_cast<std::streamsize>(take))) reject("truncated", path);
    fnv.add(chunk.data(), take);
    left -= take;
  }
  if (finish_checksum(fnv, header) != header.checksum) reject("checksum mismatch", path);

  in.seekg(static_cast<std::streamoff>(sizeof(header)));
  const std::uint64_t ordinal_end = solver.all_rows ? header.rows_done : arcs1;
  const auto max_value = static_cast<Score>(std::min(arcs1, arcs2));
  std::vector<Score> values(static_cast<std::size_t>(arcs2));
  std::uint64_t next = 0;  // ordinals strictly increase
  for (std::uint64_t i = 0; i < header.row_count; ++i) {
    std::uint64_t a = 0;
    if (!in.read(reinterpret_cast<char*>(&a), sizeof(a)) ||
        !in.read(reinterpret_cast<char*>(values.data()),
                 static_cast<std::streamsize>(values.size() * sizeof(Score))))
      reject("truncated", path);
    if (a < next || a >= ordinal_end) reject("row ordinal out of range", path);
    next = a + 1;
    for (const Score v : values)
      if (v < -1 || v > max_value) reject("row value out of range", path);
    solver.restore(a, values);
  }

  for (std::size_t i = 0; i < std::size(kCounters); ++i) stats.*kCounters[i] = header.counters[i];
  return header.rows_done;
}

}  // namespace

std::uint64_t structure_fingerprint(const SecondaryStructure& s) noexcept {
  Fnv1a fnv;
  auto mix = [&](std::uint64_t v) { fnv.add(&v, sizeof(v)); };
  mix(static_cast<std::uint64_t>(s.length()));
  for (const Arc& a : s.arcs_by_right()) {
    mix(static_cast<std::uint64_t>(a.left));
    mix(static_cast<std::uint64_t>(a.right));
  }
  return fnv.h;
}

namespace detail {

CheckpointedRun run_checkpointed(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                 const CheckpointPolicy& policy, McosStats& stats,
                                 const CheckpointedSolver& solver) {
  SRNA_REQUIRE(!policy.path.empty(), "checkpoint path must be set");
  SRNA_REQUIRE(policy.every_rows >= 1, "checkpoint interval must be >= 1 row");
  CheckpointedRun run;
  run.rows_total = static_cast<std::uint64_t>(s1.arc_count());
  const std::optional<std::uint64_t> loaded = load_checkpoint(policy.path, s1, s2, stats, solver);
  run.resumed = loaded.has_value();
  const std::uint64_t first_row = loaded.value_or(0);

  // Stage one from the first incomplete row.
  WallTimer phase;
  std::uint64_t row = first_row;
  for (; row < run.rows_total; ++row) {
    if (policy.max_rows_this_run != 0 && row - first_row >= policy.max_rows_this_run) break;
    solver.tabulate_row(row);
    if ((row + 1 - first_row) % policy.every_rows == 0 && row + 1 < run.rows_total)
      write_checkpoint(policy.path, s1, s2, row + 1, stats, solver);
  }
  stats.stage1_seconds = phase.seconds();
  run.rows_done = row;
  if (row < run.rows_total) {
    // Interrupted by max_rows_this_run: persist progress and stop.
    write_checkpoint(policy.path, s1, s2, row, stats, solver);
    return run;
  }

  // Stage two and cleanup.
  phase.reset();
  run.result.value = solver.stage_two();
  stats.stage2_seconds = phase.seconds();
  run.result.stats = stats;
  run.complete = true;
  std::error_code ec;
  std::filesystem::remove(policy.path, ec);  // best effort
  return run;
}

}  // namespace detail

CheckpointedRun srna2_checkpointed(const SecondaryStructure& s1, const SecondaryStructure& s2,
                                   const McosOptions& options, const CheckpointPolicy& policy) {
  SRNA_REQUIRE(s1.is_nonpseudoknot() && s2.is_nonpseudoknot(),
               "MCOS model requires non-pseudoknot structures");

  ColumnEvents col_events;
  const SliceTabulator slices(s1, s2, col_events.build(s2), options.layout);
  const ArcIndex& idx1 = slices.arcs1();
  const ArcIndex& idx2 = slices.arcs2();
  MemoTable memo(s1.length(), s2.length(), 0);
  McosStats stats;
  auto d2_lookup = [&](Pos k1, Pos /*x*/, Pos k2, Pos /*y*/) -> Score {
    return memo.get(k1 + 1, k2 + 1);
  };
  SliceScratch scratch;

  // Stage one writes exactly the cells (arc1.left + 1, arc2.left + 1): a
  // completed row of S1 arc `a` is those cells over every S2 arc, the same
  // values under either layout.
  std::vector<Score> row_values(idx2.size());
  detail::CheckpointedSolver solver;
  solver.all_rows = true;
  solver.tabulate_row = [&](std::uint64_t a) {
    const auto row = static_cast<std::size_t>(a);
    const Pos i1 = idx1.arc(row).left + 1;
    for (std::size_t b = 0; b < idx2.size(); ++b)
      memo.set(i1, idx2.arc(b).left + 1, slices.child(row, b, scratch, d2_lookup, &stats));
  };
  solver.saved = [](std::uint64_t a, std::uint64_t done) { return a < done; };
  solver.row = [&](std::uint64_t a) -> std::span<const Score> {
    const Arc arc1 = idx1.arc(static_cast<std::size_t>(a));
    for (std::size_t b = 0; b < idx2.size(); ++b)
      row_values[b] = memo.get(arc1.left + 1, idx2.arc(b).left + 1);
    return row_values;
  };
  solver.restore = [&](std::uint64_t a, std::span<const Score> values) {
    const Arc arc1 = idx1.arc(static_cast<std::size_t>(a));
    for (std::size_t b = 0; b < idx2.size(); ++b)
      memo.set(arc1.left + 1, idx2.arc(b).left + 1, values[b]);
  };
  solver.stage_two = [&] { return slices.parent(scratch, d2_lookup, &stats); };
  return detail::run_checkpointed(s1, s2, policy, stats, solver);
}

}  // namespace srna
