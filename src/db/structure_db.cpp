#include "db/structure_db.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/workspace.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/team.hpp"
#include "rna/formats.hpp"
#include "rna/generators.hpp"
#include "rna/structure_hash.hpp"
#include "util/assert.hpp"

namespace srna {

void StructureDatabase::add(DbRecord record) {
  SRNA_REQUIRE(!record.name.empty(), "record needs a name");
  if (const std::size_t existing = find(record.name); existing != npos) {
    // Same name twice. Distinguish the harmless case (identical structure,
    // e.g. the same file loaded twice) from the dangerous one: a different
    // structure under an existing name would shadow the original in the
    // name index while both stayed searchable by index.
    const bool identical =
        StructureEq::same_structure(records_[existing].structure, record.structure);
    throw std::invalid_argument(
        identical ? "duplicate record name: " + record.name + " (identical structure)"
                  : "duplicate record name: " + record.name +
                        " names a different structure (would shadow the existing record)");
  }
  SRNA_REQUIRE(record.structure.is_nonpseudoknot(),
               "database holds non-pseudoknot structures only: " + record.name);
  name_index_.emplace(record.name, records_.size());
  content_index_.emplace(hash_structure(record.structure), records_.size());
  records_.push_back(std::move(record));
}

std::size_t StructureDatabase::find(const std::string& name) const noexcept {
  const auto it = name_index_.find(name);
  return it != name_index_.end() ? it->second : npos;
}

std::size_t StructureDatabase::find_equivalent(const SecondaryStructure& s) const noexcept {
  std::size_t best = npos;
  const auto [lo, hi] = content_index_.equal_range(hash_structure(s));
  for (auto it = lo; it != hi; ++it) {
    // Hash match is a candidate, not a proof; confirm with exact equality
    // and keep the lowest index for determinism.
    if (StructureEq::same_structure(records_[it->second].structure, s))
      best = std::min(best, it->second);
  }
  return best;
}

StructureDatabase StructureDatabase::load_directory(const std::filesystem::path& dir) {
  SRNA_REQUIRE(std::filesystem::is_directory(dir),
               "not a directory: " + dir.string());
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext == ".ct" || ext == ".bpseq") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  StructureDatabase db;
  for (const auto& path : files) {
    AnnotatedStructure rec = read_structure_file(path.string());
    db.add(DbRecord{path.stem().string(), std::move(rec.structure), std::move(rec.sequence)});
  }
  return db;
}

void StructureDatabase::save_directory(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  for (const DbRecord& rec : records_) {
    AnnotatedStructure out;
    out.title = rec.name;
    out.structure = rec.structure;
    out.sequence = rec.sequence ? *rec.sequence : sequence_for_structure(rec.structure, 1);
    write_structure_file((dir / (rec.name + ".ct")).string(), out);
  }
}

namespace {

double score_pair(Score common, const SecondaryStructure& a, const SecondaryStructure& b,
                  SimilarityMetric metric) {
  switch (metric) {
    case SimilarityMetric::kCommonArcs: return static_cast<double>(common);
    case SimilarityMetric::kNormalized: {
      const double denom = static_cast<double>(a.arc_count() + b.arc_count());
      return denom > 0 ? 2.0 * static_cast<double>(common) / denom : 1.0;
    }
  }
  return 0.0;
}

// Runs body(i) for every i < count on a team of team_size(threads) workers.
// Each worker claims the next index from one shared counter, a dynamic
// schedule for wildly uneven pair costs. The first exception a body throws
// stops further claims and is rethrown after the join.
template <typename Body>
void for_each_claimed(std::size_t count, int threads, const Body& body) {
  std::atomic<std::size_t> next{0};
  const int team = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(team_size(threads)),
                            std::max<std::size_t>(count, 1)));
  run_team(team, [&](std::size_t /*worker*/) {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        body(i);
      } catch (...) {
        next = count;
        throw;
      }
    }
  });
}

}  // namespace

Matrix<double> all_pairs_similarity(const StructureDatabase& db, const SearchOptions& options) {
  const std::size_t n = db.size();
  Matrix<double> out(n, n, 0.0);

  // Diagonal: self-similarity (1.0 normalized, arc count raw).
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = db.record(i).structure;
    out(i, i) = options.metric == SimilarityMetric::kNormalized
                    ? 1.0
                    : static_cast<double>(s.arc_count());
  }

  // Strict upper triangle, flattened so the team can claim pairs one at a
  // time.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);

  obs::Counter& pairs_counter = obs::Registry::instance().counter("db.pairs_compared");
  // Resolve the backend once; registry lookups lock and the loop must not.
  const SolverBackend& backend = McosEngine::instance().at(options.algorithm);
  backend.validate(options.config);
  for_each_claimed(pairs.size(), options.threads, [&](std::size_t t) {
    const auto [i, j] = pairs[t];
    obs::TraceScope span("db", "pair");
    if (span.active())
      span.set_args(obs::trace_args({{"i", static_cast<std::int64_t>(i)},
                                     {"j", static_cast<std::int64_t>(j)}}));
    const auto& a = db.record(i).structure;
    const auto& b = db.record(j).structure;
    // Each worker solves out of its own pooled workspace: after the first
    // pair, a steady-state solve allocates nothing.
    const Score common = solve_with(backend, a, b, options.config, Workspace::local()).value;
    const double score = score_pair(common, a, b, options.metric);
    out(i, j) = score;
    out(j, i) = score;
    pairs_counter.add();
  });
  return out;
}

std::vector<QueryHit> query_top_k(const StructureDatabase& db, const SecondaryStructure& query,
                                  std::size_t k, const SearchOptions& options) {
  SRNA_REQUIRE(query.is_nonpseudoknot(), "query must be non-pseudoknot");
  std::vector<QueryHit> hits(db.size());

  obs::Registry::instance().counter("db.queries").add();
  obs::Counter& candidates_counter =
      obs::Registry::instance().counter("db.query_candidates");
  const SolverBackend& backend = McosEngine::instance().at(options.algorithm);
  backend.validate(options.config);
  for_each_claimed(db.size(), options.threads, [&](std::size_t i) {
    obs::TraceScope span("db", "query_candidate");
    if (span.active())
      span.set_args(obs::trace_args({{"candidate", static_cast<std::int64_t>(i)}}));
    const auto& candidate = db.record(i).structure;
    const Score common =
        solve_with(backend, query, candidate, options.config, Workspace::local()).value;
    hits[i] = QueryHit{i, common, score_pair(common, query, candidate, options.metric)};
    candidates_counter.add();
  });

  // Deterministic ranking: score descending, index ascending on ties. Only
  // the leading k need full ordering, so rank with partial_sort when k cuts
  // the list (Θ(n log k) instead of Θ(n log n) — the common top-k query
  // barely touches the tail).
  const auto better = [](const QueryHit& a, const QueryHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  };
  if (k > 0 && hits.size() > k) {
    std::partial_sort(hits.begin(), hits.begin() + static_cast<std::ptrdiff_t>(k),
                      hits.end(), better);
    hits.resize(k);
  } else {
    std::sort(hits.begin(), hits.end(), better);
  }
  return hits;
}

}  // namespace srna
