// Structure database: a named collection of secondary structures with
// directory persistence and parallel similarity search.
//
// This is the downstream-facing layer the paper's introduction motivates:
// once pairwise MCOS is fast, the useful operations are corpus-level —
// "rank everything against this query" and "give me the full similarity
// matrix" — and those parallelize trivially over pairs (independent MCOS
// instances), complementing PRNA's intra-instance parallelism.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/result.hpp"
#include "engine/engine.hpp"
#include "rna/secondary_structure.hpp"
#include "rna/sequence.hpp"
#include "util/matrix.hpp"

namespace srna {

struct DbRecord {
  std::string name;
  SecondaryStructure structure;
  std::optional<Sequence> sequence;
};

class StructureDatabase {
 public:
  StructureDatabase() = default;

  // Adds a record; names must be unique (throws std::invalid_argument). The
  // guard distinguishes a re-add of the identical structure from a genuine
  // collision (same name, different arc set) using the canonical
  // hash/equality from rna/structure_hash.hpp — the latter would silently
  // shadow the existing entry in the name index, so both throw, with the
  // collision case called out explicitly.
  void add(DbRecord record);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] const DbRecord& record(std::size_t index) const {
    return records_.at(index);
  }
  // Index of the record with this name, or npos. O(1): a name index is
  // maintained alongside the record vector.
  [[nodiscard]] std::size_t find(const std::string& name) const noexcept;
  // Index of the first record whose structure equals `s` (canonical
  // hash/equality, any name), or npos. O(1) expected: a content-hash index
  // is maintained alongside the name index. This is how corpus loaders spot
  // the same structure filed under two names.
  [[nodiscard]] std::size_t find_equivalent(const SecondaryStructure& s) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Loads every *.ct / *.bpseq file in `dir` (record name = file stem,
  // sorted for determinism). Throws on unreadable files.
  static StructureDatabase load_directory(const std::filesystem::path& dir);

  // Writes each record as <name>.ct into `dir` (created if absent).
  // Records without a sequence get a structure-consistent synthetic one.
  void save_directory(const std::filesystem::path& dir) const;

 private:
  std::vector<DbRecord> records_;
  std::unordered_map<std::string, std::size_t> name_index_;
  // Canonical structure hash -> record index; multimap because distinct
  // records may legitimately share content (same structure, two names) and,
  // rarely, distinct structures may share a hash.
  std::unordered_multimap<std::uint64_t, std::size_t> content_index_;
};

// How pairwise similarity is scored.
enum class SimilarityMetric : std::uint8_t {
  kCommonArcs,  // raw MCOS value
  kNormalized,  // 2*MCOS / (arcs_a + arcs_b), in [0, 1]; 1 for two arc-free structures
};

struct SearchOptions {
  SimilarityMetric metric = SimilarityMetric::kNormalized;
  // Worker threads for the pair loop; 0 = the CPUs in the process's
  // affinity mask.
  int threads = 0;
  // Engine backend computing each pairwise MCOS (any registered name; see
  // McosEngine). Teams do not nest (parallel/team.hpp): with a parallel
  // backend, a scan on more than one worker runs each pair solve on its scan
  // worker alone, with the same value. For intra-pair parallelism, scan with
  // threads = 1.
  std::string algorithm = "srna2";
  // Backend configuration (layout, validation, threads for `prna`, ...),
  // validated against the chosen backend before the pair loop starts.
  SolverConfig config;
};

// Full pairwise similarity matrix (symmetric; diagonal = self-similarity).
// Pairs are computed in parallel with a dynamic schedule (pair costs vary
// wildly with structure shape).
Matrix<double> all_pairs_similarity(const StructureDatabase& db,
                                    const SearchOptions& options = {});

struct QueryHit {
  std::size_t index = 0;  // into the database
  Score common_arcs = 0;
  double score = 0.0;
};

// The k most similar records to `query`, best first (ties broken by lower
// index). k = 0 returns everything ranked.
std::vector<QueryHit> query_top_k(const StructureDatabase& db, const SecondaryStructure& query,
                                  std::size_t k, const SearchOptions& options = {});

}  // namespace srna
