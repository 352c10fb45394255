#include "cli_app.hpp"

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "align/anchored_alignment.hpp"
#include "core/traceback.hpp"
#include "core/weighted.hpp"
#include "db/structure_db.hpp"
#include "engine/engine.hpp"
#include "obs/session.hpp"
#include "rna/arc_diagram.hpp"
#include "rna/dot_bracket.hpp"
#include "rna/formats.hpp"
#include "rna/generators.hpp"
#include "rna/loops.hpp"
#include "rna/mfe_fold.hpp"
#include "rna/nussinov.hpp"
#include "rna/structure_stats.hpp"
#include "rna/svg_diagram.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace srna::tools {

namespace {

struct LoadedStructure {
  SecondaryStructure structure;
  std::optional<Sequence> sequence;
  std::string origin;
};

// True when `spec` names an existing file. The error_code overload: a
// literal longer than NAME_MAX is simply not a file, where the throwing
// overload would abort the command.
bool names_file(const std::string& spec) {
  std::error_code ec;
  return std::filesystem::exists(spec, ec);
}

// A structure argument is a file path when it names an existing file or has
// a structure-file extension; otherwise it is parsed as dot-bracket.
// Pseudoknots are allowed here — show/validate/convert inspect knotted
// structures, and the commands that cannot handle them (compare, search)
// reject with the solver's own precondition message.
LoadedStructure load_structure(const std::string& spec) {
  const bool looks_like_file =
      names_file(spec) || spec.ends_with(".ct") || spec.ends_with(".bpseq");
  if (looks_like_file) {
    ParseOptions permissive;
    permissive.allow_pseudoknots = true;
    AnnotatedStructure rec = read_structure_file(spec, permissive);
    return LoadedStructure{std::move(rec.structure), std::move(rec.sequence), spec};
  }
  return LoadedStructure{parse_dot_bracket(spec), std::nullopt, "dot-bracket literal"};
}

int cmd_compare(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna compare", "MCOS between two structures");
  cli.add_option("algorithm", McosEngine::instance().names_joined(" | "), "srna2");
  cli.add_option("layout", "dense | compressed", "dense");
  cli.add_option("threads", "parallel stage one with this many threads (0 = sequential)", "0");
  cli.add_option("memory-budget",
                 "resident solver byte cap (srna-lean; 0 = unlimited)", "0");
  cli.add_flag("traceback", "print the matched arc pairs");
  cli.add_flag("weighted", "Bafna-style weighted similarity (uses sequences when available)");
  cli.add_flag("stats", "print solver statistics");
  obs::ObsSession::add_cli_options(cli);
  std::vector<const char*> argv{"srna-compare"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 2) {
    err << "compare needs exactly two structures (file or dot-bracket)\n";
    return 2;
  }

  obs::ObsSession session(obs::ObsSession::paths_from_cli(cli), "srna compare");

  const LoadedStructure a = load_structure(cli.positional()[0]);
  const LoadedStructure b = load_structure(cli.positional()[1]);

  SolverConfig config;
  if (cli.str("layout") == "compressed") config.layout = SliceLayout::kCompressed;
  config.memory_budget_bytes = static_cast<std::uint64_t>(cli.integer("memory-budget"));

  if (cli.flag("weighted")) {
    const Sequence* s1 = a.sequence && b.sequence ? &*a.sequence : nullptr;
    const Sequence* s2 = a.sequence && b.sequence ? &*b.sequence : nullptr;
    const auto r = weighted_similarity(a.structure, b.structure, {}, s1, s2);
    out << "weighted similarity: " << r.value
        << (s1 != nullptr ? "  (with sequences)\n" : "  (structures only)\n");
    return 0;
  }

  const int threads = static_cast<int>(cli.integer("threads"));
  // Back-compat: --threads=N selects the parallel backend, exactly as the
  // pre-engine CLI did.
  std::string algorithm = cli.str("algorithm");
  if (threads > 0) {
    algorithm = "prna";
    config.threads = threads;
  }
  {
    obs::Json inputs = obs::Json::array();
    for (const LoadedStructure* s : {&a, &b}) {
      obs::Json one = obs::Json::object();
      one.set("origin", obs::Json(s->origin));
      one.set("length", obs::Json(static_cast<std::int64_t>(s->structure.length())));
      one.set("arcs", obs::Json(static_cast<std::int64_t>(s->structure.arc_count())));
      inputs.push(std::move(one));
    }
    session.report().set("inputs", std::move(inputs));
    obs::Json opts = obs::Json::object();
    opts.set("algorithm", obs::Json(algorithm));
    opts.set("layout", obs::Json(cli.str("layout")));
    opts.set("threads", obs::Json(static_cast<std::int64_t>(threads)));
    if (config.memory_budget_bytes != 0)
      opts.set("memory_budget_bytes", obs::Json(config.memory_budget_bytes));
    session.report().set("options", std::move(opts));
  }

  EngineResult result;
  std::string how;
  try {
    const SolverBackend& backend = McosEngine::instance().at(algorithm);
    result = solve_with(backend, a.structure, b.structure, config, Workspace::local());
    how = algorithm == "prna"
              ? "PRNA(" + std::to_string(result.threads_used) + " threads)"
              : algorithm;
    if (result.detail.is_object()) session.report().set(algorithm, std::move(result.detail));
  } catch (const std::exception& e) {
    // The report survives as a crash record: status, error text, whatever
    // metrics the run recorded before it died.
    session.report().set_error(e.what());
    session.finish();
    throw;
  }

  session.report().set("how", obs::Json(how));
  session.report().set("value", obs::Json(static_cast<std::int64_t>(result.value)));
  session.report().set("stats", result.stats.to_json());

  out << "MCOS value: " << result.value << "  (" << how << ")\n";
  if (cli.flag("stats")) out << result.stats.to_string() << "\n";
  if (cli.flag("traceback")) {
    const auto common = mcos_traceback(a.structure, b.structure, config.to_mcos());
    for (const ArcMatch& m : common.matches)
      out << "  " << m.a1 << "  <->  " << m.a2 << "\n";
    out << "common substructure: " << to_dot_bracket(common.as_structure()) << "\n";
  }
  for (const std::string& path : session.finish()) out << "wrote " << path << "\n";
  return 0;
}

int cmd_fold(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna fold", "fold a sequence (Nussinov, or --mfe for the energy model)");
  cli.add_option("min-loop", "minimum hairpin loop size", "3");
  cli.add_flag("mfe", "minimize free energy instead of maximizing pairs");
  cli.add_flag("diagram", "draw the folded structure");
  std::vector<const char*> argv{"srna-fold"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 1) {
    err << "fold needs exactly one sequence (ACGU literal or structure file)\n";
    return 2;
  }

  Sequence seq;
  const std::string& spec = cli.positional()[0];
  if (names_file(spec)) {
    seq = read_structure_file(spec).sequence;
  } else {
    seq = Sequence::from_string(spec);
  }

  SecondaryStructure folded;
  if (cli.flag("mfe")) {
    MfeModel model;
    model.min_hairpin = static_cast<Pos>(cli.integer("min-loop"));
    const auto result = mfe_fold(seq, model);
    folded = result.structure;
    out << to_dot_bracket(folded) << "\n";
    out << "energy: " << result.energy << "  pairs: " << folded.arc_count() << "\n";
  } else {
    NussinovOptions options;
    options.min_loop = static_cast<Pos>(cli.integer("min-loop"));
    const auto result = nussinov_fold(seq, options);
    folded = result.structure;
    out << to_dot_bracket(folded) << "\n";
    out << "pairs: " << result.max_pairs << "\n";
  }
  if (cli.flag("diagram")) out << render_arc_diagram(folded, &seq);
  return 0;
}

int cmd_show(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna show", "arc diagram and statistics");
  cli.add_option("svg", "also write an SVG rendering to this path", "");
  cli.add_flag("loops", "print the loop decomposition");
  std::vector<const char*> argv{"srna-show"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 1) {
    err << "show needs exactly one structure\n";
    return 2;
  }
  const LoadedStructure loaded = load_structure(cli.positional()[0]);
  const Sequence* seq = loaded.sequence ? &*loaded.sequence : nullptr;
  out << render_arc_diagram(loaded.structure, seq);
  out << compute_stats(loaded.structure).to_string() << "\n";

  if (cli.flag("loops")) {
    const auto decomposition = decompose_loops(loaded.structure);
    for (const auto kind : {LoopKind::kHairpin, LoopKind::kStack, LoopKind::kBulge,
                            LoopKind::kInternal, LoopKind::kMultibranch})
      out << to_string(kind) << ": " << decomposition.count(kind) << "  ";
    out << "exterior branches: " << decomposition.exterior_branches.size() << "\n";
  }

  if (const std::string svg_path = cli.str("svg"); !svg_path.empty()) {
    SvgDiagramOptions svg_opt;
    svg_opt.title = loaded.origin;
    std::ofstream svg_out(svg_path);
    if (!svg_out) {
      err << "cannot write " << svg_path << "\n";
      return 1;
    }
    svg_out << render_svg_diagram(loaded.structure, seq, svg_opt);
    out << "wrote " << svg_path << "\n";
  }
  return 0;
}

int cmd_validate(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna validate", "well-formedness / pseudoknot report");
  std::vector<const char*> argv{"srna-validate"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 1) {
    err << "validate needs exactly one structure\n";
    return 2;
  }
  const LoadedStructure loaded = load_structure(cli.positional()[0]);
  const auto report =
      validate_arcs(loaded.structure.length(), loaded.structure.arcs_by_right());
  if (report.issues.empty()) {
    out << "OK: well-formed non-pseudoknot structure (" << loaded.structure.arc_count()
        << " arcs)\n";
    return 0;
  }
  for (const auto& issue : report.issues) out << issue.to_string() << "\n";
  out << (report.well_formed() ? "well-formed but pseudoknotted\n" : "malformed\n");
  return 1;
}

int cmd_generate(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna generate", "synthesize a workload structure");
  cli.add_option("kind", "worst | random | rrna | knot | sequential", "worst");
  cli.add_option("length", "sequence length", "100");
  cli.add_option("arcs", "target arcs (rrna / sequential)", "20");
  cli.add_option("density", "pairing density (random)", "0.4");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("output", "write .ct/.bpseq file instead of printing dot-bracket", "");
  std::vector<const char*> argv{"srna-generate"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;

  const auto length = static_cast<Pos>(cli.integer("length"));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const std::string kind = cli.str("kind");

  SecondaryStructure s;
  if (kind == "worst") {
    s = worst_case_structure(length);
  } else if (kind == "random") {
    s = random_structure(length, cli.real("density"), seed);
  } else if (kind == "rrna") {
    s = rrna_like_structure(length, static_cast<std::size_t>(cli.integer("arcs")), seed);
  } else if (kind == "knot") {
    s = pseudoknot_structure(length, seed);
  } else if (kind == "sequential") {
    s = sequential_arcs_structure(length, static_cast<Pos>(cli.integer("arcs")));
  } else {
    err << "unknown kind: " << kind << "\n";
    return 2;
  }

  const std::string output = cli.str("output");
  if (output.empty()) {
    out << to_dot_bracket(s) << "\n";
  } else {
    AnnotatedStructure rec{"srna generate --kind=" + kind, sequence_for_structure(s, seed), s};
    write_structure_file(output, rec);
    out << "wrote " << output << " (" << s.arc_count() << " arcs)\n";
  }
  return 0;
}

int cmd_convert(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna convert", "convert between CT, BPSEQ and dot-bracket");
  std::vector<const char*> argv{"srna-convert"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 2) {
    err << "convert needs <input> <output.(ct|bpseq)> (input may be dot-bracket)\n";
    return 2;
  }
  const LoadedStructure loaded = load_structure(cli.positional()[0]);
  AnnotatedStructure rec;
  rec.title = "converted from " + loaded.origin;
  rec.structure = loaded.structure;
  rec.sequence = loaded.sequence ? *loaded.sequence : sequence_for_structure(loaded.structure, 1);
  write_structure_file(cli.positional()[1], rec);
  out << "wrote " << cli.positional()[1] << "\n";
  return 0;
}

int cmd_align(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna align", "structure-anchored sequence alignment");
  cli.add_option("match", "base match score", "2.0");
  cli.add_option("mismatch", "base mismatch score", "-1.0");
  cli.add_option("gap", "gap penalty", "-2.0");
  std::vector<const char*> argv{"srna-align"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 2) {
    err << "align needs exactly two structures (CT/BPSEQ carry sequences; a\n"
           "dot-bracket literal gets a synthesized consistent sequence)\n";
    return 2;
  }

  auto load_with_sequence = [](const std::string& spec) {
    LoadedStructure loaded = load_structure(spec);
    if (!loaded.sequence) loaded.sequence = sequence_for_structure(loaded.structure, 1);
    return loaded;
  };
  const LoadedStructure a = load_with_sequence(cli.positional()[0]);
  const LoadedStructure b = load_with_sequence(cli.positional()[1]);

  AlignScoring scoring;
  scoring.match = cli.real("match");
  scoring.mismatch = cli.real("mismatch");
  scoring.gap = cli.real("gap");

  const StructuralAlignment result =
      anchored_alignment(*a.sequence, a.structure, *b.sequence, b.structure, scoring);
  out << result.format(*a.sequence, *b.sequence);
  out << "common arcs: " << result.common_arcs << "  alignment score: " << result.alignment.score
      << "  identities: " << result.alignment.matches(*a.sequence, *b.sequence) << "/"
      << result.alignment.columns.size() << "  gaps: " << result.alignment.gaps() << "\n";
  return 0;
}

int cmd_search(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna search", "rank a directory of structures against a query");
  cli.add_option("top", "show only the best K hits (0 = all)", "10");
  cli.add_option("threads", "worker threads for the scan (0 = default)", "0");
  cli.add_option("algorithm", McosEngine::instance().names_joined(" | "), "srna2");
  cli.add_flag("raw", "rank by raw common-arc count instead of normalized similarity");
  obs::ObsSession::add_cli_options(cli);
  std::vector<const char*> argv{"srna-search"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 2) {
    err << "search needs <query> <directory of .ct/.bpseq files>\n";
    return 2;
  }

  obs::ObsSession session(obs::ObsSession::paths_from_cli(cli), "srna search");

  const LoadedStructure query = load_structure(cli.positional()[0]);
  const StructureDatabase db = StructureDatabase::load_directory(cli.positional()[1]);
  if (db.empty()) {
    err << "no .ct/.bpseq files in " << cli.positional()[1] << "\n";
    return 1;
  }

  SearchOptions opt;
  opt.threads = static_cast<int>(cli.integer("threads"));
  opt.algorithm = cli.str("algorithm");
  if (cli.flag("raw")) opt.metric = SimilarityMetric::kCommonArcs;
  const auto hits =
      query_top_k(db, query.structure, static_cast<std::size_t>(cli.integer("top")), opt);

  {
    obs::Json doc = obs::Json::object();
    doc.set("query", obs::Json(query.origin));
    doc.set("database_size", obs::Json(static_cast<std::int64_t>(db.size())));
    doc.set("threads", obs::Json(static_cast<std::int64_t>(opt.threads)));
    doc.set("algorithm", obs::Json(opt.algorithm));
    obs::Json ranked = obs::Json::array();
    for (const QueryHit& hit : hits) {
      obs::Json one = obs::Json::object();
      one.set("name", obs::Json(db.record(hit.index).name));
      one.set("common_arcs", obs::Json(static_cast<std::int64_t>(hit.common_arcs)));
      one.set("score", obs::Json(hit.score));
      ranked.push(std::move(one));
    }
    doc.set("hits", std::move(ranked));
    session.report().set("search", std::move(doc));
  }

  TablePrinter table({"rank", "structure", "arcs", "common", "score"});
  int rank = 1;
  for (const QueryHit& hit : hits)
    table.add_row({std::to_string(rank++), db.record(hit.index).name,
                   std::to_string(db.record(hit.index).structure.arc_count()),
                   std::to_string(hit.common_arcs), fixed(hit.score, 3)});
  table.print(out);
  for (const std::string& path : session.finish()) out << "wrote " << path << "\n";
  return 0;
}

int cmd_matrix(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliParser cli("srna matrix", "pairwise similarity matrix over a directory of structures");
  cli.add_option("threads", "worker threads (0 = default)", "0");
  cli.add_option("algorithm", McosEngine::instance().names_joined(" | "), "srna2");
  cli.add_flag("csv", "emit CSV");
  obs::ObsSession::add_cli_options(cli);
  std::vector<const char*> argv{"srna-matrix"};
  for (const auto& a : args) argv.push_back(a.c_str());
  if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return 0;
  if (cli.positional().size() != 1) {
    err << "matrix needs a directory of .ct/.bpseq files\n";
    return 2;
  }

  obs::ObsSession session(obs::ObsSession::paths_from_cli(cli), "srna matrix");

  const StructureDatabase db = StructureDatabase::load_directory(cli.positional()[0]);
  if (db.size() < 2) {
    err << "need at least two structures in " << cli.positional()[0] << "\n";
    return 1;
  }
  SearchOptions opt;
  opt.threads = static_cast<int>(cli.integer("threads"));
  opt.algorithm = cli.str("algorithm");
  const auto matrix = all_pairs_similarity(db, opt);

  {
    obs::Json doc = obs::Json::object();
    doc.set("database_size", obs::Json(static_cast<std::int64_t>(db.size())));
    doc.set("threads", obs::Json(static_cast<std::int64_t>(opt.threads)));
    doc.set("algorithm", obs::Json(opt.algorithm));
    doc.set("pairs_compared",
            obs::Json(static_cast<std::int64_t>(db.size() * (db.size() - 1) / 2)));
    session.report().set("matrix", std::move(doc));
  }

  std::vector<std::string> header{""};
  for (std::size_t i = 0; i < db.size(); ++i) header.push_back(db.record(i).name);
  TablePrinter table(header);
  for (std::size_t i = 0; i < db.size(); ++i) {
    std::vector<std::string> row{db.record(i).name};
    for (std::size_t j = 0; j < db.size(); ++j) row.push_back(fixed(matrix(i, j), 3));
    table.add_row(row);
  }
  if (cli.flag("csv"))
    table.print_csv(out);
  else
    table.print(out);
  for (const std::string& path : session.finish()) out << "wrote " << path << "\n";
  return 0;
}

void print_usage(std::ostream& out) {
  out << "srna — common RNA secondary structure toolkit\n\n"
         "usage: srna <command> [options] [args]\n\n"
         "commands:\n"
         "  compare   <s1> <s2>   maximum common ordered substructure\n"
         "  align     <s1> <s2>   structure-anchored sequence alignment\n"
         "  fold      <seq>       Nussinov base-pair maximization\n"
         "  show      <s>         arc diagram + statistics (+ --svg, --loops)\n"
         "  validate  <s>         well-formedness / pseudoknot report\n"
         "  generate              synthesize workload structures\n"
         "  convert   <in> <out>  CT/BPSEQ/dot-bracket conversion\n"
         "  search    <q> <dir>   rank a structure directory against a query\n"
         "  matrix    <dir>       pairwise similarity matrix over a directory\n\n"
         "structures are file paths (*.ct, *.bpseq) or dot-bracket literals.\n"
         "run `srna <command> --help` for per-command options.\n";
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    print_usage(err);
    return 2;
  }
  const std::string command = argv[1];
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) rest.emplace_back(argv[i]);

  using Handler = int (*)(const std::vector<std::string>&, std::ostream&, std::ostream&);
  static const std::map<std::string, Handler> kCommands = {
      {"compare", cmd_compare},   {"fold", cmd_fold},         {"show", cmd_show},
      {"validate", cmd_validate}, {"generate", cmd_generate}, {"convert", cmd_convert},
      {"align", cmd_align},       {"search", cmd_search},     {"matrix", cmd_matrix},
  };

  if (command == "--help" || command == "help") {
    print_usage(out);
    return 0;
  }
  const auto it = kCommands.find(command);
  if (it == kCommands.end()) {
    err << "unknown command: " << command << "\n\n";
    print_usage(err);
    return 2;
  }
  try {
    return it->second(rest, out, err);
  } catch (const std::invalid_argument& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace srna::tools
