// srna-serve — the MCOS query service daemon.
//
// Two transports, same JSON-lines protocol (docs/SERVING.md):
//   --offline        requests on stdin, responses on stdout; exits at EOF
//                    after draining. This is what tests and CI drive.
//   --port=N         TCP listener (default loopback; --port=0 picks an
//                    ephemeral port and prints it). Runs until SIGINT/SIGTERM,
//                    then stops the listener and drains in-flight requests.
//
// Observability (docs/OBSERVABILITY.md):
//   --admin-port=N   HTTP admin listener (GET /metrics /healthz /statz) on a
//                    plane separate from serving; -1 disables. Offline mode
//                    answers the same views via in-band {"admin": ...} lines.
//   --log-level=L    structured JSON-lines log threshold on stderr
//                    (debug | info | warn | error | off).
//   --metrics/--report/--trace attach the obs subsystem exactly as in the
//   main CLI; service stats go into the report (and stderr) on shutdown.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <memory>
#include <thread>

#include "db/structure_db.hpp"
#include "obs/log.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace srna;

  CliParser cli("srna-serve", "MCOS query service (JSON-lines over stdin/stdout or TCP)");
  cli.add_flag("offline", "serve stdin/stdout instead of a TCP socket");
  cli.add_option("host", "TCP listen address", "127.0.0.1");
  cli.add_option("port", "TCP port (0 = ephemeral, printed on startup)", "7533");
  cli.add_option("admin-port",
                 "HTTP admin listener port: /metrics /healthz /statz "
                 "(0 = ephemeral, -1 = disabled)",
                 "-1");
  cli.add_option("log-level", "structured log threshold (debug|info|warn|error|off)",
                 "info");
  cli.add_option("db", "structure database directory for a_name/b_name requests", "");
  cli.add_option("workers", "worker threads", "4");
  cli.add_option("queue-capacity", "admission queue slots (backpressure beyond this)", "64");
  cli.add_option("cache-entries", "result cache capacity (0 disables)", "4096");
  cli.add_option("cache-shards", "result cache shard count", "8");
  cli.add_option("deadline-ms", "default per-request deadline (0 = none)", "0");
  cli.add_option("memory-budget",
                 "cap on summed estimated solver bytes in flight; over-budget "
                 "requests get status over_memory_budget (0 = unlimited)",
                 "0");
  cli.add_option("algorithm", "default engine backend", "srna2");
  cli.add_flag("trace-live",
               "keep the span tracer enabled for the life of the process and "
               "serve the buffered trace at GET /tracez (what "
               "srna-trace-collect scrapes); independent of --trace, which "
               "writes a file at exit");
  cli.add_option("flight-records",
                 "flight-recorder ring capacity (recent request records behind "
                 "GET /flightz)",
                 "256");
  cli.add_option("flight-slow-ms",
                 "latency threshold that makes a request a 'slow' anomaly and "
                 "retains it as a /flightz exemplar (0 = off)",
                 "0");
  obs::ObsSession::add_cli_options(cli);

  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::optional<obs::LogLevel> log_level = obs::parse_log_level(cli.str("log-level"));
    if (!log_level) {
      std::cerr << "srna-serve: bad --log-level '" << cli.str("log-level")
                << "' (debug|info|warn|error|off)\n";
      return 1;
    }
    obs::Logger::instance().set_min_level(*log_level);

    obs::ObsSession obs_session(obs::ObsSession::paths_from_cli(cli), "srna-serve");
    obs_session.report().set_command_line(argc, argv);

    StructureDatabase db;
    serve::ServiceConfig config;
    config.workers = static_cast<int>(cli.integer("workers"));
    config.queue_capacity = static_cast<std::size_t>(cli.integer("queue-capacity"));
    config.cache.capacity = static_cast<std::size_t>(cli.integer("cache-entries"));
    config.cache.shards = static_cast<std::size_t>(cli.integer("cache-shards"));
    config.default_deadline_ms = cli.real("deadline-ms");
    config.memory_budget_bytes = static_cast<std::uint64_t>(cli.integer("memory-budget"));
    config.default_algorithm = cli.str("algorithm");
    config.flight.capacity = static_cast<std::size_t>(cli.integer("flight-records"));
    config.flight.slow_ms = cli.real("flight-slow-ms");
    if (cli.flag("trace-live")) {
      obs::Tracer::instance().enable();
      obs::Tracer::instance().set_process_name("srna-serve");
    }
    if (!cli.str("db").empty()) {
      db = StructureDatabase::load_directory(cli.str("db"));
      obs::log_info("serve.db_loaded",
                    obs::log_fields(
                        {{"path", obs::Json(cli.str("db"))},
                         {"structures", obs::Json(static_cast<std::uint64_t>(db.size()))}}));
      config.db = &db;
    }

    serve::QueryService service(config);

    // The admin plane outlives the data listener but not the service: scrapes
    // during drain still answer (healthz flips to "draining").
    std::unique_ptr<serve::AdminServer> admin;
    const auto admin_port = cli.integer("admin-port");
    if (admin_port >= 0) {
      admin = std::make_unique<serve::AdminServer>(
          service, cli.str("host"), static_cast<std::uint16_t>(admin_port));
      std::cerr << "admin endpoint on " << cli.str("host") << ":" << admin->port()
                << " (/metrics /healthz /statz /flightz /tracez)\n";
    }

    if (cli.flag("offline")) {
      obs::log_info("serve.start", obs::log_fields({{"mode", obs::Json("offline")}}));
      const std::size_t lines = serve::run_offline(service, std::cin, std::cout);
      service.drain();
      obs::log_info("serve.stop",
                    obs::log_fields({{"lines", obs::Json(static_cast<std::uint64_t>(lines))}}));
    } else {
      std::signal(SIGINT, handle_signal);
      std::signal(SIGTERM, handle_signal);
      serve::TcpServer server(service, cli.str("host"),
                              static_cast<std::uint16_t>(cli.integer("port")));
      std::cerr << "listening on " << cli.str("host") << ":" << server.port() << "\n";
      obs::log_info(
          "serve.start",
          obs::log_fields({{"mode", obs::Json("tcp")},
                           {"port", obs::Json(static_cast<std::uint64_t>(server.port()))}}));
      while (!g_stop.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      obs::log_info("serve.stop", obs::log_fields({{"mode", obs::Json("tcp")}}));
      server.stop();
      service.drain();
    }
    if (admin) admin->stop();

    std::cerr << service.stats_json().dump(2) << "\n";
    obs_session.report().set("service", service.stats_json());
    for (const std::string& path : obs_session.finish()) std::cerr << "wrote " << path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "srna-serve: " << e.what() << "\n";
    return 1;
  }
}
