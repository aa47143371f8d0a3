// altroute command-line tool: build city networks, query alternative
// routes, run the user study, and serve the web demo — the library's
// functionality without writing C++.
//
//   altroute_cli build-city melbourne --scale 0.5 --out melbourne.bin
//   altroute_cli route --city melbourne --from 12 --to 3402 --engine plateau
//   altroute_cli route --net melbourne.bin --from 12 --to 3402 --geojson
//   altroute_cli study --city dhaka --seed 7 --csv responses.csv
//   altroute_cli validate --net melbourne.bin
//   altroute_cli serve --city melbourne --city dhaka --port 8080 --threads 8
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "citygen/city_generator.h"
#include "core/engine_registry.h"
#include "core/quality.h"
#include "graph/serialization.h"
#include "graph/validator.h"
#include "server/network_manager.h"
#include "obs/search_stats.h"
#include "server/demo_service.h"
#include "server/directions.h"
#include "server/geojson.h"
#include "userstudy/export.h"
#include "userstudy/report.h"
#include "userstudy/tables.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace altroute {
namespace {

/// Minimal flag parser: positional args plus --key value pairs. Repeated
/// flags keep every occurrence in order (`flag_list`, for multi-city serve);
/// the `flags` map keeps the last occurrence for single-valued lookups.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  std::vector<std::pair<std::string, std::string>> flag_list;

  static Args Parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const std::string key = a.substr(2);
        std::string value = "true";
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          value = argv[++i];
        }
        args.flags[key] = value;
        args.flag_list.emplace_back(key, std::move(value));
      } else {
        args.positional.push_back(std::move(a));
      }
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// Every value the flag was given, in command-line order.
  std::vector<std::string> GetAll(const std::string& key) const {
    std::vector<std::string> values;
    for (const auto& [k, v] : flag_list) {
      if (k == key) values.push_back(v);
    }
    return values;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : ParseDouble(it->second).ValueOr(fallback);
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : ParseInt64(it->second).ValueOr(fallback);
  }
};

/// Strictly-parsed integer flag with a range check: absent -> `fallback`;
/// non-numeric or out-of-range input -> InvalidArgument with a one-line
/// message naming the flag, the accepted range and the offending value.
Result<int64_t> ValidatedIntFlag(const Args& args, const std::string& key,
                                 int64_t fallback, int64_t min, int64_t max) {
  auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  auto value = ParseInt64(it->second);
  if (!value.ok() || *value < min || *value > max) {
    return Status::InvalidArgument("--" + key + " must be an integer in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "], got '" +
                                   it->second + "'");
  }
  return *value;
}

int Usage() {
  std::fprintf(stderr, R"(altroute_cli <command> [options]

Commands:
  build-city <melbourne|dhaka|copenhagen>
      --scale S (default 1.0) --seed N --out FILE      build + serialize
  route
      --city NAME | --net FILE                         network source
      --from NODE --to NODE                            query endpoints
      --engine <plateau|dissimilarity|penalty|commercial|all> (default all)
      --geojson                                        GeoJSON output
      --directions                                     turn-by-turn text
      --stats                                          per-engine search counters
  study
      --city NAME --scale S --seed N
      [--csv FILE] [--report FILE.md]                  run the user study
  validate
      --net FILE | --city NAME [--scale S]             run GraphValidator and
                                                       print the report (exit
                                                       nonzero on failure)
  serve
      --city NAME [--city NAME ...] --scale S          web demo backend; each
      [--net FILE ...] [--port P]                      --city/--net adds a
                                                       served network (route
                                                       with /route?city=...)
      [--threads N]                                    worker pool size
                                                       (default: hardware
                                                       concurrency; metrics
                                                       at /metrics)
      [--request-timeout-ms MS]                        per-request wall budget
                                                       measured from accept
                                                       (default 10000;
                                                       0 disables)
      [--ratings-file FILE]                            persist submissions as
                                                       append-only JSONL,
                                                       replayed on restart
      [--slow-query-ms MS]                             requests strictly
                                                       slower than MS are
                                                       logged as slow-query
                                                       offenders (0 disables;
                                                       browse /debug/slow)
      [--slow-query-log FILE]                          persist offenders as
                                                       append-only JSONL,
                                                       replayed on restart
      [--ch]                                           build a contraction
                                                       hierarchy per snapshot
                                                       and serve the CH-backed
                                                       Plateau/Penalty engines
                                                       (build cost reported at
                                                       /debug/build)
      [--breaker-failures N]                           consecutive engine
                                                       failures that open its
                                                       circuit breaker
                                                       (default 5; 0 disables
                                                       breakers)
      [--breaker-cooldown-ms MS]                       open-state cooldown
                                                       before recovery probes
                                                       (default 5000)
      [--breaker-probes N]                             consecutive half-open
                                                       probe successes needed
                                                       to close (default 2)
      [--queue-target-delay-ms MS]                     shed new connections
                                                       once queue wait stays
                                                       above this target
                                                       (CoDel-style; 0
                                                       disables, the default)
      [--reload-retry-initial-ms MS]                   first backoff delay for
                                                       background retry of
                                                       failed reloads
                                                       (default 500;
                                                       0 disables retries)
                                                       health at /healthz,
                                                       readiness at /readyz;
                                                       POST /admin/reload or
                                                       SIGHUP swaps snapshots
                                                       without dropping
                                                       traffic

Global options:
  --log-level <debug|info|warn|error>                  log verbosity (default info)
)");
  return 2;
}

/// Loads a serialized network from `path`, naming the path and the failure
/// kind (I/O vs. corruption) in one line instead of a bare Status.
Result<std::shared_ptr<RoadNetwork>> LoadNetworkFile(const std::string& path) {
  auto net = NetworkSerializer::LoadFromFile(path);
  if (!net.ok()) {
    const char* kind = net.status().IsIOError() ? "I/O error" : "corrupt file";
    return Status(net.status().code(), "cannot load network from '" + path +
                                           "' (" + kind + "): " +
                                           net.status().message());
  }
  return net;
}

Result<citygen::CitySpec> SpecForCity(const std::string& city) {
  if (city == "dhaka") return citygen::DhakaSpec();
  if (city == "copenhagen") return citygen::CopenhagenSpec();
  if (city == "melbourne") return citygen::MelbourneSpec();
  return Status::InvalidArgument("unknown city: " + city);
}

Result<std::shared_ptr<RoadNetwork>> LoadNetwork(const Args& args,
                                                 double default_scale) {
  const std::string net_file = args.Get("net");
  if (!net_file.empty()) return LoadNetworkFile(net_file);
  const std::string city = args.Get("city", "melbourne");
  ALTROUTE_ASSIGN_OR_RETURN(citygen::CitySpec spec, SpecForCity(city));
  spec = citygen::Scaled(spec, args.GetDouble("scale", default_scale));
  if (args.flags.count("seed")) {
    spec.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  }
  ALTROUTE_LOG(Debug) << "generating " << spec.name << " (seed " << spec.seed
                      << ", scale " << args.GetDouble("scale", default_scale)
                      << ")";
  return citygen::BuildCityNetwork(spec);
}

/// City key for a serialized network file: the basename without extension,
/// lowercased ("nets/Melbourne.bin" -> "melbourne").
std::string CityKeyForFile(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return ToLower(base.empty() ? path : base);
}

/// The serve data-plane sources requested on the command line: every
/// repeated --city (citygen, honouring --scale/--seed) and --net (file).
/// Defaults to citygen melbourne when neither flag is given.
Result<std::vector<NetworkManager::Source>> ServeSources(
    const Args& args, double default_scale) {
  std::vector<NetworkManager::Source> sources;
  std::vector<std::string> cities = args.GetAll("city");
  const std::vector<std::string> files = args.GetAll("net");
  if (cities.empty() && files.empty()) cities.push_back("melbourne");
  for (const std::string& city : cities) {
    ALTROUTE_ASSIGN_OR_RETURN(citygen::CitySpec spec, SpecForCity(city));
    spec = citygen::Scaled(spec, args.GetDouble("scale", default_scale));
    if (args.flags.count("seed")) {
      spec.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
    }
    sources.emplace_back(city,
                         [spec] { return citygen::BuildCityNetwork(spec); });
  }
  for (const std::string& file : files) {
    sources.emplace_back(CityKeyForFile(file),
                         [file] { return LoadNetworkFile(file); });
  }
  return sources;
}

int CmdBuildCity(const Args& args) {
  if (args.positional.size() < 2) return Usage();
  Args with_city = args;
  with_city.flags["city"] = args.positional[1];
  auto net = LoadNetwork(with_city, 1.0);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  std::printf("Built %s: %zu vertices, %zu edges\n", (*net)->name().c_str(),
              (*net)->num_nodes(), (*net)->num_edges());
  const std::string out = args.Get("out");
  if (!out.empty()) {
    const Status st = NetworkSerializer::SaveToFile(**net, out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("Serialized to %s\n", out.c_str());
  }
  return 0;
}

int CmdRoute(const Args& args) {
  auto net_or = LoadNetwork(args, 0.5);
  if (!net_or.ok()) {
    std::fprintf(stderr, "%s\n", net_or.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<RoadNetwork> net = std::move(net_or).ValueOrDie();
  const auto from = static_cast<NodeId>(args.GetInt("from", 0));
  const auto to = static_cast<NodeId>(
      args.GetInt("to", static_cast<int64_t>(net->num_nodes()) - 1));

  auto suite_or = EngineSuite::MakePaperSuite(net);
  if (!suite_or.ok()) {
    std::fprintf(stderr, "%s\n", suite_or.status().ToString().c_str());
    return 1;
  }
  EngineSuite suite = std::move(suite_or).ValueOrDie();

  const std::string engine_name = args.Get("engine", "all");
  const bool geojson = args.flags.count("geojson") > 0;
  const bool want_stats = args.flags.count("stats") > 0;
  for (Approach a : kAllApproaches) {
    const std::string name(suite.engine(a).name());
    if (engine_name != "all" && name != engine_name) continue;
    obs::SearchStats stats;
    auto set = suite.engine(a).Generate(from, to,
                                        want_stats ? &stats : nullptr);
    if (!set.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   set.status().ToString().c_str());
      return 1;
    }
    if (geojson) {
      std::printf("%s\n",
                  AlternativeSetToGeoJson(*net, *set, ApproachLabel(a)).c_str());
      continue;
    }
    std::printf("%c %s (%zu routes):\n", ApproachLabel(a), name.c_str(),
                set->routes.size());
    for (size_t i = 0; i < set->routes.size(); ++i) {
      const Path& p = set->routes[i];
      const RouteQuality q = ComputeRouteQuality(
          *net, p, set->routes[0].travel_time_s, net->travel_times());
      std::printf("  #%zu %6.1f min  %6.1f km  stretch %.2f  %d turns\n",
                  i + 1, p.travel_time_s / 60.0, p.length_m / 1000.0,
                  q.stretch, q.turn_count);
    }
    if (args.flags.count("directions") && !set->routes.empty()) {
      std::printf("  turn-by-turn for route #1:\n");
      for (const DirectionStep& step :
           BuildDirections(*net, set->routes[0])) {
        std::printf("    - %s\n", step.text.c_str());
      }
    }
    if (want_stats) {
      std::printf(
          "  search: %llu settled, %llu relaxed, %llu pushes, %llu pops\n"
          "  paths:  %llu generated, %llu rejected "
          "(%llu stretch, %llu similarity, %llu filter)\n",
          static_cast<unsigned long long>(stats.nodes_settled),
          static_cast<unsigned long long>(stats.edges_relaxed),
          static_cast<unsigned long long>(stats.heap_pushes),
          static_cast<unsigned long long>(stats.heap_pops),
          static_cast<unsigned long long>(stats.paths_generated),
          static_cast<unsigned long long>(stats.paths_rejected_total()),
          static_cast<unsigned long long>(stats.paths_rejected_stretch),
          static_cast<unsigned long long>(stats.paths_rejected_similarity),
          static_cast<unsigned long long>(stats.paths_rejected_filter));
    }
  }
  return 0;
}

int CmdStudy(const Args& args) {
  auto net_or = LoadNetwork(args, 1.0);
  if (!net_or.ok()) {
    std::fprintf(stderr, "%s\n", net_or.status().ToString().c_str());
    return 1;
  }
  StudyConfig config;
  if (args.flags.count("seed")) {
    config.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  }
  StudyRunner runner(std::move(net_or).ValueOrDie(), config);
  auto results = runner.Run();
  if (!results.ok()) {
    std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", FormatTable(Table1Rows(*results),
                                  "Table 1: All responses").c_str());
  auto anova = StudyAnova(*results);
  if (anova.ok()) {
    std::printf("One-way ANOVA: F = %.3f, p = %.3f\n", anova->f_statistic,
                anova->p_value);
  }
  const std::string report = args.Get("report");
  if (!report.empty()) {
    const Status st = WriteStudyReport(*results, report);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("Report written to %s\n", report.c_str());
  }
  const std::string csv = args.Get("csv");
  if (!csv.empty()) {
    const Status st = ExportStudyCsvToFile(*results, csv);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("Responses written to %s\n", csv.c_str());
  }
  return 0;
}

int CmdValidate(const Args& args) {
  auto net = LoadNetwork(args, 1.0);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  const ValidationReport report = ValidateNetwork(**net);
  std::printf("%s", report.ToString().c_str());
  return report.ok() ? 0 : 1;
}

/// SIGHUP requests a reload of every city; the serve loop below checks this
/// after sigsuspend() returns (only async-signal-safe work happens in the
/// handler itself). SIGHUP stays blocked outside sigsuspend, so the handler
/// can only run inside the wait — delivery and the flag check are atomic and
/// a reload request can never be lost.
volatile std::sig_atomic_t g_sighup_reload = 0;

int CmdServe(const Args& args) {
  // Install the SIGHUP handler and block the signal FIRST, before the slow
  // network build and before the server (whose worker threads inherit the
  // mask) starts: a SIGHUP arriving any time during startup is deferred
  // until the sigsuspend wait below instead of killing the process.
  struct sigaction sighup_action = {};
  sighup_action.sa_handler = [](int) { g_sighup_reload = 1; };
  sigemptyset(&sighup_action.sa_mask);
  sigaction(SIGHUP, &sighup_action, nullptr);
  sigset_t block_hup;
  sigemptyset(&block_hup);
  sigaddset(&block_hup, SIGHUP);
  sigset_t wait_mask;
  sigprocmask(SIG_BLOCK, &block_hup, &wait_mask);
  sigdelset(&wait_mask, SIGHUP);
  // Validate serving flags before the (slow) network build: a typo'd port or
  // a zero-thread pool should be one friendly line, immediately.
  auto threads_or = ValidatedIntFlag(args, "threads", 0, 1, 1024);
  auto port_or = ValidatedIntFlag(args, "port", 8080, 0, 65535);
  auto timeout_or =
      ValidatedIntFlag(args, "request-timeout-ms", 10000, 0, 3600000);
  auto slow_ms_or = ValidatedIntFlag(args, "slow-query-ms", 0, 0, 3600000);
  auto breaker_failures_or =
      ValidatedIntFlag(args, "breaker-failures", 5, 0, 1000);
  auto breaker_cooldown_or =
      ValidatedIntFlag(args, "breaker-cooldown-ms", 5000, 1, 3600000);
  auto breaker_probes_or = ValidatedIntFlag(args, "breaker-probes", 2, 1, 100);
  auto queue_delay_or =
      ValidatedIntFlag(args, "queue-target-delay-ms", 0, 0, 3600000);
  auto retry_initial_or =
      ValidatedIntFlag(args, "reload-retry-initial-ms", 500, 0, 3600000);
  for (const Result<int64_t>* flag :
       {&threads_or, &port_or, &timeout_or, &slow_ms_or, &breaker_failures_or,
        &breaker_cooldown_or, &breaker_probes_or, &queue_delay_or,
        &retry_initial_or}) {
    if (!flag->ok()) {
      std::fprintf(stderr, "%s\n", flag->status().message().c_str());
      return 2;
    }
  }
  int threads = static_cast<int>(*threads_or);
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  auto sources = ServeSources(args, 0.5);
  if (!sources.ok()) {
    std::fprintf(stderr, "%s\n", sources.status().ToString().c_str());
    return 2;
  }
  // The data plane: one validated snapshot per requested city, each with one
  // query context per HTTP worker (engines are per-context mutable state;
  // the network, weights and snapping index are shared per city).
  NetworkManager::Options mopts;
  mopts.contexts_per_city = static_cast<size_t>(threads);
  // --ch: build a contraction hierarchy per snapshot (slower startup/reload,
  // off the serving path) so every context serves the CH-backed
  // Plateau/Penalty engines. /debug/build reports the build cost.
  mopts.build_ch = args.Get("ch") == "true";
  // Failure containment: per-(city, engine) circuit breakers (on by default;
  // --breaker-failures 0 turns them off) and background retry of failed
  // reloads with exponential backoff (--reload-retry-initial-ms 0 turns it
  // off).
  mopts.enable_breakers = *breaker_failures_or > 0;
  mopts.breaker.consecutive_failures_to_open =
      static_cast<int>(*breaker_failures_or);
  mopts.breaker.open_cooldown =
      std::chrono::milliseconds(*breaker_cooldown_or);
  mopts.breaker.half_open_successes_to_close =
      static_cast<int>(*breaker_probes_or);
  mopts.retry_failed_reloads = *retry_initial_or > 0;
  mopts.reload_backoff.initial_delay =
      std::chrono::milliseconds(*retry_initial_or);
  auto manager = std::make_shared<NetworkManager>(mopts);
  if (const Status st = manager->AddCities(std::move(sources).ValueOrDie());
      !st.ok()) {
    std::fprintf(stderr, "failed to load: %s\n", st.ToString().c_str());
    return 1;
  }
  DemoService service(manager);
  if (const std::string ratings_file = args.Get("ratings-file");
      !ratings_file.empty()) {
    const Status attached = service.ratings().AttachFile(ratings_file);
    if (!attached.ok()) {
      std::fprintf(stderr, "%s\n", attached.ToString().c_str());
      return 1;
    }
    std::printf("Ratings persisted to %s (%zu replayed, %zu corrupt line(s) "
                "skipped)\n",
                ratings_file.c_str(), service.ratings().size(),
                service.ratings().corrupt_lines_recovered());
  }
  if (*slow_ms_or > 0) {
    service.slow_queries().set_threshold_ms(static_cast<double>(*slow_ms_or));
  }
  if (const std::string slow_log = args.Get("slow-query-log");
      !slow_log.empty()) {
    const Status attached = service.slow_queries().AttachFile(slow_log);
    if (!attached.ok()) {
      std::fprintf(stderr, "%s\n", attached.ToString().c_str());
      return 1;
    }
    std::printf("Slow queries persisted to %s (%zu corrupt line(s) skipped); "
                "threshold %lld ms\n",
                slow_log.c_str(),
                service.slow_queries().corrupt_lines_recovered(),
                static_cast<long long>(*slow_ms_or));
  }
  HttpServerOptions options;
  options.num_threads = threads;
  options.request_timeout_ms = static_cast<int>(*timeout_or);
  options.queue_target_delay_ms = static_cast<int>(*queue_delay_or);
  HttpServer server(options);
  service.Install(&server);
  const Status st = server.Start(static_cast<uint16_t>(*port_or));
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::string city_list;
  for (const std::string& city : manager->cities()) {
    if (!city_list.empty()) city_list += ", ";
    city_list += city;
  }
  std::printf("Serving %s on http://127.0.0.1:%u/ with %d worker thread(s) "
              "(SIGHUP reloads all cities, Ctrl-C to stop)\n",
              city_list.c_str(), server.port(), server.num_threads());
  // Startup lines must reach a redirected log even if the process is later
  // killed: stdout is block-buffered when not a TTY.
  std::fflush(stdout);
  for (;;) {
    // Atomically unblock SIGHUP and wait: a signal pending from before this
    // call (or arriving any time during it) makes sigsuspend return
    // immediately with the flag set — there is no window in which a SIGHUP
    // is seen but not acted on.
    sigsuspend(&wait_mask);
    if (g_sighup_reload != 0) {
      g_sighup_reload = 0;
      ALTROUTE_LOG(Info) << "SIGHUP: reloading all cities";
      for (const auto& [city, outcome] : manager->ReloadAll()) {
        if (outcome.ok()) {
          ALTROUTE_LOG(Info) << "reload '" << city << "': success";
        } else {
          ALTROUTE_LOG(Warning) << "reload '" << city << "': " << outcome;
        }
      }
    }
  }
}

}  // namespace
}  // namespace altroute

int main(int argc, char** argv) {
  using namespace altroute;
  const Args args = Args::Parse(argc, argv);
  if (const std::string level_name = args.Get("log-level");
      !level_name.empty()) {
    LogLevel level;
    if (!ParseLogLevel(level_name, &level)) {
      std::fprintf(stderr, "unknown --log-level '%s'\n", level_name.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  if (args.positional.empty()) return Usage();
  const std::string& command = args.positional[0];
  if (command == "build-city") return CmdBuildCity(args);
  if (command == "route") return CmdRoute(args);
  if (command == "study") return CmdStudy(args);
  if (command == "validate") return CmdValidate(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}
