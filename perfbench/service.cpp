// service_mixed: an in-process ScenarioServer over loopback TCP with a
// warm DiskCache and a cold memory cache, driven by closed-loop
// ScenarioClients (callers of the service wait for each reply). The
// seeded stream is mostly single scenarios plus some 36-scenario corner
// sweeps; one scenario in five carries fresh off-grid driver/load values,
// which costs a ROM evaluation and a disk store. MNA and LU are nearly
// idle: protocol, transport, dispatch, memo cache and disk tier carry it.
#include <unistd.h>

#include <array>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "scenario/engine.hpp"
#include "service/client.hpp"
#include "service/disk_cache.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

using namespace cnti;

constexpr int kClients = 2;
constexpr int kEngineThreads = 2;  // clients + engine threads <= nproc
constexpr int kSetupReps = 3;
// Sweeps are rare enough that they and the requests queued behind them
// stay above p90, so request_p90_ms reads the fresh-scenario path.
constexpr std::size_t kSweepEvery = 40;  // one corner sweep per 40 requests
constexpr std::size_t kFreshEvery = 5;   // one fresh scenario per 5
constexpr std::size_t kCodecProbes = 200;

// The mixed grid of bench_scenario_engine: 16 technology corners
// (length x doping) times 36 drive points (driver x load) = 576.
constexpr std::array<double, 4> kLengthsUm{30.0, 60.0, 100.0, 150.0};
constexpr std::array<double, 4> kDopings{0.0, 0.05, 0.2, 1.0};
constexpr std::array<double, 6> kDriversKohm{2.0, 3.5, 5.0, 7.5, 10.0, 15.0};
constexpr std::array<double, 6> kLoadsFf{0.05, 0.1, 0.2, 0.35, 0.5, 0.8};

scenario::Scenario grid_scenario(std::size_t corner, std::size_t driver, std::size_t load) {
  scenario::Scenario s;
  s.tech.outer_diameter_nm = 10.0;
  s.tech.contact_resistance_kohm = 20.0;
  s.tech.dopant_concentration = kDopings[corner % 4];
  s.workload.length_um = kLengthsUm[corner / 4];
  s.workload.driver_resistance_kohm = kDriversKohm[driver];
  s.workload.load_capacitance_ff = kLoadsFf[load];
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 128;
  s.workload.coupling_cap_af_per_um = 30.0;
  s.analysis.delay = true;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.analysis.thermal = true;
  s.analysis.time_steps = 300;
  s.label = "grid/" + std::to_string(corner) + "/" + std::to_string(driver) + "/" +
            std::to_string(load);
  return s;
}

std::vector<scenario::Scenario> full_grid() {
  std::vector<scenario::Scenario> grid;
  for (std::size_t c = 0; c < 16; ++c) {
    for (std::size_t d = 0; d < kDriversKohm.size(); ++d) {
      for (std::size_t l = 0; l < kLoadsFf.size(); ++l) grid.push_back(grid_scenario(c, d, l));
    }
  }
  return grid;
}

struct Request {
  std::vector<scenario::Scenario> scenarios;
  bool fresh_single = false;
};

// One client's seeded request stream. Exactly one request in kSweepEvery is
// a corner sweep and one scenario in kFreshEvery is fresh; the seed picks
// where in each block they fall and every corner/drive value.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int client) : rng_(Stream(seed).fork(100 + client)) {}

  Request next() {
    if (requests_ % kSweepEvery == 0) sweep_at_ = rng_.below(kSweepEvery);
    const bool sweep = requests_++ % kSweepEvery == sweep_at_;
    const std::size_t corner = rng_.below(16);
    Request r;
    if (sweep) {
      for (std::size_t d = 0; d < kDriversKohm.size(); ++d) {
        for (std::size_t l = 0; l < kLoadsFf.size(); ++l) r.scenarios.push_back(make(corner, d, l));
      }
    } else {
      r.scenarios.push_back(make(corner, rng_.below(6), rng_.below(6)));
      r.fresh_single = last_fresh_;
    }
    return r;
  }

 private:
  scenario::Scenario make(std::size_t corner, std::size_t driver, std::size_t load) {
    if (scenarios_ % kFreshEvery == 0) fresh_at_ = rng_.below(kFreshEvery);
    scenario::Scenario s = grid_scenario(corner, driver, load);
    last_fresh_ = scenarios_++ % kFreshEvery == fresh_at_;
    if (last_fresh_) {
      s.workload.driver_resistance_kohm = rng_.uniform(2.0, 15.0);
      s.workload.load_capacitance_ff = rng_.uniform(0.05, 0.8);
      s.label = "fresh/" + std::to_string(corner);
    }
    return s;
  }

  Stream rng_;
  std::size_t requests_ = 0, scenarios_ = 0;
  std::size_t sweep_at_ = 0, fresh_at_ = 0;
  bool last_fresh_ = false;
};

// Disk tier decorator: forwards to the DiskCache and times each call from
// outside the library.
class TimedTier final : public scenario::CacheTier {
 public:
  explicit TimedTier(std::shared_ptr<service::DiskCache> disk) : disk_(std::move(disk)) {}

  std::optional<std::string> load(std::string_view stage, std::string_view schema,
                                   const scenario::ContentKey& key) override {
    const auto t0 = Clock::now();
    auto bytes = disk_->load(stage, schema, key);
    load_ns += elapsed_ns(t0);
    ++loads;
    return bytes;
  }
  void store(std::string_view stage, std::string_view schema, const scenario::ContentKey& key,
             std::string_view bytes) override {
    const auto t0 = Clock::now();
    disk_->store(stage, schema, key, bytes);
    store_ns += elapsed_ns(t0);
    ++stores;
  }
  const service::DiskCache& disk() const { return *disk_; }

  std::atomic<std::uint64_t> load_ns{0}, loads{0}, store_ns{0}, stores{0};

 private:
  static std::uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }
  std::shared_ptr<service::DiskCache> disk_;
};

// A started server over a disk cache directory plus its connected clients.
// Members are destroyed clients first, then the server (which joins its
// threads), then the tier.
struct Service {
  Service(const std::string& dir, int engine_threads)
      : tier(std::make_shared<TimedTier>(
            std::make_shared<service::DiskCache>(service::DiskCacheOptions{dir}))) {
    service::ServerOptions options;
    options.engine.tier = tier;
    options.engine.sweep.threads = engine_threads;
    server = std::make_unique<service::ScenarioServer>(options);
    server->start();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<service::ScenarioClient>(server->port()));
    }
  }
  std::shared_ptr<TimedTier> tier;
  std::unique_ptr<service::ScenarioServer> server;
  std::vector<std::unique_ptr<service::ScenarioClient>> clients;
};

struct Exchange {
  Request request;
  std::vector<scenario::ScenarioResult> results;
  double latency = 0.0;
  std::string error;
};

struct Phase {
  std::vector<Exchange> exchanges;
  double wall = 0.0;
};

Phase run_phase(Service& svc, std::vector<RequestStream>& streams, double seconds) {
  std::vector<std::vector<Exchange>> per_client(kClients);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto& log = per_client[c];
        while (log.empty() || seconds_since(start) < seconds) {
          Exchange ex;
          ex.request = streams[c].next();
          const auto t0 = Clock::now();
          try {
            const obs::ObsSpan span("bench.client_run", "service");
            ex.results = svc.clients[c]->run(ex.request.scenarios);
          } catch (const std::exception& e) {
            ex.error = e.what();
          }
          ex.latency = seconds_since(t0);
          log.push_back(std::move(ex));
        }
      });
    }
  }
  Phase phase;
  phase.wall = seconds_since(start);
  for (auto& log : per_client) {
    for (auto& ex : log) phase.exchanges.push_back(std::move(ex));
  }
  return phase;
}

// Outside the timed region: every served result must equal, byte for byte
// on the wire schema, a direct ScenarioEngine::run of the same scenario.
void check_phase(const Phase& phase, Report& report) {
  std::map<std::string, std::size_t> index;
  std::vector<scenario::Scenario> unique;
  for (const Exchange& ex : phase.exchanges) {
    for (const scenario::Scenario& s : ex.request.scenarios) {
      if (index.emplace(service::scenario_to_json(s), unique.size()).second) unique.push_back(s);
    }
  }
  const scenario::ScenarioEngine direct;
  const std::vector<scenario::ScenarioResult> want = direct.run_batch(unique);
  for (const Exchange& ex : phase.exchanges) {
    std::string why = ex.error;
    if (why.empty() && ex.results.size() != ex.request.scenarios.size()) {
      why = "result count mismatch";
    }
    for (std::size_t i = 0; why.empty() && i < ex.results.size(); ++i) {
      const std::size_t k = index.at(service::scenario_to_json(ex.request.scenarios[i]));
      if (service::result_to_json(ex.results[i]) != service::result_to_json(want[k])) {
        why = "served result differs from the direct engine for " + ex.request.scenarios[i].label;
      }
    }
    report.op(why.empty(), why);
  }
}

std::vector<double> latencies(const Phase& phase, bool fresh_single_only) {
  std::vector<double> v;
  for (const Exchange& ex : phase.exchanges) {
    if (!fresh_single_only || ex.request.fresh_single) v.push_back(ex.latency);
  }
  return v;
}

// Per-scenario cost of the wire codec: scenario and result, each encoded,
// parsed and decoded.
double codec_probe(const Phase& phase, std::size_t& samples) {
  std::vector<double> t;
  for (const Exchange& ex : phase.exchanges) {
    if (t.size() >= kCodecProbes || ex.results.empty()) continue;
    const obs::ObsSpan span("bench.codec", "service");
    const auto t0 = Clock::now();
    const std::string sj = service::scenario_to_json(ex.request.scenarios[0]);
    (void)service::scenario_from_json(service::parse_json(sj));
    const std::string rj = service::result_to_json(ex.results[0]);
    (void)service::result_from_json(service::parse_json(rj));
    t.push_back(seconds_since(t0));
  }
  samples = t.size();
  return median(std::move(t));
}

class DirGuard {
 public:
  explicit DirGuard(std::string path) : path_(std::move(path)) {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  DirGuard(const DirGuard&) = delete;
  DirGuard& operator=(const DirGuard&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

std::string service_stream_digest(std::uint64_t seed, int client, int count) {
  RequestStream stream(seed, client);
  std::string digest;
  for (int i = 0; i < count; ++i) {
    for (const auto& s : stream.next().scenarios) digest += service::scenario_to_json(s) + "\n";
  }
  return digest;
}

void run_service_mixed(const Args& args, Report& report) {
  const std::vector<scenario::Scenario> grid = full_grid();
  const std::string root = work_dir() + "/disk-" + std::to_string(::getpid());
  std::vector<std::unique_ptr<DirGuard>> dirs;
  std::unique_ptr<Service> svc;

  // Set-up: write the grid through a server into a fresh DiskCache, then
  // restart the server on it (memory cold, disk warm). Repeated.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dirs.push_back(std::make_unique<DirGuard>(root + "-" + std::to_string(rep)));
    svc.reset();
    const auto t0 = Clock::now();
    {
      // Nothing else is running yet, so population uses every core.
      Service populate(dirs.back()->path(), hardware_threads());
      const auto results = populate.clients[0]->run(grid);
      report.op(results.size() == grid.size(), "grid population returned too few results");
    }
    svc = std::make_unique<Service>(dirs.back()->path(), kEngineThreads);
    setup.push_back(seconds_since(t0));
  }
  report.note("threads", "clients=" + std::to_string(kClients) +
                             " engine=" + std::to_string(kEngineThreads));

  std::vector<RequestStream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(args.seed, c);

  if (!args.trace) {
    const Phase p = run_phase(*svc, streams, args.seconds);
    const double rss_mb = peak_rss_mb();  // before the checks allocate
    svc.reset();
    check_phase(p, report);
    const std::vector<double> all = latencies(p, false);
    const std::vector<double> fresh = latencies(p, true);
    std::size_t scenarios = 0;
    for (const Exchange& ex : p.exchanges) scenarios += ex.request.scenarios.size();
    report.add("setup_s", median(setup), "s", setup.size());
    report.add("transient_s", median(fresh), "s", fresh.size());
    report.add("samples_per_s", static_cast<double>(all.size()) / p.wall, "1/s", all.size());
    report.add("request_p50_ms", 1e3 * quantile(all, 0.5), "ms", all.size());
    report.add("request_p90_ms", 1e3 * quantile(all, 0.9), "ms", all.size());
    report.add("scenarios_per_s", static_cast<double>(scenarios) / p.wall, "1/s", all.size());
    report.add("peak_rss_mb", rss_mb, "MiB", 1);
    report.note("requests", std::to_string(all.size()) + " scenarios=" + std::to_string(scenarios));
    return;
  }

  const Phase plain = run_phase(*svc, streams, args.seconds / 2);
  // Restart so the traced phase also starts with a cold memory cache.
  svc.reset();
  svc = std::make_unique<Service>(dirs.back()->path(), kEngineThreads);
  const service::DiskCacheStats disk0 = svc->tier->disk().stats();
  const auto batches0 = svc->server->batches_dispatched();
  obs::TraceSession session;
  RegistryWindow window;
  const Phase traced = run_phase(*svc, streams, args.seconds / 2);
  window.close();
  const service::DiskCacheStats disk1 = svc->tier->disk().stats();
  const auto batches1 = svc->server->batches_dispatched();
  const scenario::CacheStats memo = svc->server->engine().cache().total_stats();
  const TimedTier& tier = *svc->tier;
  const double loads = static_cast<double>(tier.loads.load());
  const double stores = static_cast<double>(tier.stores.load());
  const double load_s = 1e-9 * static_cast<double>(tier.load_ns.load());
  const double store_s = 1e-9 * static_cast<double>(tier.store_ns.load());
  svc.reset();
  check_phase(plain, report);
  check_phase(traced, report);
  std::size_t codec_n = 0;
  const double codec_s = codec_probe(traced, codec_n);
  report.note("trace_file", write_trace(args, session));

  const std::vector<double> all = latencies(traced, false);
  const double ops = static_cast<double>(all.size());
  const std::size_t n = all.size();
  double rtt = 0.0;
  for (const double t : all) rtt += t;
  const double req_count = window.hist_count("cnti.service.request_ns");
  const double server_req = req_count > 0 ? window.hist_sum_s("cnti.service.request_ns") / req_count : 0.0;
  const double dispatches = window.hist_count("cnti.service.dispatch_ns");
  const double scen = window.hist_count("cnti.engine.scenario_ns");
  const double evals = window.hist_count("cnti.rom.evaluate_ns");
  report.add("service.server_request_s", server_req, "s", static_cast<std::size_t>(req_count));
  report.add("service.dispatch_s",
             dispatches > 0 ? window.hist_sum_s("cnti.service.dispatch_ns") / dispatches : 0.0, "s",
             static_cast<std::size_t>(dispatches));
  report.add("service.transport_wait_s", rtt / ops - server_req, "s", n);
  report.add("service.batches_per_request", static_cast<double>(batches1 - batches0) / ops,
             "ratio", n);
  report.add("service.codec_s", codec_s, "s", codec_n);
  report.add("service.disk_load_s", loads > 0 ? load_s / loads : 0.0, "s",
             static_cast<std::size_t>(loads));
  report.add("service.disk_store_s", stores > 0 ? store_s / stores : 0.0, "s",
             static_cast<std::size_t>(stores));
  const double hits = static_cast<double>(disk1.hits - disk0.hits);
  const double lookups = hits + static_cast<double>(disk1.misses - disk0.misses);
  report.add("service.disk_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio",
             static_cast<std::size_t>(lookups));
  report.add("service.disk_stores", static_cast<double>(disk1.stores - disk0.stores) / ops,
             "count", n);
  if (scen > 0) {
    report.add("scenario.engine_scenario_s", window.hist_sum_s("cnti.engine.scenario_ns") / scen,
               "s", static_cast<std::size_t>(scen));
  }
  const double memo_lookups = static_cast<double>(memo.hits + memo.misses);
  report.add("scenario.memo_hit_ratio",
             memo_lookups > 0 ? static_cast<double>(memo.hits) / memo_lookups : 0.0, "ratio", n);
  if (evals > 0) {
    report.add("rom.eval_s", window.hist_sum_s("cnti.rom.evaluate_ns") / evals, "s",
               static_cast<std::size_t>(evals));
  }
  report.add("rom.evaluations", window.counter("cnti.rom.evaluations") / ops, "count", n);
  report.add("obs.trace_overhead_pct",
             100.0 * (quantile(all, 0.5) / quantile(latencies(plain, false), 0.5) - 1.0), "%", n);
}

}  // namespace perfbench
