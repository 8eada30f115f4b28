// stat_study: a 16x128 statistical signal-integrity study on the global
// thread pool. Set-up builds the corner-anchored parametrized ROM; each
// timed operation is one run_statistical shard of kBatch samples. The
// timed region is ROM blend, termination and reduced transient only (no
// sparse LU), so pool and ROM changes show here while bus_* stays flat.
#include <cmath>
#include <exception>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/multiscale.hpp"
#include "numerics/thread_pool.hpp"
#include "rom/interconnect_rom.hpp"
#include "rom/parametrized_rom.hpp"
#include "scenario/engine.hpp"
#include "scenario/statistical.hpp"

namespace perfbench {

namespace {

using namespace cnti;

constexpr int kTotalSamples = 100000;  // the study the shards belong to
constexpr std::uint64_t kBatch = 256;  // samples per timed operation
constexpr int kCheckSamples = 64;      // shard-merge identity check
constexpr int kSetupReps = 3;
constexpr int kProbePoints = 32;       // rom.blend_s / rom.eval_s points
constexpr std::size_t kEfficiencySamples = 96;

scenario::Scenario study_scenario(std::uint64_t seed, int samples) {
  scenario::Scenario s;
  s.label = "stat-study";
  s.workload.bus_lines = 16;
  s.workload.bus_segments = 128;
  s.analysis.delay = false;
  s.analysis.noise = true;
  s.analysis.noise_model = scenario::NoiseModel::kReducedOrder;
  s.analysis.time_steps = 200;
  s.variability.seed = study_seed(seed);
  s.variability.samples = samples;
  s.variability.resistance_span = 0.15;
  s.variability.capacitance_span = 0.10;
  s.variability.coupling_span = 0.20;
  return s;
}

std::string shard_problem(const scenario::StatisticalShard& shard) {
  for (std::size_t i = 0; i < shard.noise_v.size(); ++i) {
    if (!std::isfinite(shard.noise_v[i]) || !std::isfinite(shard.delay_s[i])) {
      return "sample " + std::to_string(shard.begin + i) + " is not finite";
    }
  }
  return shard.noise_v.size() == shard.end - shard.begin ? "" : "short shard";
}

struct Phase {
  std::vector<double> latency;  ///< Per-shard wall seconds.
  std::vector<double> scaled;   ///< The same, times host_scale(threads) taken right after.
  std::uint64_t samples = 0;
  scenario::StatisticalShard first;
};

Phase run_phase(const scenario::ScenarioEngine& engine, const scenario::Scenario& s,
                int threads, double seconds, Report& report) {
  Phase phase;
  const auto start = Clock::now();
  for (std::uint64_t b = 0; b == 0 || seconds_since(start) < seconds; ++b) {
    const std::uint64_t begin = (b * kBatch) % (kTotalSamples - kBatch);
    try {
      const auto t0 = Clock::now();
      scenario::StatisticalShard shard = [&] {
        const obs::ObsSpan span("bench.run_statistical", "scenario");
        return engine.run_statistical(s, begin, begin + kBatch);
      }();
      phase.latency.push_back(seconds_since(t0));
      phase.scaled.push_back(phase.latency.back() * host_scale(threads));
      phase.samples += kBatch;
      const std::string why = shard_problem(shard);
      report.op(why.empty(), why);
      if (b == 0) phase.first = std::move(shard);
    } catch (const std::exception& e) {
      report.op(false, e.what());
    }
  }
  return phase;
}

std::string study_bytes(std::vector<scenario::StatisticalShard> shards) {
  std::ostringstream out;
  scenario::write_study_json(out, scenario::reduce_shards(std::move(shards)));
  return out.str();
}

bool finite_summary(const numerics::Summary& s) {
  return s.count > 0 && std::isfinite(s.mean) && std::isfinite(s.stddev) &&
         std::isfinite(s.min) && std::isfinite(s.max) && std::isfinite(s.p05) &&
         std::isfinite(s.p95);
}

// Outside the timed region: a small study of the same seed merged from one
// shard and from four must be byte-identical, its statistics finite, and
// its samples equal to the timed run's first samples.
void check_study(const scenario::ScenarioEngine& engine, std::uint64_t seed,
                 const scenario::StatisticalShard& timed_first, Report& report) {
  try {
    const scenario::Scenario c = study_scenario(seed, kCheckSamples);
    const scenario::StatisticalShard whole = engine.run_statistical(c);
    std::vector<scenario::StatisticalShard> parts;
    for (std::uint64_t k = 0; k < 4; ++k) {
      const auto [lo, hi] = scenario::shard_range(kCheckSamples, k, 4);
      parts.push_back(engine.run_statistical(c, lo, hi));
    }
    const scenario::StatisticalStudy study = scenario::reduce_shards({whole});
    report.op(study_bytes({whole}) == study_bytes(parts), "shard merge not byte-identical");
    report.op(finite_summary(study.noise_v) && finite_summary(study.delay_s) &&
                  study.delay_invalid == 0,
              "study statistics not finite");
    bool same = timed_first.begin == 0;
    for (int i = 0; same && i < kCheckSamples; ++i) {
      same = whole.noise_v[i] == timed_first.noise_v[i] &&
             whole.delay_s[i] == timed_first.delay_s[i];
    }
    report.op(same, "check study differs from the timed samples");
  } catch (const std::exception& e) {
    report.op(false, e.what());
  }
}

// rom-layer probes on a benchmark-owned copy of the study's parametrized
// ROM, evaluated at the study's own seeded sample points.
void rom_probes(const scenario::Scenario& s, Report& report) {
  const core::MultiscaleInput in = scenario::to_multiscale_input(s);
  const core::ChannelStage channels =
      core::doping_channel_stage(s.tech.dopant, s.tech.dopant_concentration);
  const core::MwcntLine line(core::multiscale_line_spec(
      in, channels, core::environment_capacitance(s.tech.environment)));
  const circuit::BusTopology topology = scenario::to_bus_topology(s, line);
  const circuit::BusDrive drive = scenario::to_bus_drive(s);

  const auto t_build = Clock::now();
  const auto prom = [&] {
    const obs::ObsSpan span("bench.prom_build", "rom");
    return std::make_unique<rom::ParametrizedBusRom>(
        topology, scenario::tech_box(s.variability), drive.aggressor);
  }();
  report.add("rom.prom_build_s", seconds_since(t_build), "s", 1);
  report.add("rom.order", prom->order(), "count", 1);
  report.add("rom.full_order", prom->full_order(), "count", 1);

  rom::BusScenario sc;
  sc.driver_ohm = drive.driver_ohm;
  sc.receiver_load_f = drive.receiver_load_f;
  sc.vdd_v = drive.vdd_v;
  sc.edge_time_s = drive.edge_time_s;
  std::vector<double> blend, eval;
  for (int i = 0; i < kProbePoints; ++i) {
    const rom::BusTechPoint p = scenario::sample_tech_point(s.variability, i);
    auto t0 = Clock::now();
    rom::ReducedModel model = [&] {
      const obs::ObsSpan span("bench.model_at", "rom");
      return prom->model_at(p);
    }();
    blend.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      const obs::ObsSpan span("bench.evaluate_reduced_bus", "rom");
      (void)rom::evaluate_reduced_bus(model, prom->lines(), prom->aggressor(), sc,
                                      prom->window_s(p, sc), s.analysis.time_steps);
    }
    eval.push_back(seconds_since(t0));
  }
  report.add("rom.blend_s", median(blend), "s", blend.size());
  report.add("rom.eval_s", median(eval), "s", eval.size());

  // Pool efficiency: the study's per-sample body at 1 thread against the
  // global pool, (t1 / tN) / N.
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      (void)prom->evaluate(scenario::sample_tech_point(s.variability, i), sc,
                           s.analysis.time_steps);
    }
  };
  const auto t_serial = Clock::now();
  numerics::parallel_chunks(kEfficiencySamples, 1, body, 1);
  const double t1 = seconds_since(t_serial);
  const auto t_pool = Clock::now();
  numerics::parallel_chunks(kEfficiencySamples, 1, body, 0);
  const double tn = seconds_since(t_pool);
  const int n = numerics::ThreadPool::default_thread_count();
  report.add("numerics.pool_efficiency", t1 / tn / n, "ratio", 2);
}

}  // namespace

std::uint64_t study_seed(std::uint64_t seed) { return Stream(seed).fork(2).next(); }

void run_stat_study(const Args& args, Report& report) {
  const scenario::Scenario s = study_scenario(args.seed, kTotalSamples);
  const int threads = numerics::ThreadPool::default_thread_count();

  // Set-up: a fresh engine and its parametrized-ROM build, repeated.
  std::vector<double> setup;
  std::unique_ptr<scenario::ScenarioEngine> engine;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    engine = std::make_unique<scenario::ScenarioEngine>();
    (void)engine->run_statistical(s, 0, 0);
    setup.push_back(seconds_since(t0));
  }
  const double setup_scale = host_scale(1);  // the ROM build is single-threaded
  report.note("threads", std::to_string(threads));
  report.note("study", "16x128 steps=200 batch=" + std::to_string(kBatch) +
                           " variability_seed=" + std::to_string(s.variability.seed));

  if (!args.trace) {
    const Phase p = run_phase(*engine, s, threads, args.seconds, report);
    const double rss_mb = peak_rss_mb();  // before the checks allocate
    check_study(*engine, args.seed, p.first, report);
    const std::size_t n = p.scaled.size();
    std::vector<double> per_sample;
    for (const double t : p.scaled) per_sample.push_back(t * threads / kBatch);
    report.add("setup_s", median(setup) * setup_scale, "s", setup.size());
    report.add("transient_s", median(per_sample), "s", n);
    report.add("samples_per_s", static_cast<double>(p.samples) / sum(p.scaled), "1/s", n);
    report.add("request_p50_ms", 1e3 * quantile(p.scaled, 0.5), "ms", n);
    report.add("request_p90_ms", 1e3 * quantile(p.scaled, 0.9), "ms", n);
    report.add("scenarios_per_s", static_cast<double>(n) / sum(p.scaled), "1/s", n);
    report.add("peak_rss_mb", rss_mb, "MiB", 1);
    report.note("samples", std::to_string(p.samples));
    report.note("unscaled", "median shard " + std::to_string(median(p.latency)) +
                                " s, median host_scale " +
                                std::to_string(median(p.scaled) / median(p.latency)));
    return;
  }

  const Phase plain = run_phase(*engine, s, threads, args.seconds / 2, report);
  obs::TraceSession session;
  const scenario::CacheStats memo0 = engine->cache().total_stats();
  RegistryWindow window;
  const Phase traced = run_phase(*engine, s, threads, args.seconds / 2, report);
  window.close();
  const scenario::CacheStats memo1 = engine->cache().total_stats();
  check_study(*engine, args.seed, traced.first, report);
  rom_probes(s, report);
  report.note("trace_file", write_trace(args, session));

  const double ops = static_cast<double>(traced.latency.size());
  const std::size_t n = traced.latency.size();
  report.add("numerics.pool_run_s", window.hist_sum_s("cnti.pool.run_ns") / ops, "s", n);
  report.add("numerics.pool_queue_wait_s", window.hist_sum_s("cnti.pool.queue_wait_ns") / ops,
             "s", n);
  report.add("rom.evaluations", window.counter("cnti.rom.evaluations") / ops, "count", n);
  report.add("rom.prima_reductions", window.counter("cnti.rom.reductions") / ops, "count", n);
  const double scen = window.hist_count("cnti.engine.scenario_ns");
  if (scen > 0) {
    report.add("scenario.engine_scenario_s", window.hist_sum_s("cnti.engine.scenario_ns") / scen,
               "s", static_cast<std::size_t>(scen));
  }
  const double hits = static_cast<double>(memo1.hits - memo0.hits);
  const double lookups = hits + static_cast<double>(memo1.misses - memo0.misses);
  report.add("scenario.memo_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio", n);
  const double plain_rate = static_cast<double>(plain.samples) / sum(plain.scaled);
  const double traced_rate = static_cast<double>(traced.samples) / sum(traced.scaled);
  report.add("obs.trace_overhead_pct", 100.0 * (plain_rate / traced_rate - 1.0), "%", n);
}

}  // namespace perfbench
