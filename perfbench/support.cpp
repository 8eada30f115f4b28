#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

struct CatalogueEntry {
  const char* name;
  const char* unit;
};

// The metric catalogue; names and units match BENCHMARK.json.
constexpr CatalogueEntry kEndToEnd[] = {
    {"setup_s", "s"},           {"transient_s", "s"},
    {"samples_per_s", "1/s"},   {"request_p50_ms", "ms"},
    {"request_p90_ms", "ms"},   {"scenarios_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr CatalogueEntry kPerLayer[] = {
    {"numerics.amd_s", "s"},
    {"numerics.lu_analyze_s", "s"},
    {"numerics.lu_refactor_s", "s"},
    {"numerics.lu_solve_s", "s"},
    {"numerics.lu_nnz", "count"},
    {"numerics.factorizations", "count"},
    {"numerics.solves", "count"},
    {"numerics.factor_per_solve", "ratio"},
    {"numerics.factor_busy_s", "s"},
    {"numerics.solve_busy_s", "s"},
    {"numerics.repivot_fallbacks", "count"},
    {"numerics.blocked_refactorizations", "count"},
    {"numerics.pool_run_s", "s"},
    {"numerics.pool_queue_wait_s", "s"},
    {"numerics.pool_efficiency", "ratio"},
    {"circuit.build_netlist_s", "s"},
    {"circuit.self_s", "s"},
    {"rom.prom_build_s", "s"},
    {"rom.order", "count"},
    {"rom.full_order", "count"},
    {"rom.blend_s", "s"},
    {"rom.eval_s", "s"},
    {"rom.evaluations", "count"},
    {"rom.prima_reductions", "count"},
    {"scenario.engine_scenario_s", "s"},
    {"scenario.memo_hit_ratio", "ratio"},
    {"service.server_request_s", "s"},
    {"service.dispatch_s", "s"},
    {"service.transport_wait_s", "s"},
    {"service.batches_per_request", "ratio"},
    {"service.codec_s", "s"},
    {"service.disk_load_s", "s"},
    {"service.disk_store_s", "s"},
    {"service.disk_hit_ratio", "ratio"},
    {"service.disk_stores", "count"},
    {"obs.trace_overhead_pct", "%"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

// The host-speed reference kernel: kSweeps SOR sweeps on the 5-point
// Laplacian of a kGrid x kGrid grid (2,304 unknowns, L2-resident), as sparse
// and index-bound as the library's solver loops.
constexpr int kGrid = 48;
constexpr int kSweeps = 300;
// Thread CPU time of one kernel run on an undisturbed host: about the
// fastest of many runs on a 4-vCPU Intel Xeon (Sapphire Rapids) VM, GCC 12
// -O3. It sets only the scale of the reported times.
constexpr double kReferenceNominalS = 0.0105;

struct Csr {
  std::vector<int> row_ptr, col;
  std::vector<double> val;
};

const Csr& grid_laplacian() {
  static const Csr a = [] {
    Csr m;
    m.row_ptr.push_back(0);
    for (int i = 0; i < kGrid; ++i) {
      for (int j = 0; j < kGrid; ++j) {
        const int r = i * kGrid + j;
        const auto add = [&m](int c, double v) {
          m.col.push_back(c);
          m.val.push_back(v);
        };
        if (i > 0) add(r - kGrid, -1.0);
        if (j > 0) add(r - 1, -1.0);
        add(r, 4.01);
        if (j + 1 < kGrid) add(r + 1, -1.0);
        if (i + 1 < kGrid) add(r + kGrid, -1.0);
        m.row_ptr.push_back(static_cast<int>(m.col.size()));
      }
    }
    return m;
  }();
  return a;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

volatile double g_reference_sink = 0.0;

// Thread CPU seconds of one run of the reference kernel.
double reference_kernel() {
  const Csr& a = grid_laplacian();
  const std::size_t n = a.row_ptr.size() - 1;
  std::vector<double> x(n, 0.0);
  const double t0 = thread_cpu_s();
  for (int s = 0; s < kSweeps; ++s) {
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 1.0, diag = 1.0;
      for (int k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
        if (static_cast<std::size_t>(a.col[k]) == r) {
          diag = a.val[k];
        } else {
          acc -= a.val[k] * x[a.col[k]];
        }
      }
      x[r] += 1.2 * (acc / diag - x[r]);
    }
  }
  const double t = thread_cpu_s() - t0;
  g_reference_sink = x[n / 2];
  return t;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double host_scale(int threads) {
  std::vector<double> cpu(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;
    for (int i = 0; i < threads; ++i) pool.emplace_back([&cpu, i] { cpu[i] = reference_kernel(); });
  }
  return kReferenceNominalS * threads / std::accumulate(cpu.begin(), cpu.end(), 0.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double RegistryWindow::counter(const std::string& name) const {
  const auto a = after_.counters.find(name);
  const auto b = before_.counters.find(name);
  const double va = a == after_.counters.end() ? 0.0 : static_cast<double>(a->second);
  const double vb = b == before_.counters.end() ? 0.0 : static_cast<double>(b->second);
  return va - vb;
}

double RegistryWindow::hist_count(const std::string& name) const {
  const auto a = after_.histograms.find(name);
  const auto b = before_.histograms.find(name);
  const double va = a == after_.histograms.end() ? 0.0 : static_cast<double>(a->second.count);
  const double vb = b == before_.histograms.end() ? 0.0 : static_cast<double>(b->second.count);
  return va - vb;
}

double RegistryWindow::hist_sum_s(const std::string& name) const {
  const auto a = after_.histograms.find(name);
  const auto b = before_.histograms.find(name);
  const double va = a == after_.histograms.end() ? 0.0 : static_cast<double>(a->second.sum_ns);
  const double vb = b == before_.histograms.end() ? 0.0 : static_cast<double>(b->second.sum_ns);
  return (va - vb) * 1e-9;
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: operation failed: " << what << "\n";
  }
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

int Report::finish() {
  bool complete = true;
  std::string json = "{";
  bool first = true;
  const auto emit = [&](const CatalogueEntry& e) {
    auto it = metrics_.find(e.name);
    Metric m;
    if (it != metrics_.end()) {
      m = it->second;
    } else if (args_.trace) {
      m.unit = e.unit;  // layer not exercised by this workload: 0
    } else {
      std::cerr << "perfbench: end-to-end metric " << e.name << " missing\n";
      complete = false;
      return;
    }
    if (m.unit != e.unit || !std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << e.name << " has unit '" << m.unit
                << "' or a non-finite value\n";
      complete = false;
      return;
    }
    std::cout << "metric " << e.name << " = " << number(m.value) << " " << m.unit
              << " (n=" << m.samples << ")"
              << (it == metrics_.end() ? " [layer not exercised]" : "") << "\n";
    json += std::string(first ? "" : ", ") + "\"" + e.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  };
  if (args_.trace) {
    for (const auto& e : kPerLayer) emit(e);
  } else {
    for (const auto& e : kEndToEnd) emit(e);
  }
  json += "}";

  const double error_rate =
      attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 1.0;
  std::cout << "error_rate = " << number(error_rate) << " (" << failed_ << " of "
            << attempted_ << " operations failed)\n";

  std::cout << "env workload=" << args_.workload << " seed=" << args_.seed
            << " seconds=" << args_.seconds << " trace=" << args_.trace
            << " nproc=" << hardware_threads() << " build_type=" << PERFBENCH_BUILD_TYPE
            << " compiler=" << PERFBENCH_COMPILER << "\n";
  std::cout << "env cpu=" << cpu_model() << "\n";
  for (const auto& [k, v] : notes_) std::cout << "env " << k << "=" << v << "\n";

  const bool correct = complete && attempted_ > 0 && failed_ == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": " << json << "}" << std::endl;
  return correct ? 0 : 1;
}

std::string work_dir() {
  const std::filesystem::path dir =
      std::filesystem::current_path() / ".bench_build" / "perfbench-work";
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string write_trace(const Args& args, cnti::obs::TraceSession& session) {
  const std::string path = work_dir() + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  session.write_json(out, true);
  return path;
}

bool generator_self_test() {
  Stream a(42), b(42), c(43);
  bool ok = true;
  bool differs = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next();
    ok = ok && va == b.next();
    differs = differs || va != c.next();
  }
  const std::string s1 = service_stream_digest(7, 0, 40);
  ok = ok && differs && s1 == service_stream_digest(7, 0, 40) &&
       s1 != service_stream_digest(8, 0, 40) && s1 != service_stream_digest(7, 1, 40) &&
       study_seed(7) == study_seed(7) && study_seed(7) != study_seed(8);
  if (!ok) std::cerr << "perfbench: generator self-test failed\n";
  return ok;
}

}  // namespace perfbench
