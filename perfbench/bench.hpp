// Shared plumbing of the repository benchmark: arguments, the seeded input
// generator, timing statistics, registry deltas and the result report.
// Every workload drives the library only through public headers; the
// benchmark never edits or instruments library code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// splitmix64 stream owned by the benchmark, so library RNG changes never
/// change the generated inputs. fork() derives an independent sub-stream.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  Stream fork(std::uint64_t id) const {
    Stream s(state_ ^ (0xd1b54a32d192ed03ULL * (id + 1)));
    s.next();
    return s;
  }

 private:
  std::uint64_t state_;
};

double median(std::vector<double> v);
double sum(const std::vector<double>& v);
/// Median wall time of `reps` calls of body().
template <typename F>
double median_time(int reps, F&& body) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    body();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}
/// Linear-interpolated quantile q in [0, 1] (v need not be sorted).
double quantile(std::vector<double> v, double q);
/// Host-speed factor for CPU-bound timings. On a shared host, other tenants
/// slow CPU-bound work by up to 2x for seconds to minutes at a time, in user
/// time (no steal time, no page faults), so raw wall times drift between runs
/// of the same code. A fixed reference kernel owned by the benchmark (SOR
/// sweeps on a grid Laplacian, no library code), timed right after each
/// operation on as many threads as the operation keeps busy, sees the same
/// slowdown. Returns kReferenceNominalS divided by the kernel's mean thread
/// CPU time: the factor that brings a wall time just measured to the speed
/// of an undisturbed host. CPU time, not wall time, so that threads the
/// library leaves running cannot stretch the reference.
double host_scale(int threads);
double peak_rss_mb();
int hardware_threads();

/// Registry counters/histograms accumulated between construction and
/// close(); the per-layer metrics are these deltas divided by the ops.
class RegistryWindow {
 public:
  RegistryWindow() : before_(cnti::obs::metrics_snapshot()) {}
  void close() { after_ = cnti::obs::metrics_snapshot(); }
  double counter(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double hist_sum_s(const std::string& name) const;

 private:
  cnti::obs::MetricsSnapshot before_, after_;
};

// The benchmark's own spans (bench.*) are constructed unconditionally: they
// record only while a TraceSession is active, and cost one relaxed load
// otherwise.

/// Collects metrics and operation outcomes, then prints one human line per
/// metric and the final JSON result line.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// One attempted operation; a false `ok` counts it failed and logs why.
  void op(bool ok, const std::string& what = {});
  void note(const std::string& key, const std::string& value);

  /// Prints every metric the mode requires (per-layer metrics a workload
  /// does not exercise read 0) and returns the process exit code.
  int finish();

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  Args args_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// Writes the drained events of a traced run under the work directory and
/// returns the file path.
std::string write_trace(const Args& args, cnti::obs::TraceSession& session);

/// Per-run scratch directory inside the checkout (created on demand).
std::string work_dir();

/// Checks the generator contract: equal seeds give equal streams, distinct
/// seeds distinct ones. Returns false (with a message) on violation.
bool generator_self_test();

// Workload entry points.
void run_bus(const Args& args, Report& report);
void run_stat_study(const Args& args, Report& report);
void run_service_mixed(const Args& args, Report& report);
/// VariabilitySpec.seed of the stat_study scenario for a benchmark seed.
std::uint64_t study_seed(std::uint64_t seed);
/// Serialises the first `count` requests of a service_mixed client stream
/// (the generator half of the self-test).
std::string service_stream_digest(std::uint64_t seed, int client, int count);

}  // namespace perfbench
