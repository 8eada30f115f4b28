// The deterministic parallel execution subsystem: ThreadPool scheduling
// contracts, counter-based RNG stream forking, mergeable-accumulator
// semantics, and the headline guarantee — every stochastic result
// (run_resistance_mc, WaferMap, sample_tubes, run_sweep) is bit-identical
// at any thread count and across repeated runs with the same seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "core/sweep_engine.hpp"
#include "numerics/rng.hpp"
#include "numerics/stats.hpp"
#include "numerics/thread_pool.hpp"
#include "process/cvd.hpp"
#include "process/variability.hpp"
#include "process/wafer.hpp"

namespace cn = cnti::numerics;
namespace cc = cnti::core;
namespace cp = cnti::process;

namespace {

// Exact (bitwise) Summary equality — the determinism contract is "same
// bits", not "close".
void expect_summary_identical(const cn::Summary& a, const cn::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p05, b.p05);
  EXPECT_EQ(a.p95, b.p95);
}

// ---------------------------------------------------------------------------
// ThreadPool scheduling contracts.
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  cn::ThreadPool pool(4);
  const std::size_t n = 1003;
  std::vector<int> hits(n, 0);  // disjoint chunk writes, no atomics needed
  pool.parallel_chunks(n, 17, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkBoundariesDependOnlyOnGrain) {
  // Chunk shape must be a pure function of (n, grain): with n=10, grain=4
  // the chunks are [0,4) [4,8) [8,10) at any thread count.
  for (int threads : {1, 3}) {
    cn::ThreadPool pool(threads);
    std::vector<std::pair<std::size_t, std::size_t>> seen(3);
    pool.parallel_chunks(10, 4, [&](std::size_t begin, std::size_t end) {
      seen[begin / 4] = {begin, end};
    });
    EXPECT_EQ(seen[0], (std::pair<std::size_t, std::size_t>{0, 4}));
    EXPECT_EQ(seen[1], (std::pair<std::size_t, std::size_t>{4, 8}));
    EXPECT_EQ(seen[2], (std::pair<std::size_t, std::size_t>{8, 10}));
  }
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  cn::ThreadPool pool(2);
  bool called = false;
  pool.parallel_chunks(0, 8, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesTheFirstChunkException) {
  cn::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_chunks(100, 10,
                           [](std::size_t begin, std::size_t) {
                             if (begin == 50) {
                               throw cnti::NumericalError("chunk failed");
                             }
                           }),
      cnti::NumericalError);
  // The pool survives a failed job and runs the next one normally.
  std::atomic<int> count{0};
  pool.parallel_chunks(100, 10, [&](std::size_t begin, std::size_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReentrantCallsRunSerially) {
  // A chunk body that re-enters the pool must not deadlock; the nested
  // call degrades to serial execution on the calling thread.
  cn::ThreadPool pool(4);
  std::atomic<int> inner_items{0};
  pool.parallel_chunks(8, 1, [&](std::size_t, std::size_t) {
    pool.parallel_chunks(5, 2, [&](std::size_t begin, std::size_t end) {
      inner_items += static_cast<int>(end - begin);
    });
  });
  EXPECT_EQ(inner_items.load(), 8 * 5);
}

TEST(ThreadPool, ConcurrentSubmittersSerializeSafely) {
  // Several application threads submitting to one pool (the global_pool()
  // pattern behind every threads==0 knob) must not corrupt the job
  // handshake; jobs serialize and every item of every job runs once.
  cn::ThreadPool pool(4);
  constexpr int kSubmitters = 6;
  constexpr std::size_t kItems = 500;
  std::vector<std::vector<int>> hits(kSubmitters,
                                     std::vector<int>(kItems, 0));
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &hits, s] {
      pool.parallel_chunks(kItems, 7,
                           [&hits, s](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               ++hits[s][i];
                             }
                           });
    });
  }
  for (auto& t : submitters) t.join();
  for (int s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[s][i], 1) << "submitter " << s << " index " << i;
    }
  }
}

/// Threads of this process, or 0 where /proc/self/task is unavailable.
std::size_t live_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? 0 : n;
}

TEST(ThreadPool, PrivatePoolWidthIsCappedAtTheChunkCount) {
  if (live_threads() == 0) GTEST_SKIP() << "/proc/self/task not readable";
  // A one-chunk job runs on the calling thread and spawns nothing.
  const std::size_t before = live_threads();
  std::thread::id ran_on;
  std::size_t during = 0;
  cn::parallel_chunks(
      10, 16,
      [&](std::size_t, std::size_t) {
        ran_on = std::this_thread::get_id();
        during = live_threads();
      },
      4);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(during, before);
  // Three chunks on an eight-thread request: at most two workers join the
  // caller.
  std::atomic<std::size_t> peak{0};
  cn::parallel_chunks(
      3, 1,
      [&](std::size_t, std::size_t) {
        const std::size_t now = live_threads();
        std::size_t seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
      },
      8);
  EXPECT_LE(peak.load(), before + 2);
}

TEST(ThreadPool, ThreadCountAndEnvKnob) {
  EXPECT_EQ(cn::ThreadPool(3).thread_count(), 3);
  EXPECT_EQ(cn::ThreadPool(1).thread_count(), 1);
  // Preserve the ambient CNTI_THREADS: CI sets it to pin the width for
  // the whole binary, and later tests must still see that value.
  const char* prior_raw = std::getenv("CNTI_THREADS");
  const std::string prior = prior_raw ? prior_raw : "";
  ASSERT_EQ(setenv("CNTI_THREADS", "5", 1), 0);
  EXPECT_EQ(cn::ThreadPool::default_thread_count(), 5);
  ASSERT_EQ(setenv("CNTI_THREADS", "0", 1), 0);  // invalid -> fallback
  EXPECT_GE(cn::ThreadPool::default_thread_count(), 1);
  if (prior_raw) {
    ASSERT_EQ(setenv("CNTI_THREADS", prior.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("CNTI_THREADS"), 0);
  }
  EXPECT_GE(cn::ThreadPool::default_thread_count(), 1);
}

// ---------------------------------------------------------------------------
// RNG stream forking properties.
// ---------------------------------------------------------------------------

TEST(RngFork, PureFunctionOfSeedAndStreamId) {
  cn::Rng a(99), b(99);
  // Consuming the parent must not move its fork streams.
  for (int i = 0; i < 123; ++i) a.uniform();
  cn::Rng fa = a.fork(7), fb = b.fork(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(fa.uniform(), fb.uniform());
  }
}

TEST(RngFork, DistinctStreamsAndSeedsDiffer) {
  cn::Rng root(1234);
  cn::Rng s0 = root.fork(0), s1 = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.uniform() == s1.uniform()) ++equal;
  }
  EXPECT_EQ(equal, 0);
  // Different root seeds give different streams for the same id.
  cn::Rng other(1235);
  EXPECT_NE(root.fork(3).uniform(), other.fork(3).uniform());
}

TEST(RngFork, AdjacentStreamsAreStatisticallyIndependent) {
  // Sample-level cross-correlation between forked streams over 10k
  // samples. For truly independent U(0,1) streams the correlation
  // estimator has sigma = 1/sqrt(n) = 0.01; bound at 4 sigma.
  const int n = 10000;
  cn::Rng root(42);
  for (std::uint64_t id : {0ULL, 1ULL, 100ULL, 1000000ULL}) {
    cn::Rng sa = root.fork(id), sb = root.fork(id + 1);
    double sum_a = 0, sum_b = 0, sum_ab = 0, sum_a2 = 0, sum_b2 = 0;
    for (int i = 0; i < n; ++i) {
      const double x = sa.uniform(), y = sb.uniform();
      sum_a += x;
      sum_b += y;
      sum_ab += x * y;
      sum_a2 += x * x;
      sum_b2 += y * y;
    }
    const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
    const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
    const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
    const double corr = cov / std::sqrt(var_a * var_b);
    EXPECT_LT(std::abs(corr), 0.04) << "streams " << id << "," << id + 1;
    // Marginals stay uniform: mean within 5 sigma of 1/2.
    EXPECT_NEAR(sum_a / n, 0.5, 5.0 / std::sqrt(12.0 * n));
  }
}

// ---------------------------------------------------------------------------
// Accumulator merge semantics.
// ---------------------------------------------------------------------------

TEST(Accumulator, MergeEqualsSinglePassOverConcatenation) {
  cn::Rng rng(7);
  std::vector<double> data;
  for (int i = 0; i < 10000; ++i) data.push_back(rng.lognormal_median(50, 0.6));

  cn::Accumulator single;
  for (double v : data) single.add(v);

  // Split at arbitrary ragged boundaries and merge in order.
  const std::vector<std::size_t> cuts = {0, 17, 1000, 1001, 4096, 9999,
                                         10000};
  cn::Accumulator merged;
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    cn::Accumulator part;
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) part.add(data[i]);
    merged.merge(part);
  }

  // Count/min/max are exact; the Chan-merged moments agree with the
  // single Welford pass to floating-point reassociation error.
  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.min(), single.min());
  EXPECT_EQ(merged.max(), single.max());
  EXPECT_NEAR(merged.mean(), single.mean(), 1e-10 * std::abs(single.mean()));
  EXPECT_NEAR(merged.variance(), single.variance(),
              1e-9 * single.variance());
  // Order-preserving merge -> identical retained sample sequence ->
  // bit-identical percentiles.
  ASSERT_EQ(merged.values(), single.values());
  const auto sm = merged.summary(), ss = single.summary();
  EXPECT_EQ(sm.median, ss.median);
  EXPECT_EQ(sm.p05, ss.p05);
  EXPECT_EQ(sm.p95, ss.p95);
}

TEST(Accumulator, RejectsSelfMerge) {
  cn::Accumulator acc;
  acc.add(1.0);
  EXPECT_THROW(acc.merge(acc), cnti::PreconditionError);
}

TEST(Accumulator, MergeHandlesEmptySides) {
  cn::Accumulator empty, filled;
  filled.add(3.0);
  filled.add(-1.0);
  cn::Accumulator target;
  target.merge(empty);  // no-op
  EXPECT_EQ(target.count(), 0u);
  target.merge(filled);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.min(), -1.0);
  EXPECT_EQ(target.max(), 3.0);
  target.merge(empty);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 1.0);
}

TEST(Accumulator, AgreesWithSummarize) {
  cn::Rng rng(11);
  std::vector<double> data;
  cn::Accumulator acc;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    data.push_back(v);
    acc.add(v);
  }
  const auto a = acc.summary();
  const auto b = cn::summarize(data);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.median, b.median);  // same sorted samples
  EXPECT_NEAR(a.mean, b.mean, 1e-12 * std::abs(b.mean));
  EXPECT_NEAR(a.stddev, b.stddev, 1e-10 * b.stddev);
}

// ---------------------------------------------------------------------------
// Bit-identical physics at every thread count.
// ---------------------------------------------------------------------------

class ThreadCountInvariance : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Parallel, ThreadCountInvariance,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST_P(ThreadCountInvariance, ResistanceMcMatchesSerial) {
  cp::VariabilityConfig cfg;
  cfg.samples = 6000;
  cp::VariabilityConfig serial = cfg;
  serial.threads = 1;
  cfg.threads = GetParam();
  const auto a = cp::run_resistance_mc(serial);
  const auto b = cp::run_resistance_mc(cfg);
  expect_summary_identical(a.resistance_kohm, b.resistance_kohm);
  EXPECT_EQ(a.open_fraction, b.open_fraction);
  EXPECT_EQ(a.tail_fraction, b.tail_fraction);
}

TEST_P(ThreadCountInvariance, DopedResistanceMcMatchesSerial) {
  cp::VariabilityConfig cfg;
  cfg.samples = 4000;
  cfg.dopant_concentration = 1.0;
  cp::VariabilityConfig serial = cfg;
  serial.threads = 1;
  cfg.threads = GetParam();
  const auto a = cp::run_resistance_mc(serial);
  const auto b = cp::run_resistance_mc(cfg);
  expect_summary_identical(a.resistance_kohm, b.resistance_kohm);
}

TEST_P(ThreadCountInvariance, WaferMapMatchesSerial) {
  cp::WaferSpec spec;
  cp::GrowthRecipe nominal;
  nominal.catalyst = cp::Catalyst::kCo;
  nominal.temperature_c = 400.0;
  cnti::numerics::Rng rng_a(2018), rng_b(2018);
  const cp::WaferMap a(spec, nominal, rng_a, 1);
  const cp::WaferMap b(spec, nominal, rng_b, GetParam());
  ASSERT_EQ(a.dies().size(), b.dies().size());
  for (std::size_t i = 0; i < a.dies().size(); ++i) {
    const auto& da = a.dies()[i];
    const auto& db = b.dies()[i];
    EXPECT_EQ(da.x_mm, db.x_mm);
    EXPECT_EQ(da.y_mm, db.y_mm);
    EXPECT_EQ(da.recipe.temperature_c, db.recipe.temperature_c);
    EXPECT_EQ(da.recipe.catalyst_thickness_nm,
              db.recipe.catalyst_thickness_nm);
    EXPECT_EQ(da.quality.growth_rate_um_per_min,
              db.quality.growth_rate_um_per_min);
    EXPECT_EQ(da.quality.defect_spacing_um, db.quality.defect_spacing_um);
  }
  EXPECT_EQ(a.diameter_uniformity(), b.diameter_uniformity());
  EXPECT_EQ(a.yield(), b.yield());
}

TEST_P(ThreadCountInvariance, SampledTubeBatchMatchesSerial) {
  const auto quality = cp::evaluate_recipe(cp::GrowthRecipe{});
  const cnti::numerics::Rng base(55);
  const auto a = cp::sample_tubes(quality, 3000, base, 1);
  const auto b = cp::sample_tubes(quality, 3000, base, GetParam());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].diameter_nm, b[i].diameter_nm);
    EXPECT_EQ(a[i].walls, b[i].walls);
    EXPECT_EQ(a[i].defect_spacing_um, b[i].defect_spacing_um);
    EXPECT_EQ(a[i].length_um, b[i].length_um);
    EXPECT_EQ(a[i].via_filled, b[i].via_filled);
  }
}

TEST(Parallel, RepeatedRunsWithSameSeedAreIdentical) {
  cp::VariabilityConfig cfg;
  cfg.samples = 3000;
  cfg.threads = 4;
  const auto a = cp::run_resistance_mc(cfg);
  const auto b = cp::run_resistance_mc(cfg);
  expect_summary_identical(a.resistance_kohm, b.resistance_kohm);
  EXPECT_EQ(a.open_fraction, b.open_fraction);
  EXPECT_EQ(a.tail_fraction, b.tail_fraction);
}

TEST(Parallel, SeedChangesTheStatistics) {
  cp::VariabilityConfig a;
  a.samples = 3000;
  cp::VariabilityConfig b = a;
  b.seed = 4321;
  EXPECT_NE(cp::run_resistance_mc(a).resistance_kohm.mean,
            cp::run_resistance_mc(b).resistance_kohm.mean);
}

// ---------------------------------------------------------------------------
// Sweep engine.
// ---------------------------------------------------------------------------

TEST(SweepEngine, EnumeratesTheCartesianGridRowMajor) {
  const cc::SweepGrid grid({{"a", {1.0, 2.0}}, {"b", {10.0, 20.0, 30.0}}});
  ASSERT_EQ(grid.size(), 6u);
  // Last axis fastest: (1,10) (1,20) (1,30) (2,10) ...
  EXPECT_EQ(grid.point(0).at("a"), 1.0);
  EXPECT_EQ(grid.point(0).at("b"), 10.0);
  EXPECT_EQ(grid.point(2).at("b"), 30.0);
  EXPECT_EQ(grid.point(3).at("a"), 2.0);
  EXPECT_EQ(grid.point(3).at("b"), 10.0);
  EXPECT_EQ(grid.point(5).flat_index(), 5u);
  EXPECT_THROW(grid.point(0).at("nope"), cnti::PreconditionError);
  EXPECT_THROW(grid.point(6), cnti::PreconditionError);
}

TEST(SweepEngine, PointsOutliveTheirGrid) {
  // SweepPoint is a self-contained value: using one after its grid is
  // gone must be safe (points get stashed in result structs routinely).
  const cc::SweepPoint p =
      cc::SweepGrid({{"x", {3.0, 4.0}}, {"y", {7.0}}}).point(1);
  EXPECT_EQ(p.at("x"), 4.0);
  EXPECT_EQ(p.at("y"), 7.0);
  EXPECT_EQ(p.flat_index(), 1u);
}

TEST(SweepEngine, ParallelSweepMatchesDirectEvaluation) {
  const cc::SweepGrid grid({{"doping", {0.0, 1.0}},
                            {"length_um", {0.5, 1.0, 5.0}}});
  const auto eval = [](const cc::SweepPoint& p) {
    cp::VariabilityConfig cfg;
    cfg.samples = 800;
    cfg.dopant_concentration = p.at("doping");
    cfg.length_um = p.at("length_um");
    cfg.threads = 1;  // the sweep parallelizes across points
    return cp::run_resistance_mc(cfg).resistance_kohm;
  };
  cc::SweepOptions opts;
  opts.threads = 4;
  const auto parallel = cc::run_sweep(grid, eval, opts);
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expect_summary_identical(parallel[i], eval(grid.point(i)));
  }
}

TEST(SweepEngine, ResultsIdenticalAcrossThreadCounts) {
  const cc::SweepGrid grid({{"t_c", {420.0, 500.0, 620.0}},
                            {"length_um", {0.5, 2.0}}});
  const auto eval = [](const cc::SweepPoint& p) {
    cp::VariabilityConfig cfg;
    cfg.samples = 600;
    cfg.recipe.temperature_c = p.at("t_c");
    cfg.length_um = p.at("length_um");
    cfg.threads = 1;
    // Per-point seed derived from the flat index keeps points independent.
    cfg.seed = static_cast<unsigned>(9000 + p.flat_index());
    return cp::run_resistance_mc(cfg).resistance_kohm.median;
  };
  cc::SweepOptions one;
  one.threads = 1;
  const auto base = cc::run_sweep(grid, eval, one);
  for (int threads : {2, 8}) {
    cc::SweepOptions opts;
    opts.threads = threads;
    opts.grain = 2;
    EXPECT_EQ(cc::run_sweep(grid, eval, opts), base);
  }
}

// ---------------------------------------------------------------------------
// Wall-clock scaling (the acceptance bench rides in bench_variability_mc;
// this is the in-tree guard, skipped on machines without 8 hardware
// threads where the ratio is meaningless).
// ---------------------------------------------------------------------------

TEST(Parallel, EightThreadSpeedupOnWideMachines) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "wall-clock ratios are meaningless under sanitizers";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "wall-clock ratios are meaningless under sanitizers";
#endif
#endif
  if (std::thread::hardware_concurrency() < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  cp::VariabilityConfig cfg;
  cfg.samples = 20000;
  const auto time_run = [&cfg](int threads) {
    cfg.threads = threads;
    cp::run_resistance_mc(cfg);  // warm-up (pool spin-up, page faults)
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 3; ++rep) cp::run_resistance_mc(cfg);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const double serial_s = time_run(1);
  const double parallel_s = time_run(8);
  EXPECT_GE(serial_s / parallel_s, 3.0)
      << "serial " << serial_s << " s vs 8-thread " << parallel_s << " s";
}

TEST(RngFork, TwoLevelSampleAxisStreamsNeverCollide) {
  // The statistical layer derives one stream per Monte Carlo sample as
  // Rng(seed).fork(sample_id) and one sub-stream per technology axis as
  // .fork(axis). Samples are split across shard processes by id range, so
  // stream identity must be a pure function of (seed, id, axis) with no
  // collisions anywhere in the id space — a collision would hand two
  // samples (possibly in different shards) correlated draws. First draws
  // over thousands of (id, axis) pairs, including ids far apart as shard
  // boundaries would place them, must be pairwise distinct.
  const std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  const cn::Rng root(seed);
  std::set<double> seen;
  std::size_t draws = 0;
  for (const std::uint64_t base : {0ULL, 100000ULL, 1ULL << 40}) {
    for (std::uint64_t offset = 0; offset < 1000; ++offset) {
      const cn::Rng sample = root.fork(base + offset);
      for (std::uint64_t axis = 0; axis < 3; ++axis) {
        cn::Rng stream = sample.fork(axis);
        seen.insert(stream.uniform());
        ++draws;
      }
    }
  }
  EXPECT_EQ(seen.size(), draws);
}

TEST(RngFork, ReDerivedStreamMatchesAcrossProcessBoundaries) {
  // A shard rebuilds Rng(seed).fork(id).fork(axis) from scratch in its
  // own process. Re-deriving the chain from a fresh root — after the
  // original root and intermediate have been consumed — must reproduce
  // the identical stream, or shard decompositions would not merge
  // bit-identically.
  cn::Rng root(42);
  cn::Rng sample = root.fork(1234);
  for (int i = 0; i < 17; ++i) {
    root.uniform();  // consuming parents must not disturb derived streams
    sample.uniform();
  }
  cn::Rng original = sample.fork(2);
  cn::Rng rederived = cn::Rng(42).fork(1234).fork(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(original.uniform(), rederived.uniform());
  }
  // The axis index matters: sibling axes are distinct streams.
  EXPECT_NE(cn::Rng(42).fork(1234).fork(0).uniform(),
            cn::Rng(42).fork(1234).fork(1).uniform());
}

}  // namespace
