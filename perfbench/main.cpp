// Repository benchmark program:
//   perfbench --workload <bus_steps|bus_wide|stat_study|service_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
// --trace 0 measures the end-to-end metrics untraced; --trace 1 runs the
// same workload under an obs::TraceSession and reports per-layer metrics.
// See README.md in this directory.
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

// Numbers from a non-optimised or sanitizer build describe the build, not
// the code; refuse to report them.
bool optimised_build() {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::string_view(PERFBENCH_CXX_FLAGS).find("-fsanitize") == std::string_view::npos;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1>\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "perfbench: malformed argument\n";
    return 2;
  }
  if (!optimised_build()) {
    std::cerr << "perfbench: refusing to report numbers from a non-optimised or "
                 "sanitizer build (" << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  if (!perfbench::generator_self_test()) return 4;

  perfbench::Report report(args);
  try {
    if (args.workload == "bus_steps" || args.workload == "bus_wide") {
      perfbench::run_bus(args, report);
    } else if (args.workload == "stat_study") {
      perfbench::run_stat_study(args, report);
    } else if (args.workload == "service_mixed") {
      perfbench::run_service_mixed(args, report);
    } else {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload aborted: " << e.what() << "\n";
    return 5;
  }
  return report.finish();
}
