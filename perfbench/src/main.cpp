// perfbench — the repository's update-interval benchmark driver.
//
//   perfbench --workload <paper_pcm|warm_50k|dense_50k_sharded>
//             --seed <u64> --seconds <s> --trace <0|1>
//             [--quick] [--trace-out <file>] [--commit <id>] [--source <hash>]
//
// Prints one metadata line ({"meta": ...}) and, as its last line, the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Normally started through perfbench/run.py, which builds
// this binary first; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "probe.hpp"

namespace {

constexpr const char* kWorkloads[] = {"paper_pcm", "warm_50k",
                                      "dense_50k_sharded"};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <paper_pcm|warm_50k|"
               "dense_50k_sharded> --seed <u64> --seconds <s> --trace <0|1>"
               " [--quick] [--trace-out <file>] [--commit <id>]"
               " [--source <hash>]\n";
  std::exit(2);
}

/// JSON string literal body; the values passed here are identifiers,
/// hashes and compiler banners, so escaping quotes and backslashes is
/// enough.
std::string escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string commit = "unknown", source = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      options.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds (> 0) and --trace (0 or 1) are required");

  perfbench::Outcome outcome;
  try {
    if (options.workload == kWorkloads[0]) {
      outcome = perfbench::run_paper_pcm(options);
    } else if (options.workload == kWorkloads[1]) {
      outcome = perfbench::run_plugin_workload(options, false);
    } else if (options.workload == kWorkloads[2]) {
      outcome = perfbench::run_plugin_workload(options, true);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "{\"meta\":{\"workload\":\"" << escaped(options.workload)
            << "\",\"seed\":" << options.seed
            << ",\"seconds\":" << number(options.seconds)
            << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"quick\":" << (options.quick ? "true" : "false")
            << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
            << ",\"compiler\":\"" << escaped(PERFBENCH_COMPILER)
            << "\",\"build_type\":\"" << escaped(PERFBENCH_BUILD_TYPE)
            << "\",\"commit\":\"" << escaped(commit) << "\",\"source\":\""
            << escaped(source) << "\",\"inputs\":" << outcome.inputs_json
            << ",\"report\":" << outcome.report_json << "}}\n";

  if (!outcome.consistent) {
    std::cerr << "perfbench: the traced spans do not add up to the measured "
                 "intervals (or the span file could not be written)\n";
  }
  std::ostringstream result;
  result << "{\"correct\":" << (outcome.consistent ? "true" : "false")
         << ",\"attempted\":" << outcome.attempted
         << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& m = outcome.metrics[i];
    result << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
           << number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}
