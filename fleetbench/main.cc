// fleetbench: the fleet lifecycle benchmark's measuring program.
//
//   fleetbench --workload NAME --seed N --seconds N --trace 0|1
//              [--small] [--spans PATH]
//
// Runs one workload (boot_storm, attest_fleet, churn_mixed, fleet_sharded),
// prints its notes, and ends with one JSON line holding the host/build
// stamp, the digest, the correctness verdict and every metric it measured.
// fleetbench/run.py builds this program and publishes the metrics that
// BENCHMARK.json names.  Exits 0 only when every correctness gate held;
// 2 on a command-line error.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "src/obs/obs.h"

namespace {

using fleetbench::Options;

constexpr char kUsage[] =
    "usage: fleetbench --workload NAME --seed N --seconds N --trace 0|1\n"
    "                  [--small] [--spans PATH]\n"
    "\n"
    "  --workload  boot_storm | attest_fleet | churn_mixed | fleet_sharded\n"
    "  --seed      positive integer; all workload inputs derive from it\n"
    "  --seconds   positive integer; minimum host seconds of the timed phase\n"
    "  --trace     1 attaches an obs::Registry and records host spans\n"
    "  --small     self-test scale (same code paths, tiny fleet)\n"
    "  --spans     traced runs: write spans and obs metrics to this file\n"
    "  --help      print this text and exit\n";

struct Workload {
  const char* name;
  void (*run)(const Options&, fleetbench::Spans&, fleetbench::Report&);
};
constexpr Workload kWorkloads[] = {
    {"boot_storm", fleetbench::RunBootStorm},
    {"attest_fleet", fleetbench::RunAttestFleet},
    {"churn_mixed", fleetbench::RunChurnMixed},
    {"fleet_sharded", fleetbench::RunFleetSharded},
};

int UsageError(const std::string& message) {
  std::fprintf(stderr, "fleetbench: %s\n%s", message.c_str(), kUsage);
  return 2;
}

// Digits only, no sign, no leading '+', no overflow, and > 0.
bool ParsePositive(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 19) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return value > 0;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (flag == "--small") {
      options.small = true;
      continue;
    }
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace" || flag == "--spans") {
      if (i + 1 >= argc) {
        return UsageError(flag + " needs a value");
      }
      value = argv[++i];
    }
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParsePositive(value, &number)) {
        return UsageError("--seed must be a positive integer, got '" + value + "'");
      }
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParsePositive(value, &number) || number > 3600) {
        return UsageError("--seconds must be an integer in 1..3600, got '" + value + "'");
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return UsageError("--trace must be 0 or 1, got '" + value + "'");
      }
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--spans") {
      if (value.empty()) {
        return UsageError("--spans needs a path");
      }
      options.spans_path = value;
    } else {
      return UsageError("unknown argument '" + std::string(argv[i]) + "'");
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return UsageError("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    return UsageError("unknown workload '" + options.workload + "'");
  }
  if (!options.spans_path.empty() && !options.trace) {
    return UsageError("--spans needs --trace 1");
  }

  fleetbench::Spans spans(options.trace);
  fleetbench::Report report;
  workload->run(options, spans, report);

  for (const std::string& note : report.notes()) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  std::printf("digest %s seed %" PRIu64 ": %016" PRIx64 "\n", options.workload.c_str(),
              options.seed, report.digest);
  if (!options.spans_path.empty() &&
      !spans.Write(options.spans_path, report.obs_json)) {
    std::fprintf(stderr, "fleetbench: cannot write %s\n", options.spans_path.c_str());
    return 1;
  }

  std::string json = "{\"workload\": \"" + options.workload + "\"";
  json += ", \"seed\": " + std::to_string(options.seed);
  json += std::string(", \"trace\": ") + (options.trace ? "1" : "0");
  json += std::string(", \"small\": ") + (options.small ? "true" : "false");
  json += ", \"stamp\": {\"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) + ", \"cpu_model\": \"" +
          JsonEscape(CpuModel()) + "\", \"compiler\": \"" + JsonEscape(Compiler()) +
          "\", \"build_type\": \"" FLEETBENCH_BUILD_TYPE "\", \"bolted_obs\": " +
          std::to_string(BOLTED_OBS) + "}";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, report.digest);
  json += std::string(", \"digest\": \"") + digest + "\"";
  json += std::string(", \"correct\": ") + (report.correct() ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"failures\": [";
  for (size_t i = 0; i < report.failures().size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + JsonEscape(report.failures()[i]) + "\"";
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
