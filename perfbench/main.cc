// tipbench: the repository benchmark's executable. run.py builds it
// and passes the arguments through:
//
//   tipbench --workload <paper_analytics|tipd_browse|durable_mixed>
//            --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//            [--smoke]
//
// Prints labels (environment stamp, plan shapes, sample counts) as one
// JSON line, then the result as the last line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exits 1 on any correctness or durability mismatch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef TIPBENCH_BUILD_TYPE
#define TIPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using tipbench::Options;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "tipbench: %s\nusage: tipbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--smoke]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty() || options.work_dir.empty()) {
    Usage("--workload and --work-dir are required");
  }
  if (!(options.seconds > 0)) Usage("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);

  tipbench::RunOutput out = tipbench::RunWorkload(options);

  const char* source = std::getenv("TIPBENCH_SOURCE_ID");
  out.labels["env.source"] = source != nullptr ? source : "unknown";
  out.labels["env.build_type"] = TIPBENCH_BUILD_TYPE;
  out.labels["env.cpus"] = std::to_string(std::thread::hardware_concurrency());
  out.labels["env.seed"] = std::to_string(options.seed);
  out.labels["env.seconds"] = JsonNumber(options.seconds);
  out.labels["env.workload"] = options.workload;
  out.labels["env.trace"] = options.trace ? "1" : "0";
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "tipbench: MISMATCH: %s\n", e.c_str());
  }

  std::string labels = "{\"labels\": {";
  bool first = true;
  for (const auto& [k, v] : out.labels) {
    labels += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  labels += "}}";
  std::printf("%s\n", labels.c_str());

  std::string result = "{\"correct\": ";
  result += out.correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(out.attempted);
  result += ", \"failed\": " + std::to_string(out.failed);
  result += ", \"metrics\": {";
  first = true;
  for (const tipbench::Metric& m : out.metrics) {
    result += (first ? "" : ", ") + JsonString(m.name) +
              ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
