// ccqbench: run one workload at one seed and print its result.
//
//   ccqbench --workload oneshot|svc_ingest|svc_read --seed N --seconds S
//            --trace 0|1 [--out DIR] [--commit SHA]
//
// Prints an "env:" line, the input digest and exact-count lines, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 1 it also writes the benchmark spans and the engine trace
// summaries to DIR. Exit status is 1 on any wrong answer or failed
// determinism check, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace ccqbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ccqbench: %s\nusage: ccqbench --workload "
               "oneshot|svc_ingest|svc_read --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

std::string result_json(const Outcome& out, bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + fmt_num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--out") opt.out_dir = value;
      else if (flag == "--commit") commit = value;
      else usage("unknown flag '" + flag + "'");
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");

  std::printf("env: %s\n", env_json(commit).c_str());
  if (!build_comparable())
    std::printf("env: WARNING sanitizer or unoptimized build; results are "
                "not comparable\n");
  std::fflush(stdout);

  Outcome out;
  try {
    if (opt.workload == "oneshot") out = run_oneshot(opt);
    else if (opt.workload == "svc_ingest") out = run_svc_ingest(opt);
    else if (opt.workload == "svc_read") out = run_svc_read(opt);
    else usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccqbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (out.attempted == 0) out.problems.push_back("no operation completed");
  for (const std::string& p : out.problems)
    std::printf("problem: %s\n", p.c_str());
  const bool correct = out.failed == 0 && out.problems.empty();

  const std::string json = result_json(out, correct);
  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-trace" : "");
    std::ofstream{stem + ".result.json"}
        << "{\"env\": " << env_json(commit) << ", \"result\": " << json
        << "}\n";
    if (opt.trace) {
      SpanLog::global().write_ndjson(stem + ".spans.ndjson");
      std::ofstream{stem + ".engine.ndjson"} << out.engine_trace;
    }
  }
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
