// The QCore benchmark binary:
//   qbench --workload <edge-calib|fleet-infer|fleet-mixed> --seed <n>
//          --seconds <s> --trace <0|1> [--scratch <dir>]
// Run from the repository root (qbench/run.py builds and invokes it). The
// last line of stdout is the result object; the exit code is 1 when any
// output failed its correctness check, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "qbench/lib/stats.h"
#include "qbench/lib/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--scratch") {
      opts.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_workload) return Usage("--workload is required");
  bool known = false;
  for (const std::string& name : qbench::WorkloadNames()) {
    known = known || name == opts.workload;
  }
  if (!known) return Usage(("unknown workload " + opts.workload).c_str());
  if (!(opts.seconds > 0.0)) return Usage("--seconds must be positive");

  const qbench::RunReport report = qbench::RunWorkload(opts);
  for (const std::string& e : report.errors) {
    std::printf("qbench CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  std::vector<std::string> missing;
  const std::string json = qbench::ResultJson(
      report,
      opts.trace ? qbench::PerLayerMetrics() : qbench::EndToEndMetrics(),
      &missing);
  if (json.empty()) {
    for (const std::string& m : missing) {
      std::fprintf(stderr, "qbench: metric %s was not measured\n", m.c_str());
    }
    return 3;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
