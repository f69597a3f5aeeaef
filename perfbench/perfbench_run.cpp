//===- perfbench_run.cpp - One benchmark run of one workload ---------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
///                 --workdir DIR
///   perfbench_run --selftest --workdir DIR
///
/// Prints the host fingerprint, the workload's own figures and sample
/// counts on `perfbench.*` lines, then — as the last line of standard
/// output — one JSON object: {"correct", "attempted", "failed",
/// "metrics"}. Exits 1 when a correctness check failed, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload ingest_4lang|train_java_vars|"
               "serve_js_vars --seed N --seconds S --trace 0|1 --workdir DIR\n"
               "       perfbench_run --selftest --workdir DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir = ".";
  RunOptions Options;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--selftest") {
      SelfTest = true;
    } else if (Arg == "--workload" && (V = Value())) {
      Workload = V;
    } else if (Arg == "--seed" && (V = Value())) {
      Options.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds" && (V = Value())) {
      Options.Seconds = std::atof(V);
    } else if (Arg == "--trace" && (V = Value())) {
      Options.Trace = std::strcmp(V, "0") != 0;
    } else if (Arg == "--workdir" && (V = Value())) {
      WorkDir = V;
    } else {
      return usage();
    }
  }
  Options.WorkDir = WorkDir;
  if (SelfTest)
    return runSelfTest(WorkDir);
  if (Options.Seconds <= 0)
    return usage();

  Result (*Run)(const RunOptions &) = nullptr;
  if (Workload == "ingest_4lang")
    Run = runIngest;
  else if (Workload == "train_java_vars")
    Run = runTrain;
  else if (Workload == "serve_js_vars")
    Run = runServe;
  else
    return usage();

  Result R = Run(Options);

  std::printf("perfbench.host %s\n", hostFingerprintJson().c_str());
  std::printf("perfbench.detail %s\n", metricsJson(R.Detail).c_str());
  std::string Samples = "{";
  for (const auto &[Name, N] : R.Samples)
    Samples += (Samples.size() > 1 ? ", " : "") + jsonString(Name) + ": " +
               jsonNumber(N);
  std::printf("perfbench.samples %s}\n", Samples.c_str());
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "check failed: %s\n", E.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              metricsJson(R.Metrics).c_str());
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}
