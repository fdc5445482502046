// perfbench — one workload of the repository benchmark (perfbench/README.md).
//
// Runs the workload for a fixed measured wall-clock budget and prints one
// JSON document on stdout: every metric with its unit and sample count,
// the correctness checks, and the run's provenance.  perfbench/run.py
// builds this binary, runs it and turns the document into the benchmark's
// report and result line.
//
//   perfbench --workload paper-e2e --seed 1 --seconds 20 --trace 0
//             --out-dir DIR

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "src/obs/json_writer.h"
#include "src/obs/run_manifest.h"
#include "src/util/cli.h"
#include "src/util/error.h"

namespace {

using namespace perfbench;

/// Why this build must not report numbers; empty when it may.  A Debug,
/// assertions, sanitized or host-tuned (HYBRIDCDN_NATIVE) build measures a
/// different program than the one users run.
std::string refusal(const cdn::obs::RunManifest& manifest) {
#ifndef NDEBUG
  return "perfbench itself was built with assertions";
#endif
  if (manifest.build_type == "Debug") return "the library is a Debug build";
  if (manifest.build_flags.find("assertions") != std::string::npos) {
    return "the library was built with assertions";
  }
  if (PERFBENCH_NATIVE) return "the library was built with HYBRIDCDN_NATIVE";
  if (PERFBENCH_SANITIZE) return "the library was built with sanitizers";
  return {};
}

void write_document(const Args& args, const cdn::obs::RunManifest& manifest,
                    const Result& result) {
  cdn::obs::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(args.workload);
  w.key("seed");
  w.value(args.seed);
  w.key("seconds");
  w.value(args.seconds);
  w.key("trace");
  w.value(args.trace);
  w.key("budget");
  w.value(static_cast<std::uint64_t>(args.budget));
  w.key("cxx_flags");
  w.value(PERFBENCH_CXX_FLAGS);
  w.key("manifest");
  manifest.write_value(w);
  w.key("attempted");
  w.value(result.attempted);
  w.key("failed");
  w.value(result.failed);
  w.key("checks");
  w.begin_array();
  for (const auto& [name, ok] : result.checks) {
    w.begin_object();
    w.key("name");
    w.value(name);
    w.key("ok");
    w.value(ok);
    w.end_object();
  }
  w.end_array();
  w.key("failures");
  w.begin_array();
  for (const std::string& failure : result.failures) w.value(failure);
  w.end_array();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, metric] : result.metrics) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(metric.value);
    w.key("unit");
    w.value(metric.unit);
    w.key("samples");
    w.value(metric.samples);
    w.end_object();
  }
  w.end_object();
  w.key("trace_file");
  w.value(result.trace_file);
  w.key("trace_units");
  w.value(result.trace_units);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Created first, so the manifest's wall time runs from process start.
  cdn::obs::RunManifest manifest = cdn::obs::make_run_manifest("perfbench");

  cdn::util::CliParser cli("perfbench — one workload of the repository benchmark");
  cli.add_flag("workload", "",
               "paper-e2e | plan-large | redirect-steady | redirect-churn");
  cli.add_flag("seed", "1", "workload seed; every input is generated from it");
  cli.add_flag("seconds", "10", "measured wall-clock budget");
  cli.add_flag("trace", "0", "1 = traced run measuring per-layer metrics");
  cli.add_flag("out-dir", ".", "directory for the trace and plan files");
  if (!cli.parse(argc, argv)) return 2;

  try {
    const std::string why = refusal(manifest);
    if (!why.empty()) {
      std::fprintf(stderr,
                   "perfbench: refusing to report numbers: %s (build type "
                   "%s, flags %s)\n",
                   why.c_str(), manifest.build_type.c_str(),
                   manifest.build_flags.c_str());
      return 3;
    }
    Args args;
    args.workload = cli.get_string("workload");
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    args.seconds = cli.get_double("seconds");
    args.trace = cli.get_int("trace") != 0;
    args.out_dir = cli.get_string("out-dir");
    args.budget = std::max(1u, std::thread::hardware_concurrency());
    CDN_EXPECT(args.seconds > 0.0, "--seconds must be positive");

    Result result;
    if (args.workload == "paper-e2e") {
      run_paper_e2e(args, result);
    } else if (args.workload == "plan-large") {
      run_plan_large(args, result);
    } else if (args.workload == "redirect-steady") {
      run_redirect(args, /*churn=*/false, result);
    } else if (args.workload == "redirect-churn") {
      run_redirect(args, /*churn=*/true, result);
    } else {
      CDN_EXPECT(false, "unknown workload '" + args.workload + "'");
    }

    manifest.seed = args.seed;
    manifest.threads = args.budget;
    manifest.finalize();
    write_document(args, manifest, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
