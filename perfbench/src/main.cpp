// perfbench: the repo benchmark's executable. run.py builds and drives it:
//
//   perfbench run --workload <dense_evd|small_evd|service_mix> --seed <n>
//                 --seconds <s> --trace <0|1>
//   perfbench selftest
//
// `run` prints human-readable condition lines, then one
// "RESULT {attempted, failed, metrics, diagnostics}" line and one "HOST {...}" line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "micro.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload <dense_evd|small_evd|service_mix> --seed <n> "
               "--seconds <s> --trace <0|1>\n       perfbench selftest\n");
  return 2;
}

int run(int argc, char** argv) {
  RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else return usage();
  }
  LayerMetrics layers;
  Result result;
  if (args.workload == "dense_evd") result = run_closed_loop(args, 256, layers);
  else if (args.workload == "small_evd") result = run_closed_loop(args, 32, layers);
  else if (args.workload == "service_mix") result = run_service_mix(args, layers);
  else return usage();

  // The roofline is measured after the workload, so its arrays stay out of
  // the workload's peak RSS.
  const Triad triad = run_triad();
  layers.triad_gbps = triad.gbps;
  result.note(format("host: STREAM triad %.3f GB/s, 1 thread, 3 arrays of %.1f MiB (LLC %.1f MiB)",
                     triad.gbps, static_cast<double>(triad.array_bytes) / (1 << 20),
                     static_cast<double>(triad.llc_bytes) / (1 << 20)));
  if (args.trace) {
    layers.emit(result);
    result.note(format("la vs roofline: gram3 %.3f, fused_rotate %.3f of triad %.3f GB/s",
                       layers.gram3_gbps / triad.gbps, layers.fused_rotate_gbps / triad.gbps,
                       triad.gbps));
  }
  result.print();
  std::printf("HOST {\"triad_gbps\":%.6g,\"triad_array_bytes\":%zu,\"llc_bytes\":%zu,"
              "\"compiler\":\"%s\",\"flags\":\"%s\"}\n",
              triad.gbps, triad.array_bytes, triad.llc_bytes, PERFBENCH_COMPILER, PERFBENCH_FLAGS);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::usage();
  const std::string mode = argv[1];
  try {
    if (mode == "run") return perfbench::run(argc, argv);
    if (mode == "selftest") return perfbench::run_selftest();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return perfbench::usage();
}
