// Figure 9: user-request rejection rate with increasing problem size.
//
// Paper's finding: NSGA-III+Tabu accepts nearly everything ("too close
// from the optimal solution"); Round Robin and the unmodified NSGA
// algorithms reject many more requests.  A request counts as rejected
// when it is not part of the deployable (sanitized) placement — for the
// unmodified EAs that includes every VM lost to constraint violations.
#include <cstdio>

#include "bench/bench_util.h"
#include "io/trace_stream.h"
#include "workload/generator.h"

int main() {
  using namespace iaas;
  using namespace iaas::bench;

  std::printf("=== Fig. 9: rejection rate vs problem size ===\n");
  SweepConfig config;
  config.server_sizes = {16, 32, 64, 128};
  config.suite = paper_suite();
  config = apply_env(config);
  print_nsga_settings(config.suite.ea.nsga);

  const SweepResult result = run_sweep(config);
  print_metric_table(result, "Mean rejection rate (rejected / N)",
                     &CellStats::mean_rejection_rate, 4,
                     csv_dir() + "/fig09_rejection_rate.csv");

  std::printf(
      "\nExpected shape (paper): NSGA-III+Tabu lowest (near zero);"
      "\nunmodified NSGA-II/III worst; ConstraintProgramming low-to-moderate"
      "\n(it silently rejects what it cannot place).\n");

  // One representative decision trace of the paper's proposal at the
  // sweep's smallest size: what the repair-EA actually did, generation
  // by generation, behind the rejection numbers above.
  SuiteOptions trace_suite = config.suite;
  trace_suite.ea.nsga.collect_trace = true;
  ScenarioConfig scenario =
      ScenarioConfig::paper_scale(config.server_sizes.front());
  scenario.constrained_fraction = config.constrained_fraction;
  const Instance instance =
      ScenarioGenerator(scenario).generate(config.base_seed);
  const AllocationResult traced =
      make_allocator(AlgorithmId::kNsga3Tabu, trace_suite)
          ->allocate(instance, config.base_seed ^ 0x5eedULL);
  if (!traced.trace.empty()) {
    const std::string stem = csv_dir() + "/fig09_trace_nsga3_tabu";
    write_trace_json(traced.trace, stem + ".json");
    traced.trace.write_csv(stem + ".csv");
    std::printf("trace: %s.{json,csv} (%zu generations)\n", stem.c_str(),
                traced.trace.rows.size());
  }
  return 0;
}
