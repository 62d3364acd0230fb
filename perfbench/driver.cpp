// Benchmark driver: runs one workload for a wall-clock budget and prints
// one raw JSON report (timing samples, quality counts, layer counters,
// fingerprints and check failures) as the last line of stdout.
// perfbench/run.py builds this binary, turns the report into metrics and
// prints the benchmark's result line; see perfbench/README.md.
//
//   perfbench_driver --workload paper800|steady256|scarce64 --seed N
//                    --seconds S --trace 0|1 --threads T --out-dir DIR
//
// Only public entry points of the program are called: ScenarioGenerator,
// make_allocator / ShardedAllocator::allocate, CloudSimulator::run with
// set_window_sink, the TabuRepair constructor and the streaming trace
// writers.  All timing spans live in this file, around those calls.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/registry.h"
#include "algo/sharded_allocator.h"
#include "common/telemetry.h"
#include "io/json.h"
#include "io/trace_binary.h"
#include "io/trace_stream.h"
#include "model/constraint_checker.h"
#include "model/fairness.h"
#include "sim/simulator.h"
#include "tabu/repair.h"
#include "workload/generator.h"

namespace {

using iaas::Json;
using Clock = std::chrono::steady_clock;
using telemetry_counter = iaas::telemetry::Counter;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// How many times set-up is repeated; run.py reports the median.
constexpr int kSetupRepeats = 3;

// Window samples that put ten beyond the 95th percentile.
constexpr std::size_t kTailSamples = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t threads = 0;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "paper800|steady256|scarce64 --seed N --seconds S --trace "
               "0|1 --threads T --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, value);
      if (t > 1) {
        usage("--trace wants 0 or 1");
      }
      args.trace = t == 1;
    } else if (flag == "--threads") {
      args.threads = static_cast<std::size_t>(parse_u64(flag, value));
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "paper800" && args.workload != "steady256" &&
      args.workload != "scarce64") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed || args.seconds <= 0.0 || args.out_dir.empty()) {
    usage("--seed, --seconds > 0 and --out-dir are required");
  }
  // Never 0: 0 means "hardware_concurrency" to the program's pools.
  if (args.threads == 0) {
    usage("--threads must be at least 1");
  }
  return args;
}

// splitmix64: independent per-purpose seeds from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
}

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fnv(h, bits);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Json number_array(const std::vector<double>& values) {
  Json a = Json::array();
  for (double v : values) {
    a.push_back(Json::number(v));
  }
  return a;
}

Json count_json(std::size_t v) {
  return Json::integer(static_cast<std::uint64_t>(v));
}

// --- layer split read from the program's per-generation RunTrace -------

struct LayerCounts {
  std::size_t evaluations = 0;
  std::size_t full_rebuilds = 0;
  std::size_t delta_moves = 0;
  std::size_t rebases = 0;
  std::size_t repair_walks = 0;
  std::size_t unrepairable = 0;
  std::size_t moves_tried = 0;
  std::size_t moves_accepted = 0;

  void add(const iaas::telemetry::RunTrace& trace) {
    for (const iaas::telemetry::GenerationRow& r : trace.rows) {
      evaluations += r.evaluations;
      full_rebuilds += r.full_rebuilds;
      delta_moves += r.delta_moves;
      rebases += r.rebases;
      repair_walks += r.repair_invocations;
      unrepairable += r.unrepairable;
      moves_tried += r.tabu_moves_tried;
      moves_accepted += r.tabu_moves_accepted;
    }
  }
  void merge(const LayerCounts& o) {
    evaluations += o.evaluations;
    full_rebuilds += o.full_rebuilds;
    delta_moves += o.delta_moves;
    rebases += o.rebases;
    repair_walks += o.repair_walks;
    unrepairable += o.unrepairable;
    moves_tried += o.moves_tried;
    moves_accepted += o.moves_accepted;
  }
  bool operator==(const LayerCounts&) const = default;
};

// CPU-seconds per phase: the RunTrace sums per-task wall times, so the
// parallel phases report CPU time across the pool's threads.
struct PhaseSeconds {
  double tournament = 0.0;
  double variation = 0.0;
  double repair = 0.0;
  double evaluate = 0.0;
  double selection = 0.0;

  void add(const iaas::telemetry::RunTrace& trace) {
    for (const iaas::telemetry::GenerationRow& r : trace.rows) {
      tournament += r.seconds_tournament;
      variation += r.seconds_variation;
      repair += r.seconds_repair;
      evaluate += r.seconds_evaluate;
      selection += r.seconds_selection;
    }
  }
};

// --- forwarding decorator: the allocate() span --------------------------

struct CallRecord {
  double outside_s = 0.0;    // allocate() as the caller sees it
  double wall_s = 0.0;       // AllocationResult::wall_seconds
  double excluded_s = 0.0;   // benchmark-only work done after the call
  double tabu_ctor_s = 0.0;  // traced: one TabuRepair construction
  std::uint32_t violations = 0;
};

// Times each allocate() from outside, then audits the deployed placement
// with the ConstraintChecker.  The audit (and, when traced, a timed
// TabuRepair construction on the same instance) runs after the timer
// stops and is reported separately so window times can leave it out.
class TimedAllocator final : public iaas::Allocator {
 public:
  TimedAllocator(std::unique_ptr<iaas::Allocator> inner, bool traced)
      : inner_(std::move(inner)), traced_(traced) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  iaas::AllocationResult allocate(const iaas::Instance& instance,
                                  std::uint64_t seed) override {
    const Clock::time_point start = Clock::now();
    iaas::AllocationResult result = inner_->allocate(instance, seed);
    CallRecord record;
    record.outside_s = seconds_since(start);
    record.wall_s = result.wall_seconds;
    const Clock::time_point after = Clock::now();
    record.violations =
        iaas::ConstraintChecker(instance).check(result.placement).total();
    if (traced_) {
      const Clock::time_point ctor = Clock::now();
      const iaas::TabuRepair repair(instance);
      record.tabu_ctor_s = seconds_since(ctor);
    }
    record.excluded_s = seconds_since(after);
    records.push_back(record);
    return result;
  }

  void set_time_budget(double seconds) override {
    inner_->set_time_budget(seconds);
  }
  bool seed_next_run(std::vector<std::vector<std::int32_t>> front) override {
    return inner_->seed_next_run(std::move(front));
  }

  std::vector<CallRecord> records;

 private:
  std::unique_ptr<iaas::Allocator> inner_;
  bool traced_;
};

// --- workload definitions -----------------------------------------------

// Table III NSGA-III+Tabu (population 100, 10000 evaluations).
iaas::SuiteOptions paper_suite(std::size_t threads, bool traced) {
  iaas::SuiteOptions suite;
  suite.ea.nsga.threads = threads;
  suite.ea.nsga.collect_trace = traced;
  return suite;
}

// The steady-state EA of the sharded throughput driver: the warm start
// carries the incumbent, so each window runs a short search.
iaas::SuiteOptions lean_suite(std::size_t threads, bool traced) {
  iaas::SuiteOptions suite = paper_suite(threads, traced);
  suite.ea.nsga.population_size = 24;
  suite.ea.nsga.max_evaluations = 960;
  suite.ea.nsga.reference_divisions = 4;
  return suite;
}

iaas::ScenarioConfig paper800_scenario() {
  iaas::ScenarioConfig scenario = iaas::ScenarioConfig::paper_scale(800, 2);
  // Consumer tags are assigned without random draws (VM k belongs to
  // consumer k % 32), so the instance is the plain Fig. 8 one; the tags
  // only let the benchmark score honest welfare.
  scenario.consumers = 32;
  return scenario;
}

iaas::SimConfig steady256_config() {
  iaas::SimConfig sim;
  sim.windows = 40;
  // Bursty deterministic schedule (180, 60, ...) against an admission
  // cap of 150: the heavy window queues, the light one drains.
  sim.arrival_schedule = {180, 60};
  sim.max_admissions_per_window = 150;
  sim.admission_queue_limit = 960;
  sim.departure_probability = 0.45;
  sim.retry.max_attempts = 2;
  sim.retry.backoff_base_windows = 1;
  sim.warm_start_front = true;
  sim.scenario = iaas::ScenarioConfig::paper_scale(256, 4);
  sim.scenario.vms = 0;
  sim.scenario.consumers = 32;
  return sim;
}

iaas::SimConfig scarce64_config() {
  iaas::SimConfig sim;
  // The fleet saturates within three windows, so short horizons over
  // many fleets measure the saturated regime with little seed variance.
  sim.windows = 30;
  sim.arrival_schedule = {60};
  sim.departure_probability = 0.06;
  sim.retry.max_attempts = 3;
  sim.retry.backoff_base_windows = 1;
  sim.scenario = iaas::ScenarioConfig::paper_scale(64, 4);
  sim.scenario.vms = 0;
  sim.scenario.constrained_fraction = 0.5;
  sim.scenario.consumers = 32;
  sim.scenario.strategic.strategic_fraction = 0.25;
  sim.scenario.strategic.profiles = iaas::default_strategy_profiles();
  return sim;
}

std::unique_ptr<iaas::Allocator> sim_allocator(const std::string& workload,
                                               std::size_t threads,
                                               bool traced) {
  if (workload == "steady256") {
    iaas::ShardedAllocatorOptions options;
    options.shard_count = 0;  // one shard per datacenter
    options.suite = lean_suite(threads, traced);
    options.threads = threads;
    return std::make_unique<iaas::ShardedAllocator>(options);
  }
  // Fewer evaluations than steady256: on a saturated fleet almost every
  // repair walk runs to exhaustion, so each evaluation costs ~100x more.
  iaas::SuiteOptions suite = lean_suite(threads, traced);
  suite.ea.nsga.max_evaluations = 240;
  return iaas::make_allocator(iaas::AlgorithmId::kNsga3Tabu, suite);
}

// A workload is a list of sub-seeds derived from the workload seed; one
// unit of work (an allocate() call or a simulator horizon) runs one
// sub-seed.  Pooling several instances per run keeps the run-to-run
// spread across workload seeds small.
struct Workload {
  std::string name;
  bool sim = false;
  iaas::SimConfig sim_config;            // sims
  std::vector<iaas::Instance> instances;  // paper800, one per sub-seed
  std::vector<std::uint64_t> seeds;       // EA seed or sim seed
};

std::size_t sub_seed_count(const std::string& workload) {
  if (workload == "paper800") {
    return 5;
  }
  return workload == "steady256" ? 8 : 10;
}

// --- report pieces ------------------------------------------------------

struct Report {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Json passes = Json::object();

  void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench check failed: %s\n", what.c_str());
    failures.push_back(what);
  }
};

// Everything about one unit that must repeat exactly for its sub-seed.
struct UnitTotals {
  std::uint64_t fingerprint = 0;
  std::size_t rejected = 0;  // refused (sims: permanent + admission-dropped)
  std::size_t attempted = 0;  // VMs (sims: arrivals)
  std::size_t accepted = 0;   // VMs placed (sims: VM-windows running)
  double cost = 0.0;          // Eq. 15 aggregate (sims: summed over windows)
  double welfare = 0.0;       // honest welfare summed over samples
  std::size_t welfare_samples = 0;
  LayerCounts layers;
  std::size_t retries = 0;
  std::size_t evictions = 0;
  std::size_t admission_deferrals = 0;
  std::size_t shard_prerejections = 0;
  std::size_t rebalance_placements = 0;
  std::size_t max_shard_vms = 0;  // summed over windows
  std::size_t min_shard_vms = 0;  // summed over windows

  bool operator==(const UnitTotals&) const = default;

  void pool(const UnitTotals& o) {
    fnv(fingerprint, o.fingerprint);
    rejected += o.rejected;
    attempted += o.attempted;
    accepted += o.accepted;
    cost += o.cost;
    welfare += o.welfare;
    welfare_samples += o.welfare_samples;
    layers.merge(o.layers);
    retries += o.retries;
    evictions += o.evictions;
    admission_deferrals += o.admission_deferrals;
    shard_prerejections += o.shard_prerejections;
    rebalance_placements += o.rebalance_placements;
    max_shard_vms += o.max_shard_vms;
    min_shard_vms += o.min_shard_vms;
  }
};

// Timing of one unit (not deterministic).
struct UnitTiming {
  PhaseSeconds cpu;
  double append_s = 0.0;
  double json_bytes = 0.0;
  double binary_bytes = 0.0;
  double peak_buffer_bytes = 0.0;

  // Adds scale * t; the peak buffer is a high-water mark, so it is maxed.
  void add(const UnitTiming& t, double scale) {
    cpu.tournament += scale * t.cpu.tournament;
    cpu.variation += scale * t.cpu.variation;
    cpu.repair += scale * t.cpu.repair;
    cpu.evaluate += scale * t.cpu.evaluate;
    cpu.selection += scale * t.cpu.selection;
    append_s += scale * t.append_s;
    json_bytes += scale * t.json_bytes;
    binary_bytes += scale * t.binary_bytes;
    peak_buffer_bytes = std::max(peak_buffer_bytes, t.peak_buffer_bytes);
  }
};

// Per-call and per-window samples of one pass.
struct Samples {
  std::vector<double> window_s;
  std::vector<double> allocate_s;
  std::vector<double> allocate_setup_s;
  std::vector<double> overhead_s;
  std::vector<double> tabu_ctor_s;

  void add_call(const CallRecord& c) {
    allocate_s.push_back(c.outside_s);
    allocate_setup_s.push_back(c.outside_s - c.wall_s);
    tabu_ctor_s.push_back(c.tabu_ctor_s);
  }
};

void audit(const CallRecord& call, const std::string& where,
           Report& report) {
  if (call.violations != 0) {
    ++report.failed;
    report.fail(where + ": deployed placement audits to " +
                std::to_string(call.violations) + " violations");
  }
}

// --- paper800 unit: one Table III allocate() call -----------------------

std::uint64_t placement_fingerprint(const iaas::AllocationResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int32_t g : r.placement.genes()) {
    fnv(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(g)));
  }
  fnv(h, r.rejected);
  fnv_double(h, r.objectives.usage_cost);
  fnv_double(h, r.objectives.downtime_cost);
  fnv_double(h, r.objectives.migration_cost);
  return h;
}

UnitTotals run_call(TimedAllocator& alloc, const iaas::Instance& instance,
                    std::uint64_t ea_seed, Samples& samples,
                    UnitTiming& timing, Report& report) {
  const iaas::AllocationResult r = alloc.allocate(instance, ea_seed);
  const CallRecord& call = alloc.records.back();
  samples.add_call(call);
  // One call is this workload's decision window.
  samples.window_s.push_back(call.outside_s);
  ++report.attempted;
  audit(call, "paper800", report);

  UnitTotals t;
  t.fingerprint = placement_fingerprint(r);
  t.rejected = r.rejected;
  t.attempted = r.vm_count;
  t.accepted = r.vm_count - r.rejected;
  t.cost = r.objectives.aggregate();
  t.welfare = iaas::compute_fairness(instance, r.placement).honest_welfare;
  t.welfare_samples = 1;
  t.layers.add(r.trace);
  timing.cpu.add(r.trace);
  return t;
}

// --- sim unit: one CloudSimulator horizon -------------------------------

// Fingerprint without the allocator_trace rows: collect_trace adds them
// to the digest, and traced and untraced runs must agree.
std::uint64_t untraced_fingerprint(std::vector<iaas::WindowMetrics> rows) {
  for (iaas::WindowMetrics& row : rows) {
    row.allocator_trace = {};
  }
  return iaas::deterministic_fingerprint(rows);
}

UnitTotals run_horizon(const Args& args, const iaas::SimConfig& config,
                       std::uint64_t seed, bool traced, Samples& samples,
                       UnitTiming& timing, Report& report) {
  auto owned = std::make_unique<TimedAllocator>(
      sim_allocator(args.workload, args.threads, traced), traced);
  TimedAllocator* alloc = owned.get();
  iaas::CloudSimulator sim(config, std::move(owned));
  const std::string base = args.out_dir + "/" + args.workload;
  iaas::SimTraceWriter json_writer(base + ".json");
  iaas::BinaryTraceWriter binary_writer(base + ".trc");
  std::size_t calls_seen = 0;
  Clock::time_point window_start;
  sim.set_window_sink([&](const iaas::WindowMetrics& row) {
    const Clock::time_point append_start = Clock::now();
    json_writer.append(row);
    binary_writer.append(row);
    const Clock::time_point end = Clock::now();
    const double append =
        std::chrono::duration<double>(end - append_start).count();
    // A window with no live VM makes no allocate() call.
    double allocate = 0.0;
    double excluded = 0.0;
    if (alloc->records.size() > calls_seen) {
      const CallRecord& call = alloc->records.back();
      calls_seen = alloc->records.size();
      allocate = call.outside_s;
      excluded = call.excluded_s;
      samples.add_call(call);
      audit(call, args.workload + " window " + std::to_string(row.window),
            report);
    }
    const double window =
        std::chrono::duration<double>(end - window_start).count() - excluded;
    samples.window_s.push_back(window);
    samples.overhead_s.push_back(window - allocate - append);
    timing.append_s += append;
    ++report.attempted;
    if (row.vms_on_down_servers != 0 ||
        row.degrade != iaas::DegradeLevel::kNone) {
      ++report.failed;
      report.fail(args.workload + ": window " + std::to_string(row.window) +
                  " left VMs on down servers or was degraded");
    }
    window_start = Clock::now();
  });
  window_start = Clock::now();
  const std::vector<iaas::WindowMetrics> rows = sim.run(seed);
  json_writer.finish();
  binary_writer.finish();
  timing.json_bytes = static_cast<double>(json_writer.bytes_written());
  timing.binary_bytes = static_cast<double>(binary_writer.bytes_written());
  timing.peak_buffer_bytes =
      static_cast<double>(json_writer.peak_buffer_bytes());

  UnitTotals t;
  t.fingerprint = untraced_fingerprint(rows);
  for (const iaas::WindowMetrics& row : rows) {
    t.rejected += row.permanently_rejected + row.admission_dropped;
    t.attempted += row.arrived;
    t.accepted += row.running;
    t.cost += row.objectives.aggregate();
    if (row.fairness.consumers > 0) {
      t.welfare += row.fairness.honest_welfare;
      ++t.welfare_samples;
    }
    t.layers.add(row.allocator_trace);
    timing.cpu.add(row.allocator_trace);
    t.retries += row.retried;
    t.evictions += row.evicted;
    t.admission_deferrals += row.admission_deferred;
    t.shard_prerejections += row.shard.pre_rejections;
    t.rebalance_placements += row.shard.rebalance_placements;
    t.max_shard_vms += row.shard.max_shard_vms;
    t.min_shard_vms += row.shard.min_shard_vms;
  }
  return t;
}

// --- set-up and passes --------------------------------------------------

// Generates every sub-seed's input, then warms up: a generation-0-only
// allocate() per paper800 instance, the first two windows of every sim
// horizon.  Repeated kSetupRepeats times; the last repetition is kept.
Workload setup(const Args& args, Report& report) {
  Workload w;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    w = Workload{};
    w.name = args.workload;
    w.sim = args.workload != "paper800";
    const std::size_t count = sub_seed_count(args.workload);
    const Clock::time_point start = Clock::now();
    if (w.sim) {
      w.sim_config = args.workload == "steady256" ? steady256_config()
                                                  : scarce64_config();
      const iaas::ScenarioGenerator generator(w.sim_config.scenario);
      for (std::size_t k = 0; k < count; ++k) {
        w.seeds.push_back(derive_seed(args.seed, 100 + k));
        // What run() generates before its first allocate(): the
        // infrastructure and the first arrival batch.
        const iaas::Infrastructure infra =
            generator.generate_infrastructure(w.seeds.back());
        (void)generator.generate_requests(
            infra,
            static_cast<std::uint32_t>(w.sim_config.arrival_schedule.front()),
            w.seeds.back());
      }
    } else {
      const iaas::ScenarioGenerator generator(paper800_scenario());
      for (std::size_t k = 0; k < count; ++k) {
        w.instances.push_back(generator.generate(derive_seed(args.seed, 2 * k)));
        w.seeds.push_back(derive_seed(args.seed, 2 * k + 1));
      }
    }
    report.generate_s.push_back(seconds_since(start));
    for (std::size_t k = 0; k < count; ++k) {
      if (w.sim) {
        iaas::SimConfig warm = w.sim_config;
        warm.windows = 2;
        iaas::CloudSimulator sim(
            warm, sim_allocator(args.workload, args.threads, false));
        (void)sim.run(w.seeds[k]);
      } else {
        iaas::SuiteOptions warm = paper_suite(args.threads, false);
        warm.ea.nsga.max_evaluations = warm.ea.nsga.population_size;
        (void)iaas::make_allocator(iaas::AlgorithmId::kNsga3Tabu, warm)
            ->allocate(w.instances[k], w.seeds[k]);
      }
    }
    report.setup_s.push_back(seconds_since(start));
  }
  return w;
}

// Units run round-robin over the sub-seeds: one full pass, then one more
// unit of sub-seed 0 so every run checks a repetition, then more until
// the budget and the minimum window count are met.  Returns the pooled
// fingerprint of the sub-seeds.
std::uint64_t run_pass(const Args& args, const Workload& w, bool traced,
                       double budget, std::size_t min_windows,
                       Report& report, Json& out) {
  iaas::telemetry::Registry::global().reset();
  const std::size_t count = w.seeds.size();
  const std::string tag = std::string(traced ? "traced" : "untraced");
  // paper800 calls share one allocator; sim horizons build their own.
  std::unique_ptr<TimedAllocator> paper_alloc;
  if (!w.sim) {
    paper_alloc = std::make_unique<TimedAllocator>(
        iaas::make_allocator(iaas::AlgorithmId::kNsga3Tabu,
                             paper_suite(args.threads, traced)),
        traced);
  }
  Samples samples;
  std::vector<UnitTotals> first(count);
  std::vector<UnitTiming> timing_sum(count);
  std::vector<std::size_t> runs(count, 0);
  UnitTotals all_units;  // every unit run, for the registry cross-check
  std::size_t units = 0;
  const Clock::time_point start = Clock::now();
  while (units <= count || seconds_since(start) < budget ||
         samples.window_s.size() < min_windows) {
    const std::size_t k = units % count;
    UnitTiming timing;
    const UnitTotals t =
        w.sim ? run_horizon(args, w.sim_config, w.seeds[k], traced, samples,
                            timing, report)
              : run_call(*paper_alloc, w.instances[k], w.seeds[k], samples,
                         timing, report);
    if (runs[k] == 0) {
      first[k] = t;
    } else if (!(t == first[k])) {
      report.fail(args.workload + " " + tag + ": sub-seed " +
                  std::to_string(k) +
                  " gave a different fingerprint or counters on repetition");
    }
    all_units.pool(t);
    ++runs[k];
    ++units;
    timing_sum[k].add(timing, 1.0);
  }
  const double elapsed = seconds_since(start);

  // One pass over the sub-seeds: deterministic totals pooled from each
  // sub-seed's first unit, timings as each sub-seed's mean.
  UnitTotals pass;
  UnitTiming per_pass;
  for (std::size_t k = 0; k < count; ++k) {
    pass.pool(first[k]);
    per_pass.add(timing_sum[k], 1.0 / static_cast<double>(runs[k]));
  }

  out = Json::object();
  out["seconds"] = Json::number(elapsed);
  out["units"] = count_json(units);
  out["sub_seeds"] = count_json(count);
  out["fingerprint"] = Json::string(hex(pass.fingerprint));
  out["window_s"] = number_array(samples.window_s);
  out["allocate_s"] = number_array(samples.allocate_s);
  out["allocate_setup_s"] = number_array(samples.allocate_setup_s);
  Json quality = Json::object();
  quality["rejected"] = count_json(pass.rejected);
  quality["attempted"] = count_json(pass.attempted);
  quality["cost"] = Json::number(pass.cost);
  quality["accepted"] = count_json(pass.accepted);
  quality["honest_welfare"] = Json::number(
      pass.welfare / static_cast<double>(std::max<std::size_t>(
                         pass.welfare_samples, 1)));
  out["quality"] = quality;
  if (!traced) {
    return pass.fingerprint;
  }

  out["overhead_s"] = number_array(samples.overhead_s);
  out["tabu_ctor_s"] = number_array(samples.tabu_ctor_s);
  Json counts = Json::object();
  counts["evaluations"] = count_json(pass.layers.evaluations);
  counts["full_rebuilds"] = count_json(pass.layers.full_rebuilds);
  counts["delta_moves"] = count_json(pass.layers.delta_moves);
  counts["rebases"] = count_json(pass.layers.rebases);
  counts["repair_walks"] = count_json(pass.layers.repair_walks);
  counts["unrepairable"] = count_json(pass.layers.unrepairable);
  counts["moves_tried"] = count_json(pass.layers.moves_tried);
  counts["moves_accepted"] = count_json(pass.layers.moves_accepted);
  counts["shard_prerejections"] = count_json(pass.shard_prerejections);
  counts["rebalance_placements"] = count_json(pass.rebalance_placements);
  counts["max_shard_vms"] = count_json(pass.max_shard_vms);
  counts["min_shard_vms"] = count_json(pass.min_shard_vms);
  counts["retries"] = count_json(pass.retries);
  counts["evictions"] = count_json(pass.evictions);
  counts["admission_deferrals"] = count_json(pass.admission_deferrals);
  out["counts"] = counts;
  Json cpu = Json::object();
  cpu["tournament"] = Json::number(per_pass.cpu.tournament);
  cpu["variation"] = Json::number(per_pass.cpu.variation);
  cpu["repair"] = Json::number(per_pass.cpu.repair);
  cpu["evaluate"] = Json::number(per_pass.cpu.evaluate);
  cpu["selection"] = Json::number(per_pass.cpu.selection);
  out["cpu_s"] = cpu;
  Json io = Json::object();
  io["append_s"] = Json::number(per_pass.append_s);
  io["json_bytes"] = Json::number(per_pass.json_bytes);
  io["binary_bytes"] = Json::number(per_pass.binary_bytes);
  io["peak_buffer_bytes"] = Json::number(per_pass.peak_buffer_bytes);
  out["io"] = io;

  if (w.sim) {
    // The registry was reset at the start of this pass, so its counters
    // cover exactly the units run; they must agree with the window rows.
    const iaas::telemetry::CounterBlock reg =
        iaas::telemetry::Registry::global().counters();
    const auto check = [&](telemetry_counter c, std::size_t expected,
                           const char* what) {
      if (reg[c] != expected) {
        report.fail(args.workload + ": registry counter " + what + " = " +
                    std::to_string(reg[c]) + ", window rows give " +
                    std::to_string(expected));
      }
    };
    check(telemetry_counter::kSimRetries, all_units.retries, "sim retries");
    check(telemetry_counter::kSimEvictions, all_units.evictions,
          "sim evictions");
    check(telemetry_counter::kSimAdmissionDeferrals,
          all_units.admission_deferrals, "admission deferrals");
    check(telemetry_counter::kShardPreRejections,
          all_units.shard_prerejections, "shard pre-rejections");
    check(telemetry_counter::kShardRebalancePlacements,
          all_units.rebalance_placements, "rebalance placements");
  }
  return pass.fingerprint;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Report report;
  // A traced run measures an untraced and a traced pass back to back,
  // half the budget each, so the two can be compared in one process.
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  // p95 needs ten samples beyond it; only the untraced pass of an
  // end-to-end sim run reports it (paper800 calls are far too slow).
  const std::size_t min_windows =
      args.trace || args.workload == "paper800" ? 0 : kTailSamples;
  try {
    const Workload w = setup(args, report);
    Json untraced;
    const std::uint64_t fp_untraced =
        run_pass(args, w, false, budget, min_windows, report, untraced);
    report.passes["untraced"] = untraced;
    if (args.trace) {
      Json traced;
      const std::uint64_t fp_traced =
          run_pass(args, w, true, budget, 0, report, traced);
      report.passes["traced"] = traced;
      if (fp_traced != fp_untraced) {
        report.fail(args.workload + ": traced and untraced fingerprints "
                    "differ (" + hex(fp_traced) + " vs " + hex(fp_untraced) +
                    ")");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  Json out = Json::object();
  out["workload"] = Json::string(args.workload);
  out["seed"] = Json::integer(args.seed);
  out["threads"] = count_json(args.threads);
  out["hardware_threads"] =
      count_json(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  out["setup_s"] = number_array(report.setup_s);
  out["generate_s"] = number_array(report.generate_s);
  out["peak_rss_mb"] = Json::number(peak_rss_mb());
  out["attempted"] = count_json(report.attempted);
  out["failed"] = count_json(report.failed);
  Json failures = Json::array();
  for (const std::string& f : report.failures) {
    failures.push_back(Json::string(f));
  }
  out["failures"] = failures;
  out["passes"] = report.passes;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
