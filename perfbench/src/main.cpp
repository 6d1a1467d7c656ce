// dsmr_perfbench — one command for the detector's end-to-end and per-layer
// figures.
//
//   dsmr_perfbench --workload threads-private|threads-shared|sim-apps
//                  --seed N --seconds S --trace 0|1
//   dsmr_perfbench --self-test
//
// A run repeats whole rounds of the workload (same inputs each round, made
// from --seed) until --seconds have passed, checks every round's outputs,
// and prints one JSON object as the last line of standard output:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "dsmr_perfbench: %s\nusage: dsmr_perfbench --workload "
               "threads-private|threads-shared|sim-apps --seed N --seconds S --trace 0|1\n"
               "       dsmr_perfbench --self-test\n",
               problem);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) usage("--seconds takes a number in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!args.self_test && args.workload != "threads-private" &&
      args.workload != "threads-shared" && args.workload != "sim-apps") {
    usage("--workload must be threads-private, threads-shared or sim-apps");
  }
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

/// What a run reports besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void take(const std::vector<std::string>& round_failures) {
    failures.insert(failures.end(), round_failures.begin(), round_failures.end());
  }
};

/// Per-round samples of the measured rounds, which the metrics summarize.
struct Samples {
  std::vector<double> ops_per_s, fold_events_per_s, log_bytes_per_op, clock_bytes_per_op;
  std::vector<double> serialize_ns, parse_ns, fold_ns, bytes_per_event;
  /// CPU time of the first round's set-up, counted from process start.
  double setup_s = 0;

  void add_fold(const FoldResult& fold, std::uint64_t accesses) {
    const double events = static_cast<double>(fold.events);
    fold_events_per_s.push_back(events / fold.fold_cpu_s);
    log_bytes_per_op.push_back(static_cast<double>(fold.bytes) / static_cast<double>(accesses));
    serialize_ns.push_back(fold.serialize_s * 1e9 / events);
    parse_ns.push_back(fold.parse_s * 1e9 / events);
    fold_ns.push_back(fold.fold_cpu_s * 1e9 / events);
    bytes_per_event.push_back(static_cast<double>(fold.bytes) / events);
  }

  /// The threads workloads' figures: medians over rounds.
  void end_to_end(std::vector<Metric>* out) const {
    end_to_end(median(ops_per_s), median(fold_events_per_s), out);
  }

  void end_to_end(double ops, double fold_events, std::vector<Metric>* out) const {
    out->push_back({"ops_per_s", ops, "1/s"});
    out->push_back({"setup_s", setup_s, "s"});
    out->push_back({"fold_events_per_s", fold_events, "1/s"});
    out->push_back({"log_bytes_per_op", median(log_bytes_per_op), "B"});
    out->push_back({"clock_wire_bytes_per_op", median(clock_bytes_per_op), "B"});
    out->push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }

  void record_layers(std::vector<Metric>* out) const {
    out->push_back({"record.serialize_ns_per_event", median(serialize_ns), "ns"});
    out->push_back({"record.parse_ns_per_event", median(parse_ns), "ns"});
    out->push_back({"record.fold_ns_per_event", median(fold_ns), "ns"});
    out->push_back({"record.bytes_per_event", median(bytes_per_event), "B"});
  }
};

/// Repeats `round(measured)` until `seconds` have passed. Rounds that start
/// in the first tenth of the time are warm-up (`measured` false: checked,
/// not summarized); at least one measured round always runs.
template <typename Round>
void repeat_for(double seconds, Round round) {
  const auto start = Clock::now();
  bool measured = false;
  double elapsed = 0;
  do {
    measured = elapsed >= 0.1 * seconds;
    round(measured);
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed < seconds || !measured);
}

void add_trace_overhead(double untraced, double traced, std::vector<Metric>* out) {
  out->push_back({"trace.ops_per_s_traced", traced, "1/s"});
  out->push_back({"trace.overhead_pct", 100.0 * (untraced - traced) / untraced, "%"});
}

Outcome run_threads(const Args& args) {
  Outcome outcome;
  SharedLayout layout;
  const bool shared = args.workload == "threads-shared";
  const Pattern pattern = shared ? make_shared_pattern(args.seed, 4, 48, &layout)
                                 : make_private_pattern(args.seed, 4, 4096, 2);
  Samples samples;
  bool first = true;
  ThreadRoundOptions options;
  options.fold_slot = 0;
  // Traced runs spend 40% of their time on untraced rounds (the base of the
  // tracing overhead and of the record.* figures), the rest on the rungs.
  repeat_for(args.trace ? 0.4 * args.seconds : args.seconds, [&](bool measured) {
    const ThreadRound round = run_thread_round(pattern, options);
    ++options.fold_slot;
    if (first) {
      samples.setup_s = round.process_cpu_at_run_s;
      first = false;
    }
    outcome.attempted += round.attempted;
    outcome.failed += round.attempted - std::min(round.completed, round.attempted);
    outcome.take(shared ? check_shared_round(pattern, layout, round)
                        : check_private_round(pattern, round));
    if (!measured) return;
    samples.ops_per_s.push_back(access_rate(pattern, round));
    samples.clock_bytes_per_op.push_back(static_cast<double>(round.traffic.clock_bytes) /
                                         static_cast<double>(round.attempted));
    samples.add_fold(round.fold, round.attempted);
  });
  if (!args.trace) {
    samples.end_to_end(&outcome.metrics);
    return outcome;
  }
  const std::vector<Pattern> patterns{pattern};
  const double traced = runtime_rungs(patterns, 3, &outcome.metrics);
  add_trace_overhead(median(samples.ops_per_s), traced, &outcome.metrics);
  samples.record_layers(&outcome.metrics);
  layer_rungs(patterns, /*run_sim_rung=*/true, &outcome.metrics);
  return outcome;
}

SimAppsConfig sim_apps_config(std::uint64_t seed) {
  SimAppsConfig config;
  dsmr::util::SplitMix64 seeds(seed);
  config.seeds = {seeds.next(), seeds.next()};
  return config;
}

/// sim-apps CPU times per app instance over the measured rounds. A figure
/// sums the instances' median times, so a burst of load on the host moves
/// the one instance it hit, not the round.
struct InstanceSamples {
  std::vector<std::vector<double>> run_s, fold_s;
  std::uint64_t completed = 0, fold_events = 0;  ///< per round.

  void add(const SimRound& round) {
    run_s.resize(round.instances.size());
    fold_s.resize(round.instances.size());
    completed = fold_events = 0;
    for (std::size_t i = 0; i < round.instances.size(); ++i) {
      const SimRound::Instance& instance = round.instances[i];
      run_s[i].push_back(instance.run_cpu_s);
      fold_s[i].push_back(instance.fold_cpu_s);
      completed += instance.completed;
      fold_events += instance.fold_events;
    }
  }
  static double sum_of_medians(const std::vector<std::vector<double>>& per_instance) {
    double sum = 0;
    for (const auto& times : per_instance) sum += median(times);
    return sum;
  }
  double ops_per_s() const { return static_cast<double>(completed) / sum_of_medians(run_s); }
  double fold_events_per_s() const {
    return static_cast<double>(fold_events) / sum_of_medians(fold_s);
  }
};

Outcome run_sim_apps(const Args& args) {
  Outcome outcome;
  const SimAppsConfig config = sim_apps_config(args.seed);
  Samples samples;
  InstanceSamples instances;
  std::vector<double> engine_events_per_s, events_per_op, virtual_ns_per_op;
  bool first = true;
  auto one_round = [&](bool keep_patterns, bool measured) {
    const double start_cpu = process_cpu_s();
    SimRound round = run_sim_round(config, keep_patterns);
    if (first) {
      // The process up to the first round, plus each instance's set-up on
      // its worker.
      samples.setup_s = start_cpu;
      for (const SimRound::Instance& instance : round.instances) {
        samples.setup_s += instance.setup_cpu_s;
      }
      first = false;
    }
    outcome.attempted += round.attempted;
    outcome.failed += round.attempted - std::min(round.completed, round.attempted);
    outcome.take(round.failures);
    if (!measured) return round;
    const double accesses = static_cast<double>(round.attempted);
    instances.add(round);
    samples.clock_bytes_per_op.push_back(static_cast<double>(round.clock_bytes) / accesses);
    samples.add_fold(round.fold, round.attempted);
    engine_events_per_s.push_back(static_cast<double>(round.engine_events) / round.run_cpu_s);
    events_per_op.push_back(static_cast<double>(round.engine_events) / accesses);
    virtual_ns_per_op.push_back(static_cast<double>(round.virtual_ns) / accesses);
    return round;
  };
  repeat_for(args.trace ? 0.4 * args.seconds : args.seconds,
             [&](bool measured) { one_round(false, measured); });
  if (!args.trace) {
    samples.end_to_end(instances.ops_per_s(), instances.fold_events_per_s(), &outcome.metrics);
    return outcome;
  }
  // The simulator runs single-threaded inside World::run, so the benchmark's
  // spans can only bracket whole runs: the traced rounds below add only
  // pattern capture outside the timed region, and their rate is the
  // "traced" figure.
  const double untraced = instances.ops_per_s();
  instances = InstanceSamples{};
  std::vector<Pattern> patterns;
  repeat_for(0.2 * args.seconds, [&](bool measured) {
    SimRound round = one_round(true, measured);
    if (patterns.empty()) patterns = std::move(round.patterns);
  });
  const double traced = instances.ops_per_s();
  runtime_rungs(patterns, 1, &outcome.metrics);
  add_trace_overhead(untraced, traced, &outcome.metrics);
  samples.record_layers(&outcome.metrics);
  layer_rungs(patterns, /*run_sim_rung=*/false, &outcome.metrics);
  outcome.metrics.push_back({"sim.engine_events_per_s", median(engine_events_per_s), "1/s"});
  outcome.metrics.push_back({"sim.events_per_op", median(events_per_op), "count"});
  outcome.metrics.push_back({"sim.virtual_ns_per_op", median(virtual_ns_per_op), "ns"});
  return outcome;
}

void print_result(const Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::snprintf(number, sizeof(number), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  if (args.self_test) return self_test();
  const Outcome outcome = args.workload == "sim-apps" ? run_sim_apps(args) : run_threads(args);
  for (std::size_t i = 0; i < outcome.failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "check failed: %s\n", outcome.failures[i].c_str());
  }
  print_result(outcome);
  return outcome.failures.empty() ? 0 : 1;
}
