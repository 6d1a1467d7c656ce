// dsmr_perfbench — shared declarations.
//
// The benchmark drives the library only through its public API. A workload
// is expressed as a Pattern: an area table in allocation order plus one op
// list per rank. The live rounds run that pattern (or, for sim-apps, the
// library's own workload:: apps) with the recorder attached; the traced run
// replays the same pattern through each layer's public functions to split
// the cost layer by layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/race_report.hpp"
#include "net/fabric.hpp"
#include "record/log.hpp"
#include "runtime/thread_world.hpp"
#include "util/types.hpp"

namespace perfbench {

using dsmr::Rank;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// CPU time the calling thread has used. Unlike wall time it leaves out the
/// time the thread was not running: preempted by another thread, or (with
/// paravirtual steal-time accounting) while the host ran another guest.
double thread_cpu_s();
/// CPU time of the whole process (every thread) since it started.
double process_cpu_s();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Rank threads a run may start: never more than the host's cores, and at
/// most 4 (the rank count of the threads workloads).
int max_threads();

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t { kPut, kGet, kLock, kUnlock, kSignal, kWait };

/// What a put writes and what a get verifies.
enum class DataMode : std::uint8_t {
  kNone,       ///< put zeroes, get unchecked.
  kStamp,      ///< put writes `value`; get must read `value` back.
  kIncrement,  ///< get remembers the value read; put writes it + 1.
};

struct Op {
  OpKind kind = OpKind::kPut;
  DataMode data = DataMode::kNone;
  std::uint32_t area = 0;   ///< flat index into Pattern::areas.
  std::uint32_t len = 0;    ///< access bytes (put/get).
  std::uint64_t value = 0;  ///< stamp (kStamp).
  Rank peer = 0;            ///< signal destination.
  std::uint64_t tag = 0;    ///< signal / wait tag.
};

struct AreaSpec {
  Rank home = 0;
  std::uint32_t size = 0;
  std::string name;
};

struct Pattern {
  int ranks = 0;
  std::vector<AreaSpec> areas;           ///< allocation order.
  std::vector<std::vector<Op>> programs; ///< one op list per rank.
};

bool is_access(OpKind kind);
std::uint64_t count_accesses(const Pattern& pattern);
/// Put and get bytes the pattern issues (its signals carry no payload).
std::uint64_t count_payload(const Pattern& pattern);
/// Public-segment bytes each home needs for the pattern's areas.
std::uint32_t segment_bytes_for(const Pattern& pattern);
/// Per-home AreaId of every flat area (ids are dense per home, in
/// allocation order).
std::vector<std::uint32_t> home_ids(const Pattern& pattern);

/// threads-private: 4 ranks, 4096 own areas each spread over all homes,
/// 1 in 16 of them 4 KiB and the rest 8 B; each rank puts then gets every
/// own area, `passes` times, in a seeded order.
Pattern make_private_pattern(std::uint64_t seed, int ranks, int areas_per_rank,
                             int passes);

/// threads-shared: 16 areas homed on rank 0 — 3 racy-prefix areas, 12
/// locked counters, 1 read-shared area. See README.md.
struct SharedLayout {
  std::vector<std::uint32_t> racy;      ///< flat indices.
  std::vector<std::uint32_t> counters;  ///< flat indices.
  std::uint32_t read_shared = 0;
  std::uint64_t published = 0;          ///< the read-shared value.
  int increments = 0;                   ///< per rank per counter.
};
Pattern make_shared_pattern(std::uint64_t seed, int ranks, int increments,
                            SharedLayout* layout);

/// Rebuilds a pattern from a simulator log: per rank, its put/get/lock/
/// unlock ops in issue order with the byte counts the home applied.
/// Signals and waits are dropped (the threaded rungs fold ranks onto
/// fewer threads, where a wait could never be matched).
Pattern pattern_from_sim_log(const dsmr::record::Log& log);

// ---------------------------------------------------------------------------
// Live rounds
// ---------------------------------------------------------------------------

/// Spans around each ThreadProcess call of a traced round, per op kind.
struct OpSpans {
  std::uint64_t ns[6] = {};
  std::uint64_t count[6] = {};
  void add(const OpSpans& other);
  double mean_ns(OpKind kind) const;
};

/// Everything a record → serialize → parse → fold pipeline produced.
struct FoldResult {
  std::string failure;       ///< empty when record ≡ live held.
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  double serialize_s = 0;
  double parse_s = 0;
  double fold_cpu_s = 0;  ///< CPU time of replay_fold on the folding thread.
};

/// Serializes the recorder's sealed log, parses it back and folds the
/// parsed log at dual-clock; the fold must reproduce `live`.
FoldResult fold_pipeline(const dsmr::record::Log& log,
                         const dsmr::record::VerdictSignature& live);

struct ThreadRoundOptions {
  bool record = true;  ///< attach a Recorder (the deployment under test).
  bool trace = false;  ///< time each ThreadProcess call.
  bool fold = true;    ///< run the serialize → parse → fold pipeline.
  bool keep_log = false;  ///< keep the serialized log (negative cases).
  /// When >= 0, the fold pipeline runs pinned to the (fold_slot mod n)-th
  /// CPU this process may use. Rotating the slot over rounds spreads the
  /// single-threaded fold over every core instead of the one the main
  /// thread happens to sit on.
  int fold_slot = -1;
};

struct ThreadRound {
  double run_s = 0;      ///< from the rank threads' start line to the last one's end.
  int threads = 0;       ///< rank threads.
  double run_cpu_s = 0;  ///< CPU time of all rank threads together.
  double process_cpu_at_run_s = 0;  ///< process_cpu_s() as run() starts.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  ///< ThreadRunReport::checks.
  std::uint64_t data_mismatches = 0;
  dsmr::net::TrafficCounters traffic;
  dsmr::runtime::ThreadRunReport report;
  std::vector<std::uint64_t> races_per_area;  ///< flat index → reports.
  std::uint64_t read_races = 0;               ///< reports on read accesses.
  std::vector<std::uint64_t> final_values;    ///< flat index → first 8 bytes.
  dsmr::record::VerdictSignature live;
  FoldResult fold;
  OpSpans spans;
  std::vector<std::byte> log_bytes;  ///< when ThreadRoundOptions::keep_log.
};

ThreadRound run_thread_round(const Pattern& pattern, const ThreadRoundOptions& options);

/// Whether some rank of the pattern waits for another (a lock or a signal
/// wait).
bool waits(const Pattern& pattern);

/// Accesses per second of a threads round. When no rank of the pattern ever
/// waits for another, a rank thread's time is its CPU time, so time the host
/// gave to other work is left out; otherwise it is the wall time of the run,
/// waits included.
double access_rate(const Pattern& pattern, const ThreadRound& round);

/// sim-apps sizes. The negative cases shrink them; the benchmark runs the
/// defaults.
struct SimAppsConfig {
  int ranks = 16;
  std::vector<std::uint64_t> seeds;
  int hist_increments = 48;
  int stencil_cells = 16;
  int stencil_iters = 12;
  int pipeline_tokens = 48;
};

struct SimRound {
  double run_cpu_s = 0;  ///< CPU time of every World::run, summed.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  ///< access events applied at their homes.
  std::uint64_t clock_bytes = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t virtual_ns = 0;
  FoldResult fold;  ///< summed over instances (no failure: see failures).
  /// Per app instance, in a fixed order: CPU time of its set-up, of
  /// World::run and of the fold; accesses applied and events folded.
  struct Instance {
    double setup_cpu_s = 0;
    double run_cpu_s = 0;
    double fold_cpu_s = 0;
    std::uint64_t completed = 0;
    std::uint64_t fold_events = 0;
  };
  std::vector<Instance> instances;
  std::vector<std::string> failures;
  std::vector<Pattern> patterns;  ///< filled when asked for (traced run).
};

SimRound run_sim_round(const SimAppsConfig& config, bool keep_patterns);

// ---------------------------------------------------------------------------
// Output checks (pure: the negative cases feed them perturbed inputs).
// Each returns "" when the check holds, else a one-line failure.
// ---------------------------------------------------------------------------

std::string check_equal(const std::string& what, std::uint64_t observed,
                        std::uint64_t expected);
std::string check_fold_bytes(std::span<const std::byte> bytes,
                             const dsmr::record::VerdictSignature& live);
std::string check_race_counts(const std::vector<std::uint64_t>& observed,
                              const std::vector<std::uint64_t>& expected);
std::string check_cells(const std::vector<double>& observed,
                        const std::vector<double>& reference);
std::string check_verdict_class(const std::string& app, bool racy,
                                std::uint64_t races);
std::string check_reports_in_truth(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& reported,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& truth);

/// Per-round checks of the threads workloads.
std::vector<std::string> check_private_round(const Pattern& pattern,
                                             const ThreadRound& round);
std::vector<std::string> check_shared_round(const Pattern& pattern,
                                            const SharedLayout& layout,
                                            const ThreadRound& round);

// ---------------------------------------------------------------------------
// Per-layer rungs
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Direct-call rungs over `patterns` (mem, record, detect, core, net, the
/// spawn/join cost and the simulator on the same ops), appended to `out`.
void layer_rungs(const std::vector<Pattern>& patterns, bool run_sim_rung,
                 std::vector<Metric>* out);

/// The threaded runtime rungs: `passes` traced recorded and traced
/// unrecorded rounds of each pattern (ranks folded onto at most
/// max_threads() threads), a lock/unlock pass for patterns without locks,
/// and the spawn/join cost. Returns the traced recorded rounds' median
/// accesses per second.
double runtime_rungs(const std::vector<Pattern>& patterns, int passes,
                     std::vector<Metric>* out);

int self_test();

}  // namespace perfbench
