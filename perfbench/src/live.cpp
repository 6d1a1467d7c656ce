// Live rounds: one whole run of a workload with the recorder attached,
// followed by the serialize → parse → fold pipeline.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "analysis/ground_truth.hpp"
#include "bench.hpp"
#include "record/recorder.hpp"
#include "record/replay.hpp"
#include "runtime/world.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace dr = dsmr::record;
namespace rt = dsmr::runtime;

namespace {

/// (home, per-home AreaId) → flat index, for a table whose ids are dense
/// per home in allocation order.
using FlatIndex = std::vector<std::vector<std::uint32_t>>;

FlatIndex flat_index(const std::vector<Rank>& homes, int ranks) {
  FlatIndex index(static_cast<std::size_t>(ranks));
  for (std::size_t flat = 0; flat < homes.size(); ++flat) {
    index[static_cast<std::size_t>(homes[flat])].push_back(static_cast<std::uint32_t>(flat));
  }
  return index;
}

/// The live verdict signature, counted by the benchmark from the live race
/// reports (independently of the recorder's own footer).
dr::VerdictSignature live_signature(const std::vector<dsmr::core::RaceReport>& reports,
                                    const FlatIndex& index, bool completed,
                                    std::vector<Rank> stuck) {
  dr::VerdictSignature signature;
  signature.completed = completed;
  std::sort(stuck.begin(), stuck.end());
  signature.stuck_ranks = std::move(stuck);
  std::map<std::tuple<std::uint64_t, Rank, int>, std::uint64_t> counts;
  for (const auto& report : reports) {
    const std::uint32_t flat = index[static_cast<std::size_t>(report.home)][report.area];
    counts[{flat, report.accessor, static_cast<int>(report.kind)}] += 1;
  }
  for (const auto& [key, count] : counts) {
    signature.races.push_back(dr::RaceCount{std::get<0>(key), std::get<1>(key),
                                            static_cast<dsmr::core::AccessKind>(std::get<2>(key)),
                                            count});
  }
  return signature;
}

/// Holds each thread of a group at arrive() until the whole group is there,
/// so the part after it runs the threads together however long the host
/// takes to start them.
class StartLine {
 public:
  explicit StartLine(int threads) : waiting_(threads) {}
  void arrive() {
    if (waiting_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      released_at_ = Clock::now();
      go_.store(true, std::memory_order_release);
    }
    while (!go_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  /// When the last thread arrived (valid once arrive() has returned).
  Clock::time_point released_at() const { return released_at_; }

 private:
  std::atomic<int> waiting_;
  std::atomic<bool> go_{false};
  Clock::time_point released_at_;
};

/// Pins the calling thread to one of its allowed CPUs for its lifetime and
/// restores the previous mask afterwards (threads spawned later inherit the
/// creator's mask). A negative slot, or a failing affinity call, leaves the
/// thread where it is.
class PinnedTo {
 public:
  explicit PinnedTo(int slot) {
    if (slot < 0 || pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) return;
    const int allowed = CPU_COUNT(&saved_);
    int nth = slot % allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || nth-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
      break;
    }
  }
  ~PinnedTo() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

void write_stamp(std::vector<std::byte>& buffer, std::uint64_t stamp) {
  std::memcpy(buffer.data(), &stamp, sizeof(stamp));
  std::memcpy(buffer.data() + buffer.size() - sizeof(stamp), &stamp, sizeof(stamp));
}

std::uint64_t first_word(const std::vector<std::byte>& bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data(), std::min(sizeof(word), bytes.size()));
  return word;
}

bool stamp_matches(const std::vector<std::byte>& bytes, std::uint64_t stamp) {
  std::uint64_t tail = 0;
  if (bytes.size() < sizeof(tail)) return false;
  std::memcpy(&tail, bytes.data() + bytes.size() - sizeof(tail), sizeof(tail));
  return first_word(bytes) == stamp && tail == stamp;
}

/// One rank's interpreter state: value buffers per access length, the
/// verification tally and the spans of a traced round.
struct RankState {
  std::vector<std::vector<std::byte>> buffers;
  std::uint64_t mismatches = 0;
  OpSpans spans;

  std::vector<std::byte>& buffer(std::uint32_t len) {
    for (auto& b : buffers) {
      if (b.size() == len) return b;
    }
    return buffers.emplace_back(len);
  }
};

void run_ops(rt::ThreadProcess& p, const std::vector<Op>& ops,
             const std::vector<dsmr::mem::GlobalAddress>& addrs, RankState& state,
             bool trace) {
  std::uint64_t last = 0;
  for (const Op& op : ops) {
    const Clock::time_point start = trace ? Clock::now() : Clock::time_point{};
    switch (op.kind) {
      case OpKind::kPut: {
        auto& buffer = state.buffer(op.len);
        if (op.data != DataMode::kNone && buffer.size() >= sizeof(std::uint64_t)) {
          write_stamp(buffer, op.data == DataMode::kIncrement ? last + 1 : op.value);
        }
        p.put(addrs[op.area], buffer);
        break;
      }
      case OpKind::kGet: {
        const std::vector<std::byte> got = p.get(addrs[op.area], op.len);
        if (op.data == DataMode::kStamp && !stamp_matches(got, op.value)) ++state.mismatches;
        if (op.data == DataMode::kIncrement) last = first_word(got);
        break;
      }
      case OpKind::kLock:
        p.lock(addrs[op.area]);
        break;
      case OpKind::kUnlock:
        p.unlock(addrs[op.area]);
        break;
      case OpKind::kSignal:
        p.signal(op.peer, op.tag);
        break;
      case OpKind::kWait:
        p.wait_signal(op.tag);
        break;
    }
    if (trace) {
      const auto k = static_cast<std::size_t>(op.kind);
      state.spans.ns[k] += ns_between(start, Clock::now());
      state.spans.count[k] += 1;
    }
  }
}

}  // namespace

void OpSpans::add(const OpSpans& other) {
  for (int k = 0; k < 6; ++k) {
    ns[k] += other.ns[k];
    count[k] += other.count[k];
  }
}

double OpSpans::mean_ns(OpKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  return count[k] == 0 ? 0.0 : static_cast<double>(ns[k]) / static_cast<double>(count[k]);
}

namespace {

FoldResult fold_bytes(std::span<const std::byte> bytes, const dr::VerdictSignature& live) {
  FoldResult result;
  result.bytes = bytes.size();
  std::string error;
  const auto t0 = Clock::now();
  const std::optional<dr::Log> parsed = dr::Log::parse(bytes, &error);
  const auto t1 = Clock::now();
  result.parse_s = seconds_between(t0, t1);
  if (!parsed) {
    result.failure = "recorded log does not parse: " + error;
    return result;
  }
  const double cpu1 = thread_cpu_s();
  const dr::ReplayResult folded = dr::replay_fold(*parsed, dsmr::core::DetectorMode::kDualClock);
  result.fold_cpu_s = thread_cpu_s() - cpu1;
  result.events = folded.events;
  if (!folded.ok()) {
    result.failure = "fold failed: " + folded.error;
  } else if (folded.signature != live) {
    result.failure = "record != live: fold " + folded.signature.to_string() + " vs live " +
                     live.to_string();
  }
  return result;
}

}  // namespace

FoldResult fold_pipeline(const dr::Log& log, const dr::VerdictSignature& live) {
  const auto t0 = Clock::now();
  const std::vector<std::byte> bytes = log.serialize();
  const double serialize_s = seconds_between(t0, Clock::now());
  FoldResult result = fold_bytes(bytes, live);
  result.serialize_s = serialize_s;
  return result;
}

std::string check_fold_bytes(std::span<const std::byte> bytes,
                             const dr::VerdictSignature& live) {
  return fold_bytes(bytes, live).failure;
}

ThreadRound run_thread_round(const Pattern& pattern, const ThreadRoundOptions& options) {
  ThreadRound round;
  rt::ThreadWorldConfig config;
  config.nprocs = pattern.ranks;
  config.segment_bytes = segment_bytes_for(pattern);
  std::unique_ptr<dr::Recorder> recorder;
  if (options.record) {
    recorder = std::make_unique<dr::Recorder>(
        static_cast<std::uint32_t>(pattern.ranks), dr::Backend::kThread, config.mode,
        config.lock_clock_handoff, config.acked_puts);
    config.recorder = recorder.get();
  }
  rt::ThreadWorld world(config);
  std::vector<dsmr::mem::GlobalAddress> addrs;
  addrs.reserve(pattern.areas.size());
  for (const AreaSpec& area : pattern.areas) {
    addrs.push_back(world.alloc(area.home, area.size, area.name));
  }
  // At most max_threads() rank threads: with more ranks than threads, thread
  // t runs the programs of ranks t, t + threads, ... one after another.
  const int threads = std::min(pattern.ranks, max_threads());
  std::vector<RankState> states(static_cast<std::size_t>(pattern.ranks));
  std::vector<double> thread_cpu(static_cast<std::size_t>(threads), 0.0);
  std::vector<Clock::time_point> thread_end(static_cast<std::size_t>(threads));
  StartLine start_line(threads);
  for (Rank t = 0; t < threads; ++t) {
    world.spawn(t, [&, t](rt::ThreadProcess&) {
      // One CPU per rank thread: left to itself the scheduler often starts
      // all of them on their parent's CPU, where short rounds run them one
      // after another.
      const PinnedTo pin(t);
      start_line.arrive();
      const double cpu0 = thread_cpu_s();
      for (Rank r = t; r < pattern.ranks; r += threads) {
        run_ops(world.process(r), pattern.programs[static_cast<std::size_t>(r)], addrs,
                states[static_cast<std::size_t>(r)], options.trace);
      }
      thread_cpu[static_cast<std::size_t>(t)] = thread_cpu_s() - cpu0;
      thread_end[static_cast<std::size_t>(t)] = Clock::now();
    });
  }
  round.process_cpu_at_run_s = process_cpu_s();
  round.report = world.run();
  round.run_s = seconds_between(start_line.released_at(),
                                *std::max_element(thread_end.begin(), thread_end.end()));
  round.threads = threads;
  for (const double cpu : thread_cpu) round.run_cpu_s += cpu;

  round.attempted = count_accesses(pattern);
  round.completed = round.report.checks;
  round.traffic = world.traffic();
  for (const RankState& state : states) {
    round.data_mismatches += state.mismatches;
    round.spans.add(state.spans);
  }
  std::vector<Rank> homes;
  for (const AreaSpec& area : pattern.areas) homes.push_back(area.home);
  const FlatIndex index = flat_index(homes, pattern.ranks);
  round.races_per_area.assign(pattern.areas.size(), 0);
  const auto& reports = world.races().reports();
  for (const auto& report : reports) {
    const std::uint32_t flat = index[static_cast<std::size_t>(report.home)][report.area];
    round.races_per_area[flat] += 1;
    if (report.kind != dsmr::core::AccessKind::kWrite) round.read_races += 1;
  }
  round.final_values.reserve(pattern.areas.size());
  for (std::size_t flat = 0; flat < pattern.areas.size(); ++flat) {
    round.final_values.push_back(first_word(
        world.segment(addrs[flat].rank).read_bytes(addrs[flat].offset, sizeof(std::uint64_t))));
  }
  round.live = live_signature(reports, index, round.report.completed, round.report.stuck_ranks);
  if (recorder) {
    recorder->finish(reports, round.report.completed, round.report.stuck_ranks);
    if (options.fold) {
      const PinnedTo pin(options.fold_slot);
      round.fold = fold_pipeline(recorder->log(), round.live);
    }
    if (options.keep_log) round.log_bytes = recorder->log().serialize();
  }
  return round;
}

bool waits(const Pattern& pattern) {
  for (const auto& program : pattern.programs) {
    for (const Op& op : program) {
      if (op.kind == OpKind::kLock || op.kind == OpKind::kWait) return true;
    }
  }
  return false;
}

double access_rate(const Pattern& pattern, const ThreadRound& round) {
  const double run_s = waits(pattern) ? round.run_s : round.run_cpu_s / round.threads;
  return static_cast<double>(round.completed) / run_s;
}

// ---------------------------------------------------------------------------
// sim-apps
// ---------------------------------------------------------------------------

namespace {

enum class App { kHistLocked, kStencil, kPipeline, kHistUnlocked, kStencilBuggy, kMasterWorker };

struct AppInfo {
  App app;
  const char* name;
  bool racy;
};

constexpr AppInfo kApps[] = {
    {App::kHistLocked, "histogram-locked", false},
    {App::kStencil, "stencil", false},
    {App::kPipeline, "pipeline", false},
    {App::kHistUnlocked, "histogram-unlocked", true},
    {App::kStencilBuggy, "stencil-buggy", true},
    {App::kMasterWorker, "master-worker", true},
};

/// Public memory per rank: the apps use well under 1 KiB of it, and twelve
/// worlds of 16 default-sized (1 MiB) segments would make setup mostly page
/// zeroing.
constexpr std::uint32_t kSimSegmentBytes = 64 << 10;
constexpr int kHistogramBins = 16;
constexpr int kMasterWorkerTasks = 4;
/// Instances with at most this many access events also run the all-pairs
/// ground truth.
constexpr std::size_t kGroundTruthMaxEvents = 4096;

void add_fold(FoldResult& into, const FoldResult& part) {
  into.events += part.events;
  into.bytes += part.bytes;
  into.serialize_s += part.serialize_s;
  into.parse_s += part.parse_s;
  into.fold_cpu_s += part.fold_cpu_s;
}

std::uint64_t read_word(rt::World& world, dsmr::mem::GlobalAddress addr) {
  return first_word(world.segment(addr.rank).read_bytes(addr.offset, sizeof(std::uint64_t)));
}

/// One app instance: setup, run, checks and the fold pipeline, added into
/// `round`.
void run_instance(const SimAppsConfig& config, std::uint64_t seed, const AppInfo& info,
                  SimRound& round, SimRound::Instance& cost, Pattern* pattern) {
  const auto n = static_cast<std::uint64_t>(config.ranks);
  const std::string where = std::string(info.name) + " seed " + std::to_string(seed);
  auto fail = [&](const std::string& failure) {
    if (!failure.empty()) round.failures.push_back(where + ": " + failure);
  };
  const double cpu0 = thread_cpu_s();
  rt::WorldConfig world_config;
  world_config.nprocs = config.ranks;
  world_config.seed = seed;
  world_config.segment_bytes = kSimSegmentBytes;
  dr::Recorder recorder(static_cast<std::uint32_t>(config.ranks), dr::Backend::kSim,
                        world_config.mode, world_config.lock_clock_handoff,
                        world_config.acked_puts);
  rt::World world(world_config);
  world.set_recorder(&recorder);

  // Accesses and payload bytes each app issues, counted from its
  // definition (workload/workloads.hpp), not from the run.
  std::uint64_t accesses = 0;
  std::uint64_t payload = 0;
  std::optional<dsmr::workload::HistogramHandles> hist;
  dsmr::workload::StencilHandles stencil;
  dsmr::workload::PipelineHandles pipeline;
  dsmr::workload::StencilConfig stencil_config;
  stencil_config.cells_per_rank = config.stencil_cells;
  stencil_config.iters = config.stencil_iters;
  dsmr::workload::PipelineConfig pipeline_config;
  pipeline_config.tokens = config.pipeline_tokens;
  switch (info.app) {
    case App::kHistLocked:
    case App::kHistUnlocked: {
      dsmr::workload::HistogramConfig c;
      c.bins = kHistogramBins;
      c.increments_per_rank = config.hist_increments;
      c.locked = info.app == App::kHistLocked;
      c.seed = seed * 31 + 3;
      hist = dsmr::workload::spawn_histogram(world, c);
      accesses = n * static_cast<std::uint64_t>(c.increments_per_rank) * 2;
      payload = accesses * sizeof(std::uint64_t);
      break;
    }
    case App::kStencil:
    case App::kStencilBuggy: {
      stencil_config.buggy = info.app == App::kStencilBuggy;
      stencil = dsmr::workload::spawn_stencil(world, stencil_config);
      const std::uint64_t halo = static_cast<std::uint64_t>(stencil_config.iters) * 4 * (n - 1);
      accesses = halo + n;
      payload = halo * sizeof(double) +
                n * static_cast<std::uint64_t>(stencil_config.cells_per_rank) * sizeof(double);
      break;
    }
    case App::kPipeline:
      pipeline = dsmr::workload::spawn_pipeline(world, pipeline_config);
      accesses = static_cast<std::uint64_t>(pipeline_config.tokens) * 2 * (n - 1) + 1;
      payload = accesses * sizeof(std::uint64_t);
      break;
    case App::kMasterWorker: {
      dsmr::workload::MasterWorkerConfig c;
      c.tasks_per_worker = kMasterWorkerTasks;
      c.seed = seed * 31 + 7;
      dsmr::workload::spawn_master_worker(world, c);
      accesses = (n - 1) * static_cast<std::uint64_t>(c.tasks_per_worker) + 1;
      payload = accesses * sizeof(std::uint64_t);
      break;
    }
  }
  const double cpu1 = thread_cpu_s();
  const rt::RunReport report = world.run();
  cost.setup_cpu_s = cpu1 - cpu0;
  cost.run_cpu_s = thread_cpu_s() - cpu1;
  round.run_cpu_s += cost.run_cpu_s;

  const auto& events = world.events().events();
  std::uint64_t applied = 0;
  for (const auto& event : events) applied += event.apply_seq != 0 ? 1 : 0;
  round.attempted += accesses;
  round.completed += std::min(applied, accesses);
  cost.completed = std::min(applied, accesses);
  round.engine_events += report.engine_events;
  round.virtual_ns += report.end_time;
  const auto& traffic = world.traffic();
  round.clock_bytes += traffic.clock_bytes;

  fail(check_equal("access events", events.size(), accesses));
  fail(check_equal("payload bytes", traffic.payload_bytes, payload));
  fail(check_verdict_class(info.name, info.racy, report.race_count));
  switch (info.app) {
    case App::kHistLocked:
      fail(check_equal("histogram total", dsmr::workload::histogram_total(world, *hist),
                       n * static_cast<std::uint64_t>(config.hist_increments)));
      break;
    case App::kStencil: {
      std::vector<double> cells;
      for (const auto addr : stencil.results) {
        const auto bytes = world.segment(addr.rank).read_bytes(
            addr.offset, static_cast<std::uint32_t>(stencil.cells_per_rank * sizeof(double)));
        const std::size_t at = cells.size();
        cells.resize(at + static_cast<std::size_t>(stencil.cells_per_rank));
        std::memcpy(cells.data() + at, bytes.data(), bytes.size());
      }
      fail(check_cells(cells, dsmr::workload::stencil_reference(config.ranks, stencil_config)));
      break;
    }
    case App::kPipeline:
      fail(check_equal("pipeline sink", read_word(world, pipeline.sink),
                       dsmr::workload::pipeline_expected(config.ranks, pipeline_config)));
      break;
    default:
      break;
  }
  if (events.size() <= kGroundTruthMaxEvents) {
    const auto truth = dsmr::analysis::compute_ground_truth(world.events());
    const auto reported = dsmr::analysis::reported_pairs(world.races());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> r, t;
    for (const auto& pair : reported) r.emplace_back(pair.first, pair.second);
    for (const auto& pair : truth.pairs) t.emplace_back(pair.first, pair.second);
    fail(check_reports_in_truth(r, t));
  }

  recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
  const dr::Log& log = recorder.log();
  std::vector<Rank> homes;
  for (const auto& entry : log.areas) homes.push_back(entry.home);
  const dr::VerdictSignature live =
      live_signature(world.races().reports(), flat_index(homes, config.ranks),
                     report.completed, report.stuck_ranks);
  const FoldResult fold = fold_pipeline(log, live);
  fail(fold.failure);
  add_fold(round.fold, fold);
  cost.fold_cpu_s = fold.fold_cpu_s;
  cost.fold_events = fold.events;
  if (pattern != nullptr) *pattern = pattern_from_sim_log(log);
}

void merge_into(SimRound& into, const SimRound& part) {
  into.run_cpu_s += part.run_cpu_s;
  into.attempted += part.attempted;
  into.completed += part.completed;
  into.clock_bytes += part.clock_bytes;
  into.engine_events += part.engine_events;
  into.virtual_ns += part.virtual_ns;
  add_fold(into.fold, part.fold);
  into.failures.insert(into.failures.end(), part.failures.begin(), part.failures.end());
}

}  // namespace

SimRound run_sim_round(const SimAppsConfig& config, bool keep_patterns) {
  // The seed list is swept the way analysis::seed_sweep does it: independent
  // single-threaded Worlds, spread over max_threads() worker threads. The
  // run, fold and setup times are summed per instance (thread-seconds).
  struct Instance {
    std::uint64_t seed;
    const AppInfo* info;
  };
  std::vector<Instance> instances;
  for (const std::uint64_t seed : config.seeds) {
    for (const AppInfo& info : kApps) instances.push_back(Instance{seed, &info});
  }
  const int workers = std::min(max_threads(), static_cast<int>(instances.size()));
  std::vector<SimRound> parts(static_cast<std::size_t>(workers));
  std::vector<Pattern> patterns(keep_patterns ? instances.size() : 0);
  std::vector<SimRound::Instance> costs(instances.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w]() {
      const PinnedTo pin(w);
      for (std::size_t i = next++; i < instances.size(); i = next++) {
        run_instance(config, instances[i].seed, *instances[i].info,
                     parts[static_cast<std::size_t>(w)], costs[i],
                     keep_patterns ? &patterns[i] : nullptr);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SimRound round;
  for (const SimRound& part : parts) merge_into(round, part);
  round.patterns = std::move(patterns);
  round.instances = std::move(costs);
  return round;
}

}  // namespace perfbench
