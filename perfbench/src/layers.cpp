// Per-layer rungs. Each rung calls one module's public functions directly,
// on the workload's own pattern (area table + per-rank ops), and times the
// calls with spans kept in memory: the figures are the layers' shares of
// what the live rounds pay end to end.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "clocks/vector_clock.hpp"
#include "core/rules.hpp"
#include "detect/sharded_detector.hpp"
#include "mem/public_segment.hpp"
#include "net/message.hpp"
#include "net/thread_fabric.hpp"
#include "runtime/process.hpp"
#include "runtime/world.hpp"

namespace perfbench {

namespace dr = dsmr::record;
namespace rt = dsmr::runtime;
using dsmr::clocks::VectorClock;
using dsmr::core::AccessKind;
using dsmr::core::DetectorMode;

namespace {

/// Results of the timed calls flow here so the optimizer cannot drop them.
std::atomic<std::uint64_t> g_sink{0};

/// A layer's accumulated span time and call count.
struct Span {
  std::uint64_t ns = 0;
  std::uint64_t count = 0;
  void add(std::uint64_t span_ns, std::uint64_t calls) {
    ns += span_ns;
    count += calls;
  }
  double mean() const { return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count); }
};

/// The detector shard count of a ThreadWorld (ThreadWorldConfig::stripes).
const int kShards = rt::ThreadWorldConfig{}.stripes;

int thread_count(const Pattern& pattern) { return std::min(pattern.ranks, max_threads()); }

/// Runs `body(t)` on `threads` threads and joins them.
template <typename Body>
void fan_out(int threads, Body body) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (auto& thread : pool) thread.join();
}

AccessKind access_kind(const Op& op) {
  return op.kind == OpKind::kPut ? AccessKind::kWrite : AccessKind::kRead;
}

// ---- mem ----

void mem_rung(const std::vector<Pattern>& patterns, std::vector<Metric>* out) {
  Span alloc, find;
  for (const Pattern& pattern : patterns) {
    std::vector<std::unique_ptr<dsmr::mem::PublicSegment>> segments;
    for (Rank home = 0; home < pattern.ranks; ++home) {
      segments.push_back(std::make_unique<dsmr::mem::PublicSegment>(
          home, segment_bytes_for(pattern), static_cast<std::size_t>(pattern.ranks)));
    }
    std::vector<std::uint32_t> offsets(pattern.areas.size());
    auto t0 = Clock::now();
    for (std::size_t flat = 0; flat < pattern.areas.size(); ++flat) {
      const AreaSpec& area = pattern.areas[flat];
      auto& segment = *segments[static_cast<std::size_t>(area.home)];
      offsets[flat] = segment.area(segment.allocate_area(area.size, area.name)).offset;
    }
    alloc.add(ns_between(t0, Clock::now()), pattern.areas.size());

    std::uint64_t sum = 0, calls = 0;
    t0 = Clock::now();
    for (const auto& program : pattern.programs) {
      for (const Op& op : program) {
        if (!is_access(op.kind)) continue;
        const AreaSpec& area = pattern.areas[op.area];
        sum += segments[static_cast<std::size_t>(area.home)]->find_area(offsets[op.area], op.len)->id;
        ++calls;
      }
    }
    find.add(ns_between(t0, Clock::now()), calls);
    g_sink += sum;
  }
  out->push_back({"mem.find_area_ns", find.mean(), "ns"});
  out->push_back({"mem.alloc_ns", alloc.mean(), "ns"});
}

// ---- record ----

dr::EventKind event_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kPut: return dr::EventKind::kThreadPut;
    case OpKind::kGet: return dr::EventKind::kThreadGet;
    case OpKind::kLock: return dr::EventKind::kThreadLock;
    case OpKind::kUnlock: return dr::EventKind::kThreadUnlock;
    case OpKind::kSignal: return dr::EventKind::kSignal;
    case OpKind::kWait: return dr::EventKind::kWaitMatch;
  }
  return dr::EventKind::kTick;
}

bool names_area(OpKind kind) { return kind != OpKind::kSignal && kind != OpKind::kWait; }

void record_rung(const std::vector<Pattern>& patterns, std::vector<Metric>* out) {
  Span reg, index, append;
  for (const Pattern& pattern : patterns) {
    const std::vector<std::uint32_t> ids = home_ids(pattern);
    rt::ThreadWorldConfig c;
    dr::Recorder recorder(static_cast<std::uint32_t>(pattern.ranks), dr::Backend::kThread,
                          c.mode, c.lock_clock_handoff, c.acked_puts);
    auto t0 = Clock::now();
    for (std::size_t flat = 0; flat < pattern.areas.size(); ++flat) {
      const AreaSpec& area = pattern.areas[flat];
      recorder.register_area(area.home, ids[flat], area.size, area.name);
    }
    reg.add(ns_between(t0, Clock::now()), pattern.areas.size());

    // The per-op area lookup every recorded put/get/lock/unlock makes.
    std::uint64_t sum = 0, calls = 0;
    t0 = Clock::now();
    for (const auto& program : pattern.programs) {
      for (const Op& op : program) {
        if (!names_area(op.kind)) continue;
        sum += recorder.area_index(pattern.areas[op.area].home, ids[op.area]);
        ++calls;
      }
    }
    index.add(ns_between(t0, Clock::now()), calls);
    g_sink += sum;

    // Appends from the rank threads, concurrently, as a live run makes them.
    const int threads = thread_count(pattern);
    std::vector<Span> per_thread(static_cast<std::size_t>(threads));
    fan_out(threads, [&](int t) {
      const auto start = Clock::now();
      std::uint64_t n = 0;
      for (Rank r = t; r < pattern.ranks; r += threads) {
        for (const Op& op : pattern.programs[static_cast<std::size_t>(r)]) {
          recorder.record_thread(r, event_kind(op.kind), op.area, op.len);
          ++n;
        }
      }
      per_thread[static_cast<std::size_t>(t)].add(ns_between(start, Clock::now()), n);
    });
    for (const Span& s : per_thread) append.add(s.ns, s.count);
  }
  out->push_back({"record.area_index_ns", index.mean(), "ns"});
  out->push_back({"record.register_ns", reg.mean(), "ns"});
  out->push_back({"record.append_ns", append.mean(), "ns"});
}

// ---- detect + core ----

/// One ShardedDetector per home, every area registered, as a ThreadWorld
/// builds them.
std::vector<std::unique_ptr<dsmr::detect::ShardedDetector>> detectors_for(
    const Pattern& pattern, int shards) {
  std::vector<std::size_t> per_home(static_cast<std::size_t>(pattern.ranks), 0);
  for (const AreaSpec& area : pattern.areas) ++per_home[static_cast<std::size_t>(area.home)];
  std::vector<std::unique_ptr<dsmr::detect::ShardedDetector>> detectors;
  for (Rank home = 0; home < pattern.ranks; ++home) {
    detectors.push_back(std::make_unique<dsmr::detect::ShardedDetector>(
        static_cast<std::size_t>(pattern.ranks), home, shards));
    detectors.back()->register_areas(per_home[static_cast<std::size_t>(home)]);
  }
  return detectors;
}

/// The clock edges a ThreadWorld access adds after its check: a get merges
/// the W it read from, an acked put the pre-update V ∨ W.
void merge_edges(VectorClock& clock, const dsmr::detect::ShardedDetector& det,
                 std::uint32_t id, bool is_write, VectorClock& scratch) {
  if (is_write) {
    scratch = det.v_clock(id);
    scratch.merge_from(det.w_clock(id));
    clock.merge_from(scratch);
  } else {
    clock.merge_from(det.w_clock(id));
  }
}

void detect_rung(const std::vector<Pattern>& patterns, std::vector<Metric>* out) {
  Span wait, check;
  for (const Pattern& pattern : patterns) {
    const std::vector<std::uint32_t> ids = home_ids(pattern);
    auto detectors = detectors_for(pattern, kShards);
    const int threads = thread_count(pattern);
    std::vector<Span> waits(static_cast<std::size_t>(threads)), checks(static_cast<std::size_t>(threads));
    fan_out(threads, [&](int t) {
      Span& w = waits[static_cast<std::size_t>(t)];
      Span& c = checks[static_cast<std::size_t>(t)];
      std::uint64_t races = 0;
      VectorClock scratch;
      for (Rank r = t; r < pattern.ranks; r += threads) {
        VectorClock clock(static_cast<std::size_t>(pattern.ranks));
        std::uint64_t event = static_cast<std::uint64_t>(r) << 40;
        for (const Op& op : pattern.programs[static_cast<std::size_t>(r)]) {
          if (!is_access(op.kind)) continue;
          auto& det = *detectors[static_cast<std::size_t>(pattern.areas[op.area].home)];
          const std::uint32_t id = ids[op.area];
          const bool is_write = op.kind == OpKind::kPut;
          clock.tick(r);
          const auto t0 = Clock::now();
          std::lock_guard<std::mutex> guard(det.shard_mutex(id));
          const auto t1 = Clock::now();
          const auto verdict = det.check_one(DetectorMode::kDualClock, access_kind(op), r, clock, id);
          det.store_access(id, r, clock, is_write, r, ++event);
          const auto t2 = Clock::now();
          races += verdict.race ? 1 : 0;
          w.add(ns_between(t0, t1), 1);
          c.add(ns_between(t1, t2), 1);
          merge_edges(clock, det, id, is_write, scratch);
        }
      }
      g_sink += races;
    });
    for (int t = 0; t < threads; ++t) {
      wait.add(waits[static_cast<std::size_t>(t)].ns, waits[static_cast<std::size_t>(t)].count);
      check.add(checks[static_cast<std::size_t>(t)].ns, checks[static_cast<std::size_t>(t)].count);
    }
  }
  out->push_back({"detect.shard_lock_wait_ns", wait.mean(), "ns"});
  out->push_back({"detect.check_store_ns", check.mean(), "ns"});
}

/// core.check_ns: the check kernel alone. The pattern's accesses are first
/// played single-threaded (ranks round-robin) against detector state to
/// capture each check's inputs; then every captured check is re-run through
/// core::check_access back to back, in one timed span.
void core_rung(const std::vector<Pattern>& patterns, std::vector<Metric>* out) {
  constexpr std::size_t kMaxChecks = 1 << 16;
  struct Input {
    AccessKind kind;
    Rank accessor;
    VectorClock clock, v, w;
    Rank last_access, last_write;
    dsmr::clocks::Epoch v_epoch, w_epoch;
  };
  Span span;
  for (const Pattern& pattern : patterns) {
    const std::vector<std::uint32_t> ids = home_ids(pattern);
    auto detectors = detectors_for(pattern, 1);
    std::vector<VectorClock> clocks(static_cast<std::size_t>(pattern.ranks),
                                    VectorClock(static_cast<std::size_t>(pattern.ranks)));
    std::vector<std::size_t> cursor(static_cast<std::size_t>(pattern.ranks), 0);
    std::vector<Input> inputs;
    VectorClock scratch;
    std::uint64_t event = 0;
    for (bool progressed = true; progressed && inputs.size() < kMaxChecks;) {
      progressed = false;
      for (Rank r = 0; r < pattern.ranks && inputs.size() < kMaxChecks; ++r) {
        const auto& program = pattern.programs[static_cast<std::size_t>(r)];
        auto& at = cursor[static_cast<std::size_t>(r)];
        while (at < program.size() && !is_access(program[at].kind)) ++at;
        if (at == program.size()) continue;
        const Op& op = program[at++];
        progressed = true;
        auto& det = *detectors[static_cast<std::size_t>(pattern.areas[op.area].home)];
        const std::uint32_t id = ids[op.area];
        VectorClock& clock = clocks[static_cast<std::size_t>(r)];
        clock.tick(r);
        inputs.push_back(Input{access_kind(op), r, clock, det.v_clock(id), det.w_clock(id),
                               det.last_access_rank(id), det.last_write_rank(id),
                               det.v_epoch(id), det.w_epoch(id)});
        det.store_access(id, r, clock, op.kind == OpKind::kPut, r, ++event);
        merge_edges(clock, det, id, op.kind == OpKind::kPut, scratch);
      }
    }
    std::uint64_t races = 0;
    const auto t0 = Clock::now();
    for (const Input& in : inputs) {
      const dsmr::core::StoredClocks stored{in.v, in.w, in.last_access, in.last_write,
                                            in.v_epoch, in.w_epoch};
      races += dsmr::core::check_access(DetectorMode::kDualClock, in.kind, in.accessor,
                                        in.clock, stored).race ? 1 : 0;
    }
    span.add(ns_between(t0, Clock::now()), inputs.size());
    g_sink += races;
  }
  out->push_back({"core.check_ns", span.mean(), "ns"});
}

// ---- net ----

/// The two wire messages a ThreadWorld put or get accounts, built and
/// recorded into the rank's fabric shard the way the runtime does it.
void account_access(dsmr::net::ThreadFabric& fabric, Rank rank, Rank home, std::uint32_t id,
                    const Op& op, const VectorClock& clock) {
  namespace dn = dsmr::net;
  const bool put = op.kind == OpKind::kPut;
  dn::Message first;
  first.type = put ? dn::MsgType::kPutCommit : dn::MsgType::kGetLockedRequest;
  first.src = rank;
  first.dst = home;
  first.area = id;
  if (put) first.data.resize(op.len);
  first.clock = clock;
  fabric.shard(rank).record(first);
  dn::Message second;
  second.type = put ? dn::MsgType::kPutCommitAck : dn::MsgType::kGetLockedResponse;
  second.src = home;
  second.dst = rank;
  second.area = id;
  if (!put) second.data.resize(op.len);
  second.clock = clock;
  fabric.shard(rank).record(second);
}

void net_rung(const std::vector<Pattern>& patterns, std::vector<Metric>* out) {
  Span account, signal;
  for (const Pattern& pattern : patterns) {
    const std::vector<std::uint32_t> ids = home_ids(pattern);
    dsmr::net::ThreadFabric fabric(pattern.ranks);
    const int threads = thread_count(pattern);
    std::vector<Span> per_thread(static_cast<std::size_t>(threads));
    fan_out(threads, [&](int t) {
      const auto start = Clock::now();
      std::uint64_t n = 0;
      for (Rank r = t; r < pattern.ranks; r += threads) {
        VectorClock clock(static_cast<std::size_t>(pattern.ranks));
        for (const Op& op : pattern.programs[static_cast<std::size_t>(r)]) {
          if (!is_access(op.kind)) continue;
          clock.tick(r);
          account_access(fabric, r, pattern.areas[op.area].home, ids[op.area], op, clock);
          ++n;
        }
      }
      per_thread[static_cast<std::size_t>(t)].add(ns_between(start, Clock::now()), n);
    });
    for (const Span& s : per_thread) account.add(s.ns, s.count);
    g_sink += fabric.fold().payload_bytes;
  }

  // Signal + wait_signal ping-pong between two ranks' threads, carrying
  // clocks as wide as the widest pattern's.
  int ranks = 2;
  for (const Pattern& pattern : patterns) ranks = std::max(ranks, pattern.ranks);
  constexpr int kRoundTrips = 2000;
  dsmr::net::ThreadFabric fabric(ranks);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  const VectorClock clock(static_cast<std::size_t>(ranks));
  std::uint64_t lost = 0;
  const auto t0 = Clock::now();
  if (max_threads() >= 2) {
    std::thread echo([&]() {
      for (int i = 0; i < kRoundTrips; ++i) {
        if (!fabric.wait_signal(1, static_cast<std::uint64_t>(i), deadline)) return;
        fabric.signal(0, static_cast<std::uint64_t>(i), dsmr::net::ThreadSignal{1, clock, {}});
      }
    });
    for (int i = 0; i < kRoundTrips; ++i) {
      fabric.signal(1, static_cast<std::uint64_t>(i), dsmr::net::ThreadSignal{0, clock, {}});
      if (!fabric.wait_signal(0, static_cast<std::uint64_t>(i), deadline)) ++lost;
    }
    echo.join();
  } else {
    for (int i = 0; i < 2 * kRoundTrips; ++i) {
      fabric.signal(0, static_cast<std::uint64_t>(i), dsmr::net::ThreadSignal{0, clock, {}});
      if (!fabric.wait_signal(0, static_cast<std::uint64_t>(i), deadline)) ++lost;
    }
  }
  signal.add(ns_between(t0, Clock::now()), 2 * kRoundTrips);
  g_sink += lost;
  out->push_back({"net.account_ns", account.mean(), "ns"});
  out->push_back({"net.signal_wait_ns", signal.mean(), "ns"});
}

// ---- sim ----

dsmr::sim::Task sim_ops(rt::Process& p, const Pattern* pattern,
                        const std::vector<dsmr::mem::GlobalAddress>* addrs) {
  std::uint64_t last = 0;
  for (const Op& op : pattern->programs[static_cast<std::size_t>(p.rank())]) {
    const dsmr::mem::GlobalAddress addr = (*addrs)[op.area];
    switch (op.kind) {
      case OpKind::kPut: {
        std::vector<std::byte> buffer(op.len);
        const std::uint64_t value = op.data == DataMode::kIncrement ? last + 1 : op.value;
        std::memcpy(buffer.data(), &value, std::min<std::size_t>(sizeof(value), buffer.size()));
        co_await p.put(addr, buffer);
        break;
      }
      case OpKind::kGet: {
        const std::vector<std::byte> got = co_await p.get(addr, op.len);
        if (op.data == DataMode::kIncrement && got.size() >= sizeof(last)) {
          std::memcpy(&last, got.data(), sizeof(last));
        }
        break;
      }
      case OpKind::kLock:
        co_await p.lock(addr);
        break;
      case OpKind::kUnlock:
        co_await p.unlock(addr);
        break;
      case OpKind::kSignal:
        p.signal(op.peer, op.tag);
        break;
      case OpKind::kWait:
        co_await p.wait_signal(op.tag);
        break;
    }
  }
}

/// The pattern on the simulator (the oracle backend): engine events and
/// virtual time per access.
void sim_rung(const std::vector<Pattern>& patterns, std::vector<Metric>* out) {
  std::uint64_t events = 0, accesses = 0, virtual_ns = 0;
  double wall_s = 0;
  for (const Pattern& pattern : patterns) {
    rt::WorldConfig config;
    config.nprocs = pattern.ranks;
    config.segment_bytes = segment_bytes_for(pattern);
    rt::World world(config);
    std::vector<dsmr::mem::GlobalAddress> addrs;
    for (const AreaSpec& area : pattern.areas) addrs.push_back(world.alloc(area.home, area.size, area.name));
    for (Rank r = 0; r < pattern.ranks; ++r) {
      world.spawn(r, [&pattern, &addrs](rt::Process& p) { return sim_ops(p, &pattern, &addrs); });
    }
    const auto t0 = Clock::now();
    const rt::RunReport report = world.run();
    wall_s += seconds_between(t0, Clock::now());
    events += report.engine_events;
    virtual_ns += report.end_time;
    accesses += count_accesses(pattern);
  }
  out->push_back({"sim.engine_events_per_s", static_cast<double>(events) / wall_s, "1/s"});
  out->push_back({"sim.events_per_op", static_cast<double>(events) / static_cast<double>(accesses), "count"});
  out->push_back({"sim.virtual_ns_per_op", static_cast<double>(virtual_ns) / static_cast<double>(accesses), "ns"});
}

/// The same ranks and areas with every access replaced by a lock/unlock
/// pair, for patterns that take no locks of their own.
Pattern lock_pattern(const Pattern& pattern) {
  Pattern locks = pattern;
  for (auto& program : locks.programs) {
    std::vector<Op> ops;
    for (const Op& op : program) {
      if (!is_access(op.kind)) continue;
      Op lock;
      lock.kind = OpKind::kLock;
      lock.area = op.area;
      ops.push_back(lock);
      lock.kind = OpKind::kUnlock;
      ops.push_back(lock);
    }
    program = std::move(ops);
  }
  return locks;
}

bool takes_locks(const Pattern& pattern) {
  for (const auto& program : pattern.programs) {
    for (const Op& op : program) {
      if (op.kind == OpKind::kLock) return true;
    }
  }
  return false;
}

}  // namespace

void layer_rungs(const std::vector<Pattern>& patterns, bool run_sim_rung,
                 std::vector<Metric>* out) {
  mem_rung(patterns, out);
  record_rung(patterns, out);
  detect_rung(patterns, out);
  core_rung(patterns, out);
  net_rung(patterns, out);
  if (run_sim_rung) sim_rung(patterns, out);
}

double runtime_rungs(const std::vector<Pattern>& patterns, int passes,
                     std::vector<Metric>* out) {
  OpSpans recorded, unrecorded;
  std::vector<double> traced_rates;
  ThreadRoundOptions options;
  options.trace = true;
  options.fold = false;
  for (const Pattern& pattern : patterns) {
    for (int pass = 0; pass < passes; ++pass) {
      options.record = true;
      const ThreadRound round = run_thread_round(pattern, options);
      recorded.add(round.spans);
      traced_rates.push_back(access_rate(pattern, round));
      options.record = false;
      unrecorded.add(run_thread_round(pattern, options).spans);
    }
    if (!takes_locks(pattern)) {
      options.record = true;
      recorded.add(run_thread_round(lock_pattern(pattern), options).spans);
    }
  }
  out->push_back({"runtime.put_ns", recorded.mean_ns(OpKind::kPut), "ns"});
  out->push_back({"runtime.get_ns", recorded.mean_ns(OpKind::kGet), "ns"});
  out->push_back({"runtime.lock_ns", recorded.mean_ns(OpKind::kLock), "ns"});
  out->push_back({"runtime.unlock_ns", recorded.mean_ns(OpKind::kUnlock), "ns"});
  out->push_back({"runtime.put_ns_unrecorded", unrecorded.mean_ns(OpKind::kPut), "ns"});
  out->push_back({"runtime.get_ns_unrecorded", unrecorded.mean_ns(OpKind::kGet), "ns"});

  // Spawn and join alone: a ThreadWorld whose rank threads run empty bodies.
  constexpr int kWorlds = 20;
  std::vector<double> spawn_join_ms;
  for (int i = 0; i < kWorlds; ++i) {
    rt::ThreadWorldConfig config;
    config.nprocs = patterns.front().ranks;
    rt::ThreadWorld world(config);
    for (Rank t = 0; t < thread_count(patterns.front()); ++t) world.spawn(t, [](rt::ThreadProcess&) {});
    spawn_join_ms.push_back(static_cast<double>(world.run().wall_ns) / 1e6);
  }
  out->push_back({"runtime.spawn_join_ms", median(spawn_join_ms), "ms"});
  return median(traced_rates);
}

}  // namespace perfbench
