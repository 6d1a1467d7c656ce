// Pattern generators (threads workloads) and the sim-log → pattern rebuild.
#include <algorithm>
#include <ctime>
#include <thread>

#include "bench.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace dr = dsmr::record;

namespace {

constexpr std::uint32_t kSmallValue = 8;
constexpr std::uint32_t kLargeValue = 4096;
constexpr int kLargeShare = 16;  ///< 1 area in 16 holds a 4 KiB value.

template <typename T>
void shuffle(std::vector<T>& items, dsmr::util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

Op access(OpKind kind, std::uint32_t area, std::uint32_t len, DataMode data,
          std::uint64_t value = 0) {
  Op op;
  op.kind = kind;
  op.area = area;
  op.len = len;
  op.data = data;
  op.value = value;
  return op;
}

Op lock_op(OpKind kind, std::uint32_t area) {
  Op op;
  op.kind = kind;
  op.area = area;
  return op;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

int max_threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(cores == 0 ? 1 : cores, 1, 4));
}

bool is_access(OpKind kind) { return kind == OpKind::kPut || kind == OpKind::kGet; }

std::uint64_t count_accesses(const Pattern& pattern) {
  std::uint64_t n = 0;
  for (const auto& program : pattern.programs) {
    for (const Op& op : program) n += is_access(op.kind) ? 1 : 0;
  }
  return n;
}

std::uint64_t count_payload(const Pattern& pattern) {
  std::uint64_t bytes = 0;
  for (const auto& program : pattern.programs) {
    for (const Op& op : program) bytes += is_access(op.kind) ? op.len : 0;
  }
  return bytes;
}

std::uint32_t segment_bytes_for(const Pattern& pattern) {
  std::vector<std::uint64_t> need(static_cast<std::size_t>(pattern.ranks), 0);
  for (const AreaSpec& area : pattern.areas) need[static_cast<std::size_t>(area.home)] += area.size;
  const std::uint64_t most = *std::max_element(need.begin(), need.end());
  // The runtimes' default, or the rounded-up need when the table is larger.
  const std::uint64_t rounded = (most + 0xffff) & ~std::uint64_t{0xffff};
  return static_cast<std::uint32_t>(std::max<std::uint64_t>(rounded, 1 << 20));
}

std::vector<std::uint32_t> home_ids(const Pattern& pattern) {
  std::vector<std::uint32_t> next(static_cast<std::size_t>(pattern.ranks), 0);
  std::vector<std::uint32_t> ids;
  ids.reserve(pattern.areas.size());
  for (const AreaSpec& area : pattern.areas) ids.push_back(next[static_cast<std::size_t>(area.home)]++);
  return ids;
}

Pattern make_private_pattern(std::uint64_t seed, int ranks, int areas_per_rank,
                             int passes) {
  DSMR_REQUIRE(areas_per_rank % (ranks * kLargeShare) == 0,
               "areas_per_rank must split evenly over homes and size classes");
  dsmr::util::Rng rng(seed);
  Pattern pattern;
  pattern.ranks = ranks;
  pattern.programs.resize(static_cast<std::size_t>(ranks));
  // owned[r]: rank r's areas (flat index, size). Each rank owns the same
  // number of areas on every home and the same share of 4 KiB values;
  // which of its areas are large is seeded.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> owned(
      static_cast<std::size_t>(ranks));
  const int per_home = areas_per_rank / ranks;
  for (Rank home = 0; home < ranks; ++home) {
    for (Rank r = 0; r < ranks; ++r) {
      std::vector<std::uint32_t> sizes(static_cast<std::size_t>(per_home), kSmallValue);
      for (int i = 0; i < per_home / kLargeShare; ++i) sizes[static_cast<std::size_t>(i)] = kLargeValue;
      shuffle(sizes, rng);
      for (int i = 0; i < per_home; ++i) {
        const auto flat = static_cast<std::uint32_t>(pattern.areas.size());
        const std::uint32_t size = sizes[static_cast<std::size_t>(i)];
        std::string name = "p";
        name += std::to_string(r);
        name += ".h";
        name += std::to_string(home);
        name += '.';
        name += std::to_string(i);
        pattern.areas.push_back(AreaSpec{home, size, std::move(name)});
        owned[static_cast<std::size_t>(r)].emplace_back(flat, size);
      }
    }
  }
  for (Rank r = 0; r < ranks; ++r) {
    auto& program = pattern.programs[static_cast<std::size_t>(r)];
    auto order = owned[static_cast<std::size_t>(r)];
    program.reserve(order.size() * 2 * static_cast<std::size_t>(passes));
    for (int pass = 0; pass < passes; ++pass) {
      shuffle(order, rng);
      for (const auto& [flat, size] : order) {
        // Only this rank touches the area, so the get must read back the
        // stamp the put before it wrote.
        const std::uint64_t stamp = rng.next() | 1;
        program.push_back(access(OpKind::kPut, flat, size, DataMode::kStamp, stamp));
        program.push_back(access(OpKind::kGet, flat, size, DataMode::kStamp, stamp));
      }
    }
  }
  return pattern;
}

Pattern make_shared_pattern(std::uint64_t seed, int ranks, int increments,
                            SharedLayout* layout) {
  constexpr int kAreas = 16;
  constexpr int kRacy = 3;
  constexpr std::uint64_t kPublishTag = 0x5052ULL << 32;  // "PR"
  dsmr::util::Rng rng(seed);
  Pattern pattern;
  pattern.ranks = ranks;
  pattern.programs.resize(static_cast<std::size_t>(ranks));
  for (int a = 0; a < kAreas; ++a) {
    std::string name = "s";
    name += std::to_string(a);
    pattern.areas.push_back(AreaSpec{0, kSmallValue, std::move(name)});
  }
  // Which of the 16 areas play which role is seeded.
  std::vector<std::uint32_t> roles(kAreas);
  for (int a = 0; a < kAreas; ++a) roles[static_cast<std::size_t>(a)] = static_cast<std::uint32_t>(a);
  shuffle(roles, rng);
  SharedLayout out;
  out.racy.assign(roles.begin(), roles.begin() + kRacy);
  out.read_shared = roles[kRacy];
  out.counters.assign(roles.begin() + kRacy + 1, roles.end());
  out.published = rng.next() | 1;
  out.increments = increments;

  for (Rank r = 0; r < ranks; ++r) {
    auto& program = pattern.programs[static_cast<std::size_t>(r)];
    // Racy prefix: every rank's first ops are unsynchronized writes to the
    // same 3 areas in the same order, so no write carries an incoming
    // happens-before edge from another rank's write to that area.
    for (const std::uint32_t area : out.racy) {
      program.push_back(access(OpKind::kPut, area, kSmallValue, DataMode::kStamp, rng.next()));
    }
    // Publication: rank 0 writes the read-shared area and signals the rest.
    if (r == 0) {
      program.push_back(access(OpKind::kPut, out.read_shared, kSmallValue,
                               DataMode::kStamp, out.published));
      for (Rank to = 1; to < ranks; ++to) {
        Op signal;
        signal.kind = OpKind::kSignal;
        signal.peer = to;
        signal.tag = kPublishTag;
        program.push_back(signal);
      }
    } else {
      Op wait;
      wait.kind = OpKind::kWait;
      wait.tag = kPublishTag;
      program.push_back(wait);
    }
    // Body: locked read-modify-write increments, each followed by a read
    // of the published area. Every rank increments every counter
    // `increments` times, in a seeded order.
    auto order = out.counters;
    for (int i = 0; i < increments; ++i) {
      shuffle(order, rng);
      for (const std::uint32_t counter : order) {
        program.push_back(lock_op(OpKind::kLock, counter));
        program.push_back(access(OpKind::kGet, counter, kSmallValue, DataMode::kIncrement));
        program.push_back(access(OpKind::kPut, counter, kSmallValue, DataMode::kIncrement));
        program.push_back(lock_op(OpKind::kUnlock, counter));
        program.push_back(access(OpKind::kGet, out.read_shared, kSmallValue,
                                 DataMode::kStamp, out.published));
      }
    }
  }
  if (layout != nullptr) *layout = std::move(out);
  return pattern;
}

Pattern pattern_from_sim_log(const dr::Log& log) {
  Pattern pattern;
  pattern.ranks = static_cast<int>(log.header.nprocs);
  pattern.programs.resize(log.header.nprocs);
  for (const dr::AreaEntry& entry : log.areas) {
    pattern.areas.push_back(
        AreaSpec{entry.home, static_cast<std::uint32_t>(entry.size), entry.name});
  }
  // Sim puts and gets block their initiator, so each rank has at most one
  // access waiting for the apply event that carries its byte count.
  std::vector<std::size_t> pending(log.header.nprocs, 0);
  for (const dr::Event& event : log.events) {
    const auto rank = static_cast<std::size_t>(event.a);
    auto& program = pattern.programs.at(rank);
    switch (event.kind) {
      case dr::EventKind::kPutIssue:
      case dr::EventKind::kGetIssue:
        pending[rank] = program.size();
        program.push_back(access(event.kind == dr::EventKind::kPutIssue ? OpKind::kPut
                                                                       : OpKind::kGet,
                                 static_cast<std::uint32_t>(event.b), 0, DataMode::kNone));
        break;
      case dr::EventKind::kPutApply:
      case dr::EventKind::kGetApply:
        program[pending[rank]].len = static_cast<std::uint32_t>(event.c);
        break;
      case dr::EventKind::kLock:
        program.push_back(lock_op(OpKind::kLock, static_cast<std::uint32_t>(event.b)));
        break;
      case dr::EventKind::kUnlockIssue:
        program.push_back(lock_op(OpKind::kUnlock, static_cast<std::uint32_t>(event.b)));
        break;
      default:
        break;
    }
  }
  return pattern;
}

}  // namespace perfbench
