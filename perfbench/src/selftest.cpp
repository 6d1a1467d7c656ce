// The negative cases: each output check first passes on a real (small) run,
// then is fed a perturbed copy of that run's outputs or of its reference
// and must fail. A check that still passes on a perturbed input is vacuous,
// and the self-test exits non-zero.
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "record/replay.hpp"
#include "runtime/world.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace dr = dsmr::record;

namespace {

struct Tally {
  int bad = 0;

  void pass(const char* name, const std::string& failure) {
    if (!failure.empty()) {
      std::fprintf(stderr, "FAIL  %s should hold: %s\n", name, failure.c_str());
      ++bad;
    } else {
      std::fprintf(stderr, "ok    %s holds\n", name);
    }
  }
  void fail(const char* name, const std::string& failure) {
    if (failure.empty()) {
      std::fprintf(stderr, "FAIL  %s: the perturbed input passed (vacuous check)\n", name);
      ++bad;
    } else {
      std::fprintf(stderr, "ok    %s fails: %s\n", name, failure.c_str());
    }
  }
};

std::string join(const std::vector<std::string>& failures) {
  std::string out;
  for (const auto& f : failures) out += (out.empty() ? "" : "; ") + f;
  return out;
}

/// The fold comparison on a round's serialized log: a flipped byte, a
/// re-serialized log with one event moved to another rank, and a live
/// signature with an extra race must each fail it.
void fold_cases(Tally& t, const char* what, const std::vector<std::byte>& bytes,
                const dr::VerdictSignature& live) {
  const std::string prefix(what);
  t.pass((prefix + ": record == live").c_str(), check_fold_bytes(bytes, live));

  std::vector<std::byte> flipped = bytes;
  flipped[flipped.size() / 2] ^= std::byte{0x20};
  t.fail((prefix + ": flipped log byte").c_str(), check_fold_bytes(flipped, live));

  std::string error;
  std::optional<dr::Log> parsed = dr::Log::parse(bytes, &error);
  if (!parsed) return;  // already reported by the first case.
  dr::Log& log = *parsed;
  // Hand the last write of the log to another rank: with a valid checksum
  // the log parses, so only the fold comparison can catch it.
  for (auto it = log.events.rbegin(); it != log.events.rend(); ++it) {
    if (it->kind == dr::EventKind::kThreadPut || it->kind == dr::EventKind::kPutIssue) {
      const std::uint64_t rank = it->a;
      it->a = (rank + 1) % log.header.nprocs;
      // A sim put is split into issue/apply/ack: move all three.
      for (auto& e : log.events) {
        if ((e.kind == dr::EventKind::kPutApply || e.kind == dr::EventKind::kPutAck) &&
            e.a == rank && e.b == it->b) {
          e.a = it->a;
        }
      }
      break;
    }
  }
  t.fail((prefix + ": event moved to another rank").c_str(),
         check_fold_bytes(log.serialize(), live));

  dr::VerdictSignature extra = live;
  extra.races.push_back(dr::RaceCount{0, 0, dsmr::core::AccessKind::kWrite, 1});
  t.fail((prefix + ": live signature with an extra race").c_str(), check_fold_bytes(bytes, extra));
}

void private_cases(Tally& t) {
  const Pattern pattern = make_private_pattern(7, 4, 256, 1);
  ThreadRoundOptions options;
  options.keep_log = true;
  const ThreadRound round = run_thread_round(pattern, options);
  t.pass("threads-private round", join(check_private_round(pattern, round)));
  {
    ThreadRound r = round;
    r.report.checks -= 1;
    t.fail("private: inline checks != accesses issued", join(check_private_round(pattern, r)));
  }
  {
    ThreadRound r = round;
    r.traffic.payload_bytes += 8;
    t.fail("private: payload bytes != issued", join(check_private_round(pattern, r)));
  }
  {
    ThreadRound r = round;
    r.data_mismatches = 1;
    t.fail("private: a get read a stale value", join(check_private_round(pattern, r)));
  }
  {
    ThreadRound r = round;
    r.races_per_area[pattern.areas.size() / 2] = 1;
    t.fail("private: a race report on an unshared area", join(check_private_round(pattern, r)));
  }
  fold_cases(t, "threads-private", round.log_bytes, round.live);
}

void shared_cases(Tally& t) {
  SharedLayout layout;
  const Pattern pattern = make_shared_pattern(11, 4, 4, &layout);
  ThreadRoundOptions options;
  options.keep_log = true;
  const ThreadRound round = run_thread_round(pattern, options);
  t.pass("threads-shared round", join(check_shared_round(pattern, layout, round)));
  {
    ThreadRound r = round;
    r.races_per_area[layout.racy[1]] -= 1;
    t.fail("shared: one racy-prefix report missing", join(check_shared_round(pattern, layout, r)));
  }
  {
    ThreadRound r = round;
    r.races_per_area[layout.counters[0]] += 1;
    t.fail("shared: a report on a locked counter", join(check_shared_round(pattern, layout, r)));
  }
  {
    ThreadRound r = round;
    r.races_per_area[layout.read_shared] += 1;
    t.fail("shared: a report on the read-shared area", join(check_shared_round(pattern, layout, r)));
  }
  {
    ThreadRound r = round;
    r.read_races = 1;
    t.fail("shared: a read race report", join(check_shared_round(pattern, layout, r)));
  }
  {
    ThreadRound r = round;
    r.final_values[layout.counters.back()] -= 1;
    t.fail("shared: a lost counter increment", join(check_shared_round(pattern, layout, r)));
  }
  {
    ThreadRound r = round;
    r.final_values[layout.read_shared] ^= 1;
    t.fail("shared: published value overwritten", join(check_shared_round(pattern, layout, r)));
  }
  {
    ThreadRound r = round;
    r.report.checks += 1;
    t.fail("shared: inline checks != accesses issued", join(check_shared_round(pattern, layout, r)));
  }
  fold_cases(t, "threads-shared", round.log_bytes, round.live);
}

void sim_cases(Tally& t) {
  SimAppsConfig config;
  config.ranks = 8;
  config.seeds = {5};
  config.hist_increments = 8;
  config.stencil_iters = 3;
  config.pipeline_tokens = 6;
  const SimRound round = run_sim_round(config, false);
  t.pass("sim-apps round", join(round.failures));

  dsmr::workload::StencilConfig stencil;
  stencil.cells_per_rank = config.stencil_cells;
  stencil.iters = config.stencil_iters;
  const std::vector<double> reference = dsmr::workload::stencil_reference(config.ranks, stencil);
  std::vector<double> perturbed = reference;
  perturbed[perturbed.size() / 3] += 1e-9;
  t.pass("sim: stencil cells == reference", check_cells(reference, reference));
  t.fail("sim: perturbed stencil reference", check_cells(reference, perturbed));
  t.fail("sim: lost histogram increment", check_equal("histogram total", 63, 64));
  t.fail("sim: wrong pipeline sink", check_equal("pipeline sink", 100, 101));
  t.fail("sim: payload bytes != issued", check_equal("payload bytes", 4096, 4104));
  t.fail("sim: racy app without a report", check_verdict_class("stencil-buggy", true, 0));
  t.fail("sim: race-free app with a report", check_verdict_class("pipeline", false, 1));
  t.fail("sim: report outside the ground truth",
         check_reports_in_truth({{1, 2}, {3, 9}}, {{1, 2}, {3, 8}}));

  // The fold comparison on a real sim log: an unlocked histogram.
  dsmr::runtime::WorldConfig wc;
  wc.nprocs = 4;
  dr::Recorder recorder(4, dr::Backend::kSim, wc.mode, wc.lock_clock_handoff, wc.acked_puts);
  dsmr::runtime::World world(wc);
  world.set_recorder(&recorder);
  dsmr::workload::HistogramConfig hist;
  hist.bins = 4;
  hist.increments_per_rank = 6;
  dsmr::workload::spawn_histogram(world, hist);
  const auto report = world.run();
  recorder.finish(world.races().reports(), report.completed, report.stuck_ranks);
  fold_cases(t, "sim", recorder.log().serialize(), recorder.log().live);
}

}  // namespace

int self_test() {
  Tally t;
  private_cases(t);
  shared_cases(t);
  sim_cases(t);
  std::fprintf(stderr, "%s\n", t.bad == 0 ? "self-test: every check holds and every negative case fails it"
                                          : "self-test: FAILED");
  return t.bad == 0 ? 0 : 1;
}

}  // namespace perfbench
