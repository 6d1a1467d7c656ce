// Output checks. Every check compares against a computation made apart from
// the program (the pattern's own counts and stamps, the sequential stencil
// reference, the all-pairs ground truth) or against a property the method
// must have (record ≡ live, zero reports where nothing is shared).
#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::string check_equal(const std::string& what, std::uint64_t observed,
                        std::uint64_t expected) {
  if (observed == expected) return "";
  return what + " " + std::to_string(observed) + " != expected " + std::to_string(expected);
}

std::string check_race_counts(const std::vector<std::uint64_t>& observed,
                              const std::vector<std::uint64_t>& expected) {
  if (observed.size() != expected.size()) return "race table size differs";
  for (std::size_t area = 0; area < observed.size(); ++area) {
    if (observed[area] != expected[area]) {
      return "area #" + std::to_string(area) + " has " + std::to_string(observed[area]) +
             " race reports, expected " + std::to_string(expected[area]);
    }
  }
  return "";
}

std::string check_cells(const std::vector<double>& observed,
                        const std::vector<double>& reference) {
  if (observed.size() != reference.size()) return "stencil cell count differs from reference";
  for (std::size_t i = 0; i < observed.size(); ++i) {
    // The app and the reference run the same arithmetic in the same order:
    // the cells must match bit for bit.
    if (observed[i] != reference[i]) {
      char line[128];
      std::snprintf(line, sizeof(line), "stencil cell %zu = %.17g, reference %.17g", i,
                    observed[i], reference[i]);
      return line;
    }
  }
  return "";
}

std::string check_verdict_class(const std::string& app, bool racy, std::uint64_t races) {
  if (racy && races == 0) return app + " is racy but no race was reported";
  if (!racy && races != 0) {
    return app + " is race-free but " + std::to_string(races) + " races were reported";
  }
  return "";
}

std::string check_reports_in_truth(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& reported,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& truth) {
  for (const auto& pair : reported) {
    if (!std::binary_search(truth.begin(), truth.end(), pair)) {
      return "reported pair (" + std::to_string(pair.first) + ", " +
             std::to_string(pair.second) + ") is not a ground-truth race";
    }
  }
  return "";
}

namespace {

void keep(std::vector<std::string>& failures, std::string failure) {
  if (!failure.empty()) failures.push_back(std::move(failure));
}

/// Checks every threads round makes: each issued access was checked
/// inline, the wire carried exactly the payload issued, every get read the
/// value the pattern predicts, and the recorded log folds to the live
/// verdicts.
std::vector<std::string> common_thread_checks(const Pattern& pattern, const ThreadRound& round) {
  std::vector<std::string> failures;
  keep(failures, check_equal("inline checks", round.report.checks, count_accesses(pattern)));
  keep(failures, check_equal("payload bytes", round.traffic.payload_bytes, count_payload(pattern)));
  keep(failures, check_equal("get data mismatches", round.data_mismatches, 0));
  keep(failures, round.fold.failure);
  return failures;
}

}  // namespace

std::vector<std::string> check_private_round(const Pattern& pattern, const ThreadRound& round) {
  std::vector<std::string> failures = common_thread_checks(pattern, round);
  // No area is shared, so no access can race.
  keep(failures, check_race_counts(round.races_per_area,
                                   std::vector<std::uint64_t>(pattern.areas.size(), 0)));
  return failures;
}

std::vector<std::string> check_shared_round(const Pattern& pattern, const SharedLayout& layout,
                                            const ThreadRound& round) {
  std::vector<std::string> failures = common_thread_checks(pattern, round);
  // Each rank's first write to a racy area carries no happens-before edge
  // from the others' writes there: every write but the area's first races,
  // on every schedule. Locked counters and the published area never race.
  std::vector<std::uint64_t> expected(pattern.areas.size(), 0);
  for (const std::uint32_t area : layout.racy) {
    expected[area] = static_cast<std::uint64_t>(pattern.ranks - 1);
  }
  keep(failures, check_race_counts(round.races_per_area, expected));
  keep(failures, check_equal("read race reports", round.read_races, 0));
  const auto total = static_cast<std::uint64_t>(pattern.ranks) *
                     static_cast<std::uint64_t>(layout.increments);
  for (const std::uint32_t counter : layout.counters) {
    keep(failures, check_equal("counter #" + std::to_string(counter),
                               round.final_values[counter], total));
  }
  keep(failures, check_equal("published value", round.final_values[layout.read_shared],
                             layout.published));
  return failures;
}

}  // namespace perfbench
