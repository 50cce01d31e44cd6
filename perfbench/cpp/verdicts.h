// The verdict check: every served verdict must equal the verdict a
// never-faulted serial PolygraphSystem::predict gives for the same input.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "load.h"
#include "polygraph/system.h"
#include "tensor/tensor.h"

namespace perfbench {

/// First field (label, reliable, votes, activated, degraded) on which the
/// two verdicts differ, as "field served=x reference=y"; empty if equal.
std::string verdict_diff(const pgmr::polygraph::Verdict& served,
                         const pgmr::polygraph::Verdict& reference);

/// Reference verdicts by input index, computed once per distinct input that
/// `records` used (the rest stay empty) with serial predict on `system`.
std::vector<std::optional<pgmr::polygraph::Verdict>> reference_verdicts(
    pgmr::polygraph::PolygraphSystem& system,
    const std::vector<pgmr::Tensor>& inputs,
    const std::vector<RequestRecord>& records);

struct VerdictCheck {
  std::size_t checked = 0;     ///< verdicts compared
  std::size_t mismatches = 0;  ///< verdicts differing from the reference
  std::size_t missing = 0;     ///< requests that never got a verdict
  std::string first_problem;
  bool passed() const { return mismatches == 0 && missing == 0; }
};

/// Compares every record (warmup included) with reference[record.input].
VerdictCheck check_verdicts(
    const std::vector<RequestRecord>& records,
    const std::vector<std::optional<pgmr::polygraph::Verdict>>& reference);

}  // namespace perfbench
