#include "verdicts.h"

namespace perfbench {

using pgmr::polygraph::Verdict;

std::string verdict_diff(const Verdict& served, const Verdict& reference) {
  auto field = [](const char* name, auto s, auto r) {
    return std::string(name) + " served=" + std::to_string(s) +
           " reference=" + std::to_string(r);
  };
  if (served.label != reference.label) {
    return field("label", served.label, reference.label);
  }
  if (served.reliable != reference.reliable) {
    return field("reliable", served.reliable, reference.reliable);
  }
  if (served.votes != reference.votes) {
    return field("votes", served.votes, reference.votes);
  }
  if (served.activated != reference.activated) {
    return field("activated", served.activated, reference.activated);
  }
  if (served.degraded != reference.degraded) {
    return field("degraded", served.degraded, reference.degraded);
  }
  return {};
}

std::vector<std::optional<Verdict>> reference_verdicts(
    pgmr::polygraph::PolygraphSystem& system,
    const std::vector<pgmr::Tensor>& inputs,
    const std::vector<RequestRecord>& records) {
  std::vector<std::optional<Verdict>> reference(inputs.size());
  for (const RequestRecord& rec : records) {
    std::optional<Verdict>& ref = reference.at(rec.input);
    if (!ref) ref = system.predict(inputs[rec.input]);
  }
  return reference;
}

VerdictCheck check_verdicts(
    const std::vector<RequestRecord>& records,
    const std::vector<std::optional<Verdict>>& reference) {
  VerdictCheck check;
  for (const RequestRecord& rec : records) {
    if (!rec.ok) {
      if (check.first_problem.empty()) {
        check.first_problem = "input " + std::to_string(rec.input) +
                              " got no verdict: " + rec.error;
      }
      ++check.missing;
      continue;
    }
    const std::optional<Verdict>& ref =
        rec.input < reference.size() ? reference[rec.input] : std::nullopt;
    ++check.checked;
    const std::string diff =
        ref ? verdict_diff(rec.verdict, *ref) : "no reference verdict";
    if (diff.empty()) continue;
    if (check.first_problem.empty()) {
      check.first_problem =
          "input " + std::to_string(rec.input) + " mismatch: " + diff;
    }
    ++check.mismatches;
  }
  return check;
}

}  // namespace perfbench
