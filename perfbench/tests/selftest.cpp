// Self-tests of the benchmark's own machinery: the quantile helper, the
// verdict check and the traced stage attribution.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "load.h"
#include "stats.h"
#include "tracer.h"
#include "verdicts.h"

namespace perfbench {
namespace {

using pgmr::polygraph::Verdict;

TEST(Quantiles, InterpolateBetweenOrderStatistics) {
  const std::vector<double> sorted = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 10);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 30);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 50);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.625), 35);
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Quantiles, HighestPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_LT(highest_supported_percentile(0), 0);
  EXPECT_LT(highest_supported_percentile(9), 0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(4, 2), 50.0);
}

TEST(Quantiles, SummaryFlagsAnUnsupportedP99) {
  std::vector<double> small(999), enough(1000);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = double(i);
  for (std::size_t i = 0; i < enough.size(); ++i) enough[i] = double(999 - i);
  const Summary s = summarize(small);
  EXPECT_EQ(s.n, 999u);
  EXPECT_FALSE(s.p99_supported());
  const Summary e = summarize(enough);
  EXPECT_TRUE(e.p99_supported());
  EXPECT_DOUBLE_EQ(e.p50, 499.5);
  EXPECT_NEAR(e.p99, 989.01, 1e-9);
}

RequestRecord served(std::uint32_t input, const Verdict& v) {
  RequestRecord rec;
  rec.input = input;
  rec.ok = true;
  rec.verdict = v;
  return rec;
}

TEST(VerdictCheck, RejectsOneAlteredVerdict) {
  std::vector<std::optional<Verdict>> reference(3);
  reference[0] = Verdict{1, true, 4, 4, false};
  reference[1] = Verdict{2, false, 2, 4, false};
  reference[2] = Verdict{7, true, 3, 3, false};
  std::vector<RequestRecord> records;
  for (std::uint32_t i = 0; i < 3; ++i) records.push_back(served(i, *reference[i]));
  records.push_back(served(1, *reference[1]));
  EXPECT_TRUE(check_verdicts(records, reference).passed());

  for (int field = 0; field < 5; ++field) {
    std::vector<RequestRecord> altered = records;
    Verdict& v = altered[3].verdict;
    switch (field) {
      case 0: v.label += 1; break;
      case 1: v.reliable = !v.reliable; break;
      case 2: v.votes += 1; break;
      case 3: v.activated -= 1; break;
      case 4: v.degraded = !v.degraded; break;
    }
    const VerdictCheck check = check_verdicts(altered, reference);
    EXPECT_FALSE(check.passed()) << "field " << field;
    EXPECT_EQ(check.mismatches, 1u);
    EXPECT_EQ(check.checked, 4u);
    EXPECT_NE(check.first_problem.find("input 1"), std::string::npos);
  }
}

TEST(VerdictCheck, CountsARequestWithoutVerdictAsMissing) {
  std::vector<std::optional<Verdict>> reference(1);
  reference[0] = Verdict{1, true, 4, 4, false};
  std::vector<RequestRecord> records = {served(0, *reference[0])};
  RequestRecord lost;
  lost.error = "shard unavailable";
  records.push_back(lost);
  const VerdictCheck check = check_verdicts(records, reference);
  EXPECT_FALSE(check.passed());
  EXPECT_EQ(check.missing, 1u);
  EXPECT_EQ(check.mismatches, 0u);
}

// One synthetic batch of one request through two members (times in us):
//   submit 0 | member 0: prep 100-150, layers end 200, 260
//            | member 1: prep 270-300, layers end 350, 420 | verdict 450
TEST(StageAttribution, SyntheticBatchSumsToItsLatency) {
  constexpr std::int64_t us = 1000;
  Tracer tracer(1, 2);
  tracer.describe(0, {"ORG", "toy", 1000});
  tracer.describe(1, {"FlipX", "toy", 1000});
  tracer.on_prep(0, 0, 100 * us, 150 * us, 1);
  tracer.on_layer(0, 0, 0, 200 * us);
  tracer.on_layer(0, 0, 1, 260 * us);
  tracer.on_prep(0, 1, 270 * us, 300 * us, 1);
  tracer.on_layer(0, 1, 0, 350 * us);
  tracer.on_layer(0, 1, 1, 420 * us);

  LoadResult load;
  load.window_start_ns = 0;
  load.window_end_ns = 1000 * us;
  RequestRecord rec;
  rec.due_ns = rec.submit_ns = 0;
  rec.done_ns = 450 * us;
  rec.ok = true;
  rec.phase = Phase::window;
  load.records.push_back(rec);

  const StageReport r = analyze(tracer, load, {0});
  ASSERT_TRUE(r.attributed) << r.problem;
  ASSERT_EQ(r.requests, 1u);
  ASSERT_EQ(r.batches, 1u);
  EXPECT_DOUBLE_EQ(r.wait_us[0], 100);
  EXPECT_DOUBLE_EQ(r.batch_prep_us[0], 80);   // 50 + 30
  EXPECT_DOUBLE_EQ(r.batch_fwd_us[0], 230);   // 110 + 120
  EXPECT_DOUBLE_EQ(r.tail_us[0], 30);
  // The stage sum misses only the 10 us gap between the two members.
  const double sum = r.wait_us[0] + r.batch_prep_us[0] + r.batch_fwd_us[0] +
                     r.tail_us[0];
  EXPECT_DOUBLE_EQ(sum, rec.latency_us() - 10);
  EXPECT_DOUBLE_EQ(r.layer_us_per_sample.at(0), 100);  // 50 + 50
  EXPECT_DOUBLE_EQ(r.layer_us_per_sample.at(1), 130);  // 60 + 70
  EXPECT_DOUBLE_EQ(r.prep_us_per_sample.at("ORG"), 50);
  EXPECT_DOUBLE_EQ(r.prep_us_per_sample.at("FlipX"), 30);
  EXPECT_DOUBLE_EQ(r.forward_us_per_sample, 230);
  EXPECT_DOUBLE_EQ(r.forwards_per_request, 2);
  EXPECT_DOUBLE_EQ(r.batch_size_mean, 1);
  EXPECT_DOUBLE_EQ(r.busy_frac, 0.32);  // 100..420 of a 1000 us window
  EXPECT_NEAR(r.gmacs, 2000.0 / (230 * us), 1e-12);
}

// Two batches on one shard take the shard's requests in submission order;
// a member seen again opens the next batch.
TEST(StageAttribution, BatchesTakeRequestsInSubmissionOrder) {
  constexpr std::int64_t us = 1000;
  Tracer tracer(1, 1);
  tracer.describe(0, {"ORG", "toy", 1});
  tracer.on_prep(0, 0, 100 * us, 110 * us, 2);
  tracer.on_layer(0, 0, 0, 200 * us);
  tracer.on_prep(0, 0, 300 * us, 310 * us, 1);
  tracer.on_layer(0, 0, 0, 400 * us);

  LoadResult load;
  load.window_end_ns = 1000 * us;
  for (std::int64_t submit : {50, 10, 250}) {  // records out of order
    RequestRecord rec;
    rec.due_ns = rec.submit_ns = submit * us;
    rec.done_ns = (submit == 250 ? 420 : 220) * us;
    rec.ok = true;
    rec.phase = Phase::window;
    load.records.push_back(rec);
  }
  const StageReport r = analyze(tracer, load, {0, 0, 0});
  ASSERT_TRUE(r.attributed) << r.problem;
  EXPECT_EQ(r.batches, 2u);
  EXPECT_DOUBLE_EQ(r.batch_size_mean, 1.5);
  // wait_us follows batch order: the two earliest submits, then the third.
  ASSERT_EQ(r.wait_us.size(), 3u);
  EXPECT_DOUBLE_EQ(r.wait_us[0], 90);
  EXPECT_DOUBLE_EQ(r.wait_us[1], 50);
  EXPECT_DOUBLE_EQ(r.wait_us[2], 50);

  // One request more than the batches hold cannot be attributed.
  load.records.push_back(load.records.back());
  EXPECT_FALSE(analyze(tracer, load, {0, 0, 0, 0}).attributed);
}

}  // namespace
}  // namespace perfbench
