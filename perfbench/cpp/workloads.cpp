#include "workloads.h"

#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "data/dataset.h"
#include "fleet/router.h"
#include "load.h"
#include "proc/wire.h"
#include "runtime/serving_runtime.h"
#include "stats.h"
#include "tracer.h"
#include "verdicts.h"
#include "workload/corpora.h"
#include "workload/generator.h"
#include "zoo/zoo.h"

namespace perfbench {
namespace {

namespace fleet = pgmr::fleet;
namespace polygraph = pgmr::polygraph;
namespace runtime = pgmr::runtime;
namespace zoo = pgmr::zoo;
using pgmr::Shape;
using pgmr::Tensor;
using polygraph::Verdict;

constexpr double kWarmupS = 1.0;  // before each traced-run window
/// An untraced run splits its timed window into kSegments equal parts, each
/// served by a freshly set-up system after its own warmup. The host's
/// speed drifts over tens of seconds and a new system's threads land on
/// other cores, so a run averages over several of those states instead of
/// reporting one. setup_s is the median of the kSegments set-ups.
constexpr std::size_t kSegments = 4;
constexpr double kSegmentWarmupS = 0.5;
/// The open loop's inputs are fixed; the run seed draws the trace.
constexpr std::uint64_t kCorpusSeed = 1;
/// Open loop: the sender fell behind its schedule (a backlog, not the
/// workload) when its median lag or its worst lag exceeds these.
constexpr double kMaxLagP50Us = 1000.0;
constexpr double kMaxLagUs = 100000.0;

const std::vector<std::string> kLenetMembers = {"ORG", "FlipX", "ConNorm",
                                                "Gamma(2.00)"};
const std::vector<std::string> kResnetMembers = {"ORG", "AdHist", "FlipX",
                                                 "FlipY"};
/// Preprocessors with a per-layer metric, keyed by metric name.
const std::vector<std::pair<std::string, std::string>> kPrepMetrics = {
    {"ConNorm", "ConNorm"}, {"Gamma", "Gamma(2.00)"}, {"AdHist", "AdHist"},
    {"FlipX", "FlipX"},     {"FlipY", "FlipY"}};

/// Top-level layers with a per-layer metric, per model. resnet20 serves
/// with full protection, where layer 1 (BatchNorm) is folded into layer 0
/// and taps with it.
struct ModelLayers {
  std::string model;
  int layers;
  std::vector<int> folded;
};
const std::vector<ModelLayers> kModelLayers = {{"lenet5", 10, {}},
                                               {"resnet20", 14, {1}}};

polygraph::SystemConfig system_config(const char* benchmark,
                                      const std::vector<std::string>& members,
                                      bool staged) {
  polygraph::SystemConfig c;
  c.benchmark = benchmark;
  c.members = members;
  c.thresholds = {0.5F, 3};  // Thr_Conf 0.5, Thr_Freq 3 of 4
  c.bits = 32;
  c.staged = staged;
  return c;
}

pgmr::nn::Protection protection_of(const Workload& w) {
  return w.full_protection ? pgmr::nn::Protection::full
                           : runtime::RuntimeOptions{}.protection;
}

/// Fails fast when a member's archive is not in the cache: on a miss
/// zoo::trained_network would silently train, and minutes of training
/// would be timed as set-up.
void require_archives(const polygraph::SystemConfig& config) {
  const zoo::Benchmark& bm = zoo::find_benchmark(config.benchmark);
  for (const std::string& spec : config.members) {
    const std::string path = zoo::archive_path(bm, spec);
    if (!std::filesystem::exists(path)) {
      throw std::runtime_error("member archive missing: " + path +
                               " (prewarm the cache first)");
    }
  }
}

// ---- inputs ---------------------------------------------------------------

struct Inputs {
  std::vector<Tensor> images;          ///< [1, C, H, W] each
  std::vector<std::int64_t> truth;     ///< -1: no true class (noise)
  std::vector<std::uint32_t> order;    ///< closed loop send order
  std::vector<Arrival> trace;          ///< open loop sends, the whole day
  std::uint32_t in_dist = 0;           ///< inputs [0, in_dist) are in-distribution
};

void append(Inputs& in, const pgmr::data::Dataset& ds, bool has_truth) {
  for (std::int64_t i = 0; i < ds.size(); ++i) {
    in.images.push_back(ds.images.slice_sample(i));
    in.truth.push_back(has_truth ? ds.labels[static_cast<std::size_t>(i)] : -1);
  }
}

/// Closed loop: the test split, sent in a seeded order. Open loop: the
/// four workload corpora (input = class * corpus_size + sample) sent on
/// the seeded day trace, after a warmup at the mean rate.
Inputs make_inputs(const Workload& w, const RunOptions& o) {
  const zoo::Benchmark& bm = zoo::find_benchmark(w.config.benchmark);
  Inputs in;
  if (!w.open_loop) {
    const pgmr::data::DatasetSplits splits = zoo::benchmark_splits(bm);
    append(in, splits.test, true);
    pgmr::Rng rng(o.seed);
    for (std::int64_t i : pgmr::data::shuffled_indices(splits.test.size(), rng)) {
      in.order.push_back(static_cast<std::uint32_t>(i));
    }
    return in;
  }
  pgmr::workload::WorkloadSpec spec;
  spec.seed = o.seed;
  spec.requests = std::llround(w.rate_rps * o.seconds);
  spec.day_seconds = o.seconds;
  const pgmr::workload::Trace trace = pgmr::workload::generate_trace(spec);
  pgmr::nn::Network victim = zoo::trained_network(bm, "ORG");
  const pgmr::workload::Corpora corpora =
      pgmr::workload::build_corpora(bm, spec.corpus_size, kCorpusSeed, victim);
  append(in, corpora.in_dist, true);      // InputClass::in_dist
  append(in, corpora.drift, true);        // InputClass::drift
  append(in, corpora.ood, false);         // InputClass::ood
  append(in, corpora.adversarial, true);  // InputClass::adversarial
  const auto corpus = static_cast<std::uint32_t>(spec.corpus_size);
  in.in_dist = corpus;
  for (const pgmr::workload::TraceEvent& e : trace.events) {
    in.trace.push_back({e.at_seconds, e.key,
                        static_cast<std::uint32_t>(e.cls) * corpus +
                            static_cast<std::uint32_t>(e.sample),
                        Phase::window});
  }
  return in;
}

/// The first `n` inputs stacked into one [n, C, H, W] batch.
Tensor stack(const std::vector<Tensor>& images, std::int64_t n) {
  const Shape& s = images.front().shape();
  Tensor batch(Shape{n, s[1], s[2], s[3]});
  const std::int64_t stride = s.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    std::copy_n(images[static_cast<std::size_t>(i)].data(), stride,
                batch.data() + i * stride);
  }
  return batch;
}

// ---- the system under test ---------------------------------------------------

using Factory = fleet::FleetRouter::SystemFactory;

/// One ServingRuntime, or a FleetRouter over w.shards replicas.
class Server {
 public:
  Server(const Workload& w, const Factory& factory) {
    runtime::RuntimeOptions opts;
    opts.protection = protection_of(w);
    if (w.shards == 0) {
      runtime_ = std::make_unique<runtime::ServingRuntime>(factory(0), opts);
      return;
    }
    fleet::FleetOptions f;
    f.shards = w.shards;
    f.runtime = opts;
    f.isolation = w.isolation;
    fleet_ = std::make_unique<fleet::FleetRouter>(factory, f);
  }

  std::future<Verdict> submit(const Tensor& image, std::uint64_t key) {
    return fleet_ ? fleet_->submit(image, key) : runtime_->submit(image);
  }
  std::size_t shard_of(std::uint64_t key) const {
    return fleet_ ? fleet_->shard_for(key) : 0;
  }
  fleet::FleetRouter* fleet() { return fleet_.get(); }
  runtime::MetricsSnapshot shard_snapshot() const {
    return fleet_ ? fleet_->snapshot().shards.front()
                  : runtime_->metrics_snapshot();
  }

 private:
  std::unique_ptr<runtime::ServingRuntime> runtime_;
  std::unique_ptr<fleet::FleetRouter> fleet_;
};

Factory plain_factory(const Workload& w) {
  return [config = w.config](std::size_t) {
    return polygraph::make_system(config);
  };
}

/// Builds the server and waits for its first verdict; `seconds` gets the
/// elapsed time (system construction, RADE profiling, worker spawn).
std::unique_ptr<Server> start_server(const Workload& w, const Factory& factory,
                                     const Inputs& in, double* seconds) {
  const std::int64_t t0 = now_ns();
  auto server = std::make_unique<Server>(w, factory);
  server->submit(in.images.front(), 0).get();
  if (seconds != nullptr) *seconds = (now_ns() - t0) / 1e9;
  return server;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Which part of the timed window a load covers: part `index` of `parts`
/// equal parts, after `warmup_s` of warmup.
struct Segment {
  std::size_t index = 0;
  std::size_t parts = 1;
  double warmup_s = kWarmupS;
};

/// Runs the segment's load on `server`: a closed loop for seconds/parts
/// (its send order rotated per segment), or the segment's slice of the day
/// trace after warmup sends at the mean rate. When `rss_mb` is set it
/// receives the process's peak RSS as the warmup ends: set-up and a warmed
/// system, before the timed window's request records pile up.
LoadResult drive(const Workload& w, Server& server, const Inputs& in,
                 double seconds, const Segment& seg, double* rss_mb = nullptr) {
  std::jthread sampler;
  if (rss_mb != nullptr) {
    sampler = std::jthread([rss_mb, warmup = seg.warmup_s] {
      std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
      *rss_mb = peak_rss_mb();
    });
  }
  const SubmitFn submit = [&](std::uint32_t input, std::uint64_t key) {
    return server.submit(in.images[input], key);
  };
  const double part = seconds / static_cast<double>(seg.parts);
  if (w.open_loop) {
    std::vector<Arrival> schedule;
    const std::int64_t warm = std::llround(w.rate_rps * seg.warmup_s);
    for (std::int64_t i = 0; i < warm; ++i) {
      schedule.push_back({static_cast<double>(i) / w.rate_rps,
                          (1ULL << 40) + static_cast<std::uint64_t>(i),
                          static_cast<std::uint32_t>(i) % in.in_dist, Phase::warmup});
    }
    const double from = part * static_cast<double>(seg.index);
    for (const Arrival& a : in.trace) {
      if (a.at_s < from || (a.at_s >= from + part && seg.index + 1 < seg.parts)) {
        continue;
      }
      schedule.push_back({seg.warmup_s + a.at_s - from, a.key, a.input, Phase::window});
    }
    return run_open_loop(schedule, part, submit);
  }
  ClosedLoop spec;
  spec.threads = w.threads;
  spec.in_flight = w.in_flight;
  spec.warmup_s = seg.warmup_s;
  spec.seconds = part;
  spec.order = in.order;
  std::rotate(spec.order.begin(),
              spec.order.begin() + static_cast<std::ptrdiff_t>(
                  seg.index * spec.order.size() / seg.parts),
              spec.order.end());
  return run_closed_loop(spec, submit);
}

// ---- end-to-end figures -------------------------------------------------------

struct Window {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double throughput_rps = 0.0;
  Summary latency;
  double slo_attainment = 0.0;
  double fp_rate = 0.0;
  double tp_rate = 0.0;
  double activated_mean = 0.0;
  Summary submit_us;
  Summary lag_us;
  double lag_max_us = 0.0;
};

/// Window figures over one or more segments. Latency counts from each
/// request's due time; throughput is completions per second between each
/// segment's first and last completion in its window. Quality rates count
/// each distinct input once on a closed loop (it cycles through the test
/// split, so that is the paper's test-set rate) and every request on an
/// open loop (the trace's mix is the workload).
Window window_figures(const std::vector<LoadResult>& segments, const Inputs& in,
                      const Workload& w) {
  const bool per_request_quality = w.open_loop;
  Window f;
  std::vector<double> latency, submit, lag;
  std::size_t within = 0, tp = 0, fp = 0, judged = 0, intervals = 0;
  double busy_s = 0.0;
  std::vector<bool> seen(in.images.size(), false);
  double activated = 0.0;
  for (const LoadResult& load : segments) {
    std::int64_t first_done = -1, last_done = -1;
    std::size_t completed = 0;
    for (const RequestRecord& rec : load.records) {
      if (rec.ok && rec.done_ns >= load.window_start_ns &&
          rec.done_ns < load.window_end_ns) {
        ++completed;
        first_done = first_done < 0 ? rec.done_ns : std::min(first_done, rec.done_ns);
        last_done = std::max(last_done, rec.done_ns);
      }
      if (rec.phase != Phase::window) continue;
      ++f.attempted;
      submit.push_back((rec.submit_ret_ns - rec.submit_ns) / 1e3);
      lag.push_back(rec.lag_ns / 1e3);
      f.lag_max_us = std::max(f.lag_max_us, lag.back());
      if (!rec.ok) {
        ++f.failed;
        continue;
      }
      const double us = rec.latency_us();
      latency.push_back(us);
      if (us <= w.slo_ms * 1e3) ++within;
      activated += rec.verdict.activated;
      if (!per_request_quality) {
        if (seen[rec.input]) continue;
        seen[rec.input] = true;
      }
      ++judged;
      if (!rec.verdict.reliable) continue;
      const std::int64_t truth = in.truth[rec.input];
      (truth >= 0 && rec.verdict.label == truth ? tp : fp) += 1;
    }
    if (completed > 1) {
      intervals += completed - 1;
      busy_s += (last_done - first_done) / 1e9;
    }
  }
  const double served = static_cast<double>(latency.size());
  f.throughput_rps = busy_s > 0.0 ? static_cast<double>(intervals) / busy_s : 0.0;
  f.latency = summarize(std::move(latency));
  f.slo_attainment = f.attempted ? static_cast<double>(within) / f.attempted : 0.0;
  f.fp_rate = judged > 0 ? static_cast<double>(fp) / judged : 0.0;
  f.tp_rate = judged > 0 ? static_cast<double>(tp) / judged : 0.0;
  f.activated_mean = served > 0 ? activated / served : 0.0;
  f.submit_us = summarize(std::move(submit));
  f.lag_us = summarize(std::move(lag));
  return f;
}

Window window_figures(const LoadResult& load, const Inputs& in, const Workload& w) {
  return window_figures(std::vector<LoadResult>{load}, in, w);
}

void print_summary(const char* what, const Summary& s, const char* unit) {
  std::printf("  %-22s n=%zu p50=%.1f %s p99=%.1f %s", what, s.n, s.p50, unit,
              s.p99, unit);
  if (s.max_supported_pct >= 0) {
    std::printf(" (highest supported percentile %.2f%s)\n", s.max_supported_pct,
                s.p99_supported() ? "" : ", p99 UNSUPPORTED");
  } else {
    std::printf(" (fewer than 10 samples: no percentile supported)\n");
  }
}

void print_window(const char* label, const Window& f) {
  std::printf("%s: %zu attempted, %zu failed, %.1f verdicts/s\n", label,
              f.attempted, f.failed, f.throughput_rps);
  print_summary("latency", f.latency, "us");
  std::printf("  slo %.4f  tp %.4f  fp %.4f  activated %.3f\n",
              f.slo_attainment, f.tp_rate, f.fp_rate, f.activated_mean);
}

/// Verdict check of `loads` against a never-faulted serial reference built
/// outside every timed section.
bool verdicts_pass(const Workload& w, const Inputs& in,
                   const std::vector<const LoadResult*>& loads) {
  polygraph::PolygraphSystem reference = polygraph::make_system(w.config);
  std::vector<RequestRecord> all;
  for (const LoadResult* load : loads) {
    all.insert(all.end(), load->records.begin(), load->records.end());
  }
  const auto ref = reference_verdicts(reference, in.images, all);
  const VerdictCheck check = check_verdicts(all, ref);
  std::size_t distinct = 0;
  for (const auto& r : ref) distinct += r.has_value();
  std::printf("verdict check: %zu verdicts against %zu distinct reference "
              "inputs, %zu mismatches, %zu missing%s%s\n",
              check.checked, distinct, check.mismatches, check.missing,
              check.first_problem.empty() ? "" : " — first: ",
              check.first_problem.c_str());
  return check.passed();
}

/// The open-loop sender must have kept to its schedule.
bool schedule_kept(const Workload& w, const Window& f) {
  if (!w.open_loop) return true;
  std::printf("  sender lag p50 %.1f us p99 %.1f us max %.1f us\n", f.lag_us.p50,
              f.lag_us.p99, f.lag_max_us);
  if (f.lag_us.p50 > kMaxLagP50Us || f.lag_max_us > kMaxLagUs) {
    std::printf("INVALID: the sender could not keep to the schedule; the "
                "figures would describe a backlog, not the workload\n");
    return false;
  }
  return true;
}

// ---- probes (traced runs) -----------------------------------------------------

template <typename Fn>
double time_us(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return (now_ns() - t0) / 1e3;
}

/// A preprocessor the workload does not serve, timed standalone on a batch
/// of the workload's inputs (median of 200 calls).
double prep_probe_us_per_sample(const std::string& spec, const Tensor& batch) {
  const auto p = pgmr::prep::make_preprocessor(spec);
  std::vector<double> t;
  for (int rep = 0; rep < 200; ++rep) t.push_back(time_us([&] { p->apply(batch); }));
  return median(std::move(t)) / static_cast<double>(batch.shape()[0]);
}

const Workload& serving_workload_of(const std::string& model) {
  for (const Workload& w : workloads()) {
    if (w.config.benchmark == model) return w;
  }
  throw std::logic_error("no workload serves " + model);
}

/// Per-layer self time of a model the workload does not serve: its
/// serving ensemble's forward passes (with ABFT verification on, as
/// served) on a seeded batch of 8, per sample, summed over members.
std::map<int, double> layer_probe(const std::string& model) {
  const Workload& w = serving_workload_of(model);
  require_archives(w.config);
  const zoo::Benchmark& bm = zoo::find_benchmark(model);
  pgmr::mr::Ensemble ensemble = zoo::make_ensemble(bm, w.config.members, w.config.bits);
  Tensor batch(Shape{8, bm.input.channels, bm.input.size, bm.input.size});
  pgmr::Rng rng(7);
  for (std::int64_t i = 0; i < batch.numel(); ++i) batch[i] = rng.uniform(0.0F, 1.0F);
  std::int64_t stamps[kMaxLayers];
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    ensemble.member(m).set_protection(protection_of(w));
    ensemble.member(m).net().set_forward_tap(
        [&stamps](Tensor&, int layer) { stamps[layer] = now_ns(); });
  }
  std::map<int, std::vector<double>> per_rep;
  for (int rep = 0; rep < 30; ++rep) {
    std::map<int, double> sum;
    for (std::size_t m = 0; m < ensemble.size(); ++m) {
      std::fill(std::begin(stamps), std::end(stamps), -1);
      pgmr::quant::AbftCheck check;
      std::int64_t prev = now_ns();
      ensemble.member(m).net().forward(batch, &check);
      for (int k = 0; k < kMaxLayers; ++k) {
        if (stamps[k] < 0) continue;
        sum[k] += (stamps[k] - prev) / 1e3;
        prev = stamps[k];
      }
    }
    for (const auto& [k, us] : sum) per_rep[k].push_back(us / 8.0);
  }
  std::map<int, double> out;
  for (auto& [k, v] : per_rep) out[k] = median(std::move(v));
  return out;
}

/// The same batch through every member's QuantizedNetwork::forward with and
/// without an AbftCheck, at the workload's protection level.
double abft_overhead_frac(const Workload& w, const Tensor& batch) {
  const zoo::Benchmark& bm = zoo::find_benchmark(w.config.benchmark);
  pgmr::mr::Ensemble ensemble = zoo::make_ensemble(bm, w.config.members, w.config.bits);
  double with = 0.0, without = 0.0;
  for (std::size_t m = 0; m < ensemble.size(); ++m) {
    auto& net = ensemble.member(m).net();
    net.set_protection(protection_of(w));
    std::vector<double> t_with, t_without;
    for (int rep = 0; rep < 40; ++rep) {
      pgmr::quant::AbftCheck check;
      t_with.push_back(time_us([&] { net.forward(batch, &check); }));
      t_without.push_back(time_us([&] { net.forward(batch, nullptr); }));
    }
    with += median(std::move(t_with));
    without += median(std::move(t_without));
  }
  return with / without - 1.0;
}

/// Median latency at one request in flight through a 1-shard process fleet
/// minus a 1-shard thread fleet, same (unstaged: the process spec does not
/// carry RADE state) system. The two alternate in short rounds so drift in
/// the host's speed falls on both alike.
double proc_hop_us(const Workload& w, const Inputs& in) {
  constexpr int kRounds = 8;
  constexpr double kRoundS = 0.25;
  Workload one = w;
  one.shards = 1;
  one.open_loop = false;
  one.config.staged = false;
  ClosedLoop spec;
  spec.warmup_s = 0.0;
  spec.seconds = kRoundS;
  for (std::uint32_t i = 0; i < std::min<std::size_t>(in.images.size(), 256); ++i) {
    spec.order.push_back(i);
  }
  std::vector<std::unique_ptr<Server>> servers;
  for (fleet::Isolation mode : {fleet::Isolation::thread, fleet::Isolation::process}) {
    one.isolation = mode;
    servers.push_back(start_server(one, plain_factory(one), in, nullptr));
  }
  std::vector<double> latency[2];
  for (int round = -1; round < kRounds; ++round) {  // round -1 warms up
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const LoadResult load = run_closed_loop(
          spec, [&](std::uint32_t input, std::uint64_t key) {
            return servers[i]->submit(in.images[input], key);
          });
      for (const RequestRecord& rec : load.records) {
        if (round >= 0 && rec.ok) latency[i].push_back(rec.latency_us());
      }
    }
  }
  const double thread = median(latency[0]);
  const double process = median(latency[1]);
  std::printf("  proc hop: 1-shard thread p50 %.1f us (n=%zu), process p50 %.1f us "
              "(n=%zu)\n",
              thread, latency[0].size(), process, latency[1].size());
  return process - thread;
}

/// Bytes one request moves over the shard wire: submit, verdict and the
/// stats frame the worker sends after every verdict, framed by
/// proc::write_frame and counted on the receiving end.
double wire_bytes_per_request(const Tensor& image,
                              const runtime::MetricsSnapshot& stats) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  pgmr::proc::SubmitMsg submit;
  submit.id = 1;
  submit.image = image;
  pgmr::proc::VerdictMsg verdict;
  verdict.id = 1;
  pgmr::proc::write_frame(fds[0], pgmr::proc::encode_submit(submit));
  pgmr::proc::write_frame(fds[0], pgmr::proc::encode_verdict(verdict));
  pgmr::proc::write_frame(fds[0], pgmr::proc::encode_stats(stats));
  int pending = 0;
  const int rc = ioctl(fds[1], FIONREAD, &pending);
  close(fds[0]);
  close(fds[1]);
  if (rc != 0) throw std::runtime_error("FIONREAD failed");
  return pending;
}

std::string layer_metric(const std::string& model, int k) {
  return "nn." + model + ".L" + std::to_string(k) + ".us_per_sample";
}

// ---- the two kinds of run ---------------------------------------------------

RunResult run_untraced(const Workload& w, const RunOptions& o, const Inputs& in) {
  std::vector<double> setups;
  std::vector<LoadResult> segments;
  double rss_mb = 0.0;
  for (std::size_t i = 0; i < kSegments; ++i) {
    double s = 0.0;
    auto server = start_server(w, plain_factory(w), in, &s);
    setups.push_back(s);
    segments.push_back(drive(w, *server, in, o.seconds,
                             {i, kSegments, kSegmentWarmupS},
                             i == 0 ? &rss_mb : nullptr));
  }
  std::printf("setup_s:");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  const Window f = window_figures(segments, in, w);
  print_window("window", f);
  print_summary("submit", f.submit_us, "us");

  RunResult r;
  const bool kept = schedule_kept(w, f);
  std::vector<const LoadResult*> loads;
  for (const LoadResult& seg : segments) loads.push_back(&seg);
  r.correct = verdicts_pass(w, in, loads) && kept && f.failed == 0;
  r.attempted = f.attempted;
  r.failed = f.failed;
  r.metrics["throughput_rps"] = {f.throughput_rps, "1/s"};
  r.metrics["latency_p50_us"] = {f.latency.p50, "us"};
  r.metrics["slo_attainment"] = {f.slo_attainment, "frac"};
  r.metrics["fp_rate"] = {f.fp_rate, "frac"};
  r.metrics["tp_rate"] = {f.tp_rate, "frac"};
  r.metrics["setup_s"] = {median(setups), "s"};
  r.metrics["peak_rss_mb"] = {rss_mb, "MB"};
  return r;
}

RunResult run_traced(const Workload& w, const RunOptions& o, const Inputs& in) {
  RunResult r;
  r.correct = true;
  auto put = [&](const std::string& name, double value) {
    for (const auto& [n, unit] : per_layer_metrics()) {
      if (n == name) {
        r.metrics[name] = {value, unit};
        return;
      }
    }
    throw std::logic_error("unlisted per-layer metric " + name);
  };

  // A: the workload as served, untraced — fleet, proc and harness rows.
  auto server = start_server(w, plain_factory(w), in, nullptr);
  const LoadResult a = drive(w, *server, in, o.seconds, {});
  const Window fa = window_figures(a, in, w);
  print_window("untraced window", fa);
  r.correct = schedule_kept(w, fa) && r.correct;
  put("fleet.submit_us.p50", fa.submit_us.p50);
  put("fleet.submit_us.p99", fa.submit_us.p99);
  put("gen.lag_us.p99", fa.lag_us.p99);
  double imbalance = 1.0, spill = 0.0, proc_batch = 0.0;
  if (fleet::FleetRouter* router = server->fleet()) {
    const fleet::FleetSnapshot snap = router->snapshot();
    double total = 0.0, most = 0.0;
    for (std::uint64_t n : snap.routed) {
      total += static_cast<double>(n);
      most = std::max(most, static_cast<double>(n));
    }
    imbalance = most / (total / static_cast<double>(snap.routed.size()));
    spill = static_cast<double>(snap.spills) / total;
    proc_batch = snap.merged.mean_batch_size();
  }
  put("fleet.imbalance", imbalance);
  put("fleet.spill_frac", spill);
  const runtime::MetricsSnapshot shard_stats = server->shard_snapshot();
  server.reset();

  // B: the traced mirror — the same load on thread-isolated replicas whose
  // members carry the tracing preprocessor and forward tap. C: its
  // untraced twin when A ran on processes (the overhead baseline).
  Workload mirror = w;
  mirror.isolation = fleet::Isolation::thread;
  const LoadResult* baseline = &a;
  LoadResult c;
  if (w.isolation == fleet::Isolation::process) {
    auto twin = start_server(mirror, plain_factory(mirror), in, nullptr);
    c = drive(mirror, *twin, in, o.seconds, {});
    print_window("untraced thread mirror", window_figures(c, in, w));
    baseline = &c;
  }
  Tracer tracer(std::max<std::size_t>(mirror.shards, 1), w.config.members.size());
  auto traced = start_server(
      mirror,
      [&](std::size_t shard) { return make_traced_system(w.config, tracer, shard); },
      in, nullptr);
  tracer.clear();
  const LoadResult b = drive(mirror, *traced, in, o.seconds, {});
  std::vector<std::size_t> shard_of;
  for (const RequestRecord& rec : b.records) shard_of.push_back(traced->shard_of(rec.key));
  traced.reset();
  const Window fb = window_figures(b, in, w);
  print_window("traced window", fb);
  const StageReport st = analyze(tracer, b, shard_of);
  if (!st.attributed) {
    std::printf("INVALID: stage attribution failed: %s\n", st.problem.c_str());
    r.correct = false;
  }

  const Summary wait = summarize(st.wait_us);
  const Summary tail = summarize(st.tail_us);
  print_summary("runtime.wait", wait, "us");
  print_summary("runtime.tail", tail, "us");
  put("runtime.wait_us.p50", wait.p50);
  put("runtime.wait_us.p99", wait.p99);
  put("runtime.tail_us", tail.p50);
  put("runtime.busy_frac", st.busy_frac);
  put("runtime.batch_size_mean",
      w.isolation == fleet::Isolation::process ? proc_batch : st.batch_size_mean);

  const double prep_batch = median(st.batch_prep_us);
  const double fwd_batch = median(st.batch_fwd_us);
  const double stage_sum = wait.p50 + prep_batch + fwd_batch + tail.p50;
  std::printf("stage sum: wait p50 %.1f + preprocess %.1f + forward %.1f + "
              "tail p50 %.1f = %.1f us vs traced latency p50 %.1f us (%.3f)\n",
              wait.p50, prep_batch, fwd_batch, tail.p50, stage_sum,
              fb.latency.p50, stage_sum / fb.latency.p50);
  put("trace.stage_sum_frac", stage_sum / fb.latency.p50);
  const double untraced_p50 = window_figures(*baseline, in, w).latency.p50;
  put("trace.overhead_frac", fb.latency.p50 / untraced_p50 - 1.0);

  // prep: served members from the trace, the rest probed standalone.
  const Tensor batch = stack(in.images, 8);
  for (const auto& [metric, spec] : kPrepMetrics) {
    const auto it = st.prep_us_per_sample.find(spec);
    const bool served = it != st.prep_us_per_sample.end();
    const double us = served ? it->second : prep_probe_us_per_sample(spec, batch);
    std::printf("  prep %-8s %8.2f us/sample (%s)\n", metric.c_str(), us,
                served ? "served" : "probe");
    put("prep." + metric + ".us_per_sample", us);
  }

  // nn/quant: the served model from the trace, the other one probed.
  put("nn.forward_us_per_sample", st.forward_us_per_sample);
  put("nn.gmacs", st.gmacs);
  for (const ModelLayers& ml : kModelLayers) {
    const bool served = ml.model == st.model;
    const std::map<int, double> layers =
        served ? st.layer_us_per_sample : layer_probe(ml.model);
    for (int k = 0; k < ml.layers; ++k) {
      if (std::count(ml.folded.begin(), ml.folded.end(), k)) continue;
      const auto it = layers.find(k);
      put(layer_metric(ml.model, k), it == layers.end() ? 0.0 : it->second);
    }
  }
  put("quant.abft_overhead_frac", abft_overhead_frac(w, batch));

  // mr/polygraph
  put("polygraph.activated_mean", fa.activated_mean);
  put("polygraph.forwards_per_request", st.forwards_per_request);
  put("polygraph.useful_forward_frac",
      fa.activated_mean / st.forwards_per_request);

  // proc
  put("proc.hop_us", proc_hop_us(w, in));
  put("proc.bytes_per_request", wire_bytes_per_request(in.images.front(), shard_stats));

  std::vector<const LoadResult*> loads = {&a, &b};
  if (baseline != &a) loads.push_back(&c);
  r.correct = verdicts_pass(w, in, loads) && r.correct && fa.failed == 0 &&
              fb.failed == 0;
  r.attempted = fa.attempted + fb.attempted;
  r.failed = fa.failed + fb.failed;
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> t(4);
    t[0].name = "lenet5-c1";
    t[0].config = system_config("lenet5", kLenetMembers, false);
    t[0].slo_ms = 5.0;

    t[1].name = "lenet5-fleet4-c32";
    t[1].config = system_config("lenet5", kLenetMembers, false);
    t[1].shards = 4;
    t[1].threads = 4;
    t[1].in_flight = 8;
    t[1].slo_ms = 25.0;

    t[2].name = "resnet20-staged-c16";
    t[2].config = system_config("resnet20", kResnetMembers, true);
    t[2].full_protection = true;
    t[2].threads = 4;
    t[2].in_flight = 4;
    t[2].slo_ms = 150.0;

    t[3].name = "lenet5-day-proc4";
    t[3].config = system_config("lenet5", kLenetMembers, false);
    t[3].shards = 4;
    t[3].isolation = fleet::Isolation::process;
    t[3].open_loop = true;
    t[3].rate_rps = 2000.0;
    t[3].slo_ms = 10.0;
    return t;
  }();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> member_archives() {
  std::vector<std::pair<std::string, std::string>> archives;
  for (const Workload& w : workloads()) {
    for (const std::string& spec : w.config.members) {
      const std::pair<std::string, std::string> a{w.config.benchmark, spec};
      if (std::find(archives.begin(), archives.end(), a) == archives.end()) {
        archives.push_back(a);
      }
    }
  }
  return archives;
}

std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"runtime.wait_us.p50", "us"},
      {"runtime.wait_us.p99", "us"},
      {"runtime.batch_size_mean", "count"},
      {"runtime.busy_frac", "frac"},
      {"runtime.tail_us", "us"},
  };
  for (const auto& [metric, spec] : kPrepMetrics) {
    m.emplace_back("prep." + metric + ".us_per_sample", "us");
  }
  m.emplace_back("nn.forward_us_per_sample", "us");
  m.emplace_back("nn.gmacs", "GMAC/s");
  for (const ModelLayers& ml : kModelLayers) {
    for (int k = 0; k < ml.layers; ++k) {
      if (std::count(ml.folded.begin(), ml.folded.end(), k)) continue;
      m.emplace_back(layer_metric(ml.model, k), "us");
    }
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"quant.abft_overhead_frac", "frac"},
      {"polygraph.activated_mean", "count"},
      {"polygraph.forwards_per_request", "count"},
      {"polygraph.useful_forward_frac", "frac"},
      {"fleet.submit_us.p50", "us"},
      {"fleet.submit_us.p99", "us"},
      {"fleet.imbalance", "ratio"},
      {"fleet.spill_frac", "frac"},
      {"proc.hop_us", "us"},
      {"proc.bytes_per_request", "bytes"},
      {"gen.lag_us.p99", "us"},
      {"trace.overhead_frac", "frac"},
      {"trace.stage_sum_frac", "frac"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

RunResult run_workload(const Workload& w, const RunOptions& options) {
  require_archives(w.config);
  const Inputs in = make_inputs(w, options);
  std::printf("workload %s seed %llu seconds %.3f %s\n", w.name.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  return options.trace ? run_traced(w, options, in) : run_untraced(w, options, in);
}

}  // namespace perfbench
