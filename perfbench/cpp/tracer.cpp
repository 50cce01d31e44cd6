#include "tracer.h"

#include <algorithm>
#include <utility>

#include "zoo/zoo.h"

namespace perfbench {

using pgmr::Shape;
using pgmr::Tensor;

std::int64_t MemberSpan::forward_end() const {
  std::int64_t end = prep_end;
  for (std::int64_t t : layer_end) end = std::max(end, t);
  return end;
}

Tracer::Tracer(std::size_t shards, std::size_t members)
    : shards_(shards), members_(members), info_(members),
      logs_(shards * members) {
  for (auto& log : logs_) log.reserve(4096);
}

void Tracer::on_prep(std::size_t shard, std::size_t slot, std::int64_t start,
                     std::int64_t end, int batch) {
  MemberSpan& span = logs_[shard * members_ + slot].emplace_back();
  span.prep_start = start;
  span.prep_end = end;
  span.batch = batch;
}

void Tracer::on_layer(std::size_t shard, std::size_t slot, int layer,
                      std::int64_t t) {
  auto& log = logs_[shard * members_ + slot];
  if (!log.empty() && layer >= 0 && layer < kMaxLayers) {
    log.back().layer_end[layer] = t;
  }
}

void Tracer::clear() {
  for (auto& log : logs_) log.clear();
}

Tensor TracedPreprocessor::apply(const Tensor& images) const {
  const std::int64_t start = now_ns();
  Tensor out = inner_->apply(images);
  tracer_.on_prep(shard_, slot_, start, now_ns(),
                  static_cast<int>(images.shape()[0]));
  return out;
}

pgmr::polygraph::PolygraphSystem make_traced_system(
    const pgmr::polygraph::SystemConfig& config, Tracer& tracer,
    std::size_t shard) {
  const pgmr::zoo::Benchmark& bm = pgmr::zoo::find_benchmark(config.benchmark);
  const Shape sample{1, bm.input.channels, bm.input.size, bm.input.size};
  pgmr::mr::Ensemble ensemble;
  for (std::size_t m = 0; m < config.members.size(); ++m) {
    const std::string& spec = config.members[m];
    pgmr::mr::Member member(
        std::make_unique<TracedPreprocessor>(
            pgmr::prep::make_preprocessor(spec), tracer, shard, m),
        pgmr::zoo::trained_network(bm, spec), config.bits);
    member.set_archive_source(pgmr::zoo::archive_path(bm, spec));
    member.net().set_forward_tap([&tracer, shard, m](Tensor&, int layer) {
      tracer.on_layer(shard, m, layer, now_ns());
    });
    if (shard == 0) {
      tracer.describe(m, {member.prep_name(), member.net().name(),
                          member.net().network().cost(sample).macs});
    }
    ensemble.add(std::move(member));
  }
  pgmr::polygraph::PolygraphSystem system(std::move(ensemble));
  system.set_thresholds(config.thresholds);
  if (config.staged) {
    const pgmr::data::DatasetSplits splits = pgmr::zoo::benchmark_splits(bm);
    system.enable_staged(splits.val.images, splits.val.labels);
  }
  return system;
}

namespace {

/// One runtime batch, reassembled from its members' spans.
struct Batch {
  std::int64_t start = 0;    ///< first preprocess start
  std::int64_t fwd_end = 0;  ///< last forward end
  std::int64_t prep_ns = 0;  ///< summed over members
  std::int64_t fwd_ns = 0;   ///< summed over members
  int n = 0;                 ///< requests in the batch
};

}  // namespace

StageReport analyze(const Tracer& tracer, const LoadResult& load,
                    const std::vector<std::size_t>& shard_of) {
  StageReport r;
  r.attributed = true;
  r.model = tracer.info(0).model;
  const std::int64_t w0 = load.window_start_ns;
  const std::int64_t w1 = load.window_end_ns;
  auto in_window = [&](std::int64_t t) { return t >= w0 && t < w1; };

  std::map<std::string, std::pair<std::int64_t, std::int64_t>> prep;  // ns, samples
  std::map<int, std::int64_t> layer_ns;
  std::int64_t fwd_ns = 0;
  std::int64_t busy_ns = 0;
  std::int64_t served = 0;    // requests in window batches
  std::int64_t forwards = 0;  // member-sample forwards in window batches
  double macs = 0.0;

  for (std::size_t s = 0; s < tracer.shards(); ++s) {
    std::vector<std::pair<const MemberSpan*, std::size_t>> spans;
    for (std::size_t m = 0; m < tracer.members(); ++m) {
      for (const MemberSpan& span : tracer.spans(s, m)) spans.emplace_back(&span, m);
    }
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.first->prep_start < b.first->prep_start;
    });

    // A batch runs each member once; a member seen again opens the next.
    std::vector<Batch> batches;
    std::vector<bool> seen(tracer.members(), true);
    bool window_batch = false;
    for (const auto& [span, slot] : spans) {
      if (seen[slot]) {
        batches.emplace_back();
        batches.back().start = span->prep_start;
        std::fill(seen.begin(), seen.end(), false);
        window_batch = in_window(span->prep_start);
      }
      seen[slot] = true;
      Batch& b = batches.back();
      const std::int64_t end = span->forward_end();
      b.fwd_end = std::max(b.fwd_end, end);
      b.prep_ns += span->prep_end - span->prep_start;
      b.fwd_ns += end - span->prep_end;
      b.n = std::max(b.n, span->batch);
      if (!window_batch) continue;
      auto& [p_ns, p_samples] = prep[tracer.info(slot).prep];
      p_ns += span->prep_end - span->prep_start;
      p_samples += span->batch;
      std::int64_t prev = span->prep_end;
      for (int k = 0; k < kMaxLayers; ++k) {
        if (span->layer_end[k] < 0) continue;
        layer_ns[k] += span->layer_end[k] - prev;
        prev = span->layer_end[k];
      }
      fwd_ns += end - span->prep_end;
      forwards += span->batch;
      macs += static_cast<double>(tracer.info(slot).macs) * span->batch;
    }

    for (const Batch& b : batches) {
      if (!in_window(b.start)) continue;
      ++r.batches;
      served += b.n;
      busy_ns += b.fwd_end - b.start;
      r.batch_prep_us.push_back(b.prep_ns / 1e3);
      r.batch_fwd_us.push_back(b.fwd_ns / 1e3);
    }

    // Batches are serial per shard and take queued requests in order.
    std::vector<const RequestRecord*> reqs;
    for (std::size_t i = 0; i < load.records.size(); ++i) {
      if (load.records[i].ok && shard_of[i] == s) reqs.push_back(&load.records[i]);
    }
    std::sort(reqs.begin(), reqs.end(), [](const auto* a, const auto* b) {
      return a->submit_ns < b->submit_ns;
    });
    std::size_t total = 0;
    for (const Batch& b : batches) total += static_cast<std::size_t>(b.n);
    if (total != reqs.size()) {
      r.attributed = false;
      r.problem = "shard " + std::to_string(s) + ": batches hold " +
                  std::to_string(total) + " samples but " +
                  std::to_string(reqs.size()) + " requests were served";
      continue;
    }
    std::size_t next = 0;
    for (const Batch& b : batches) {
      for (int i = 0; i < b.n; ++i) {
        const RequestRecord& rec = *reqs[next++];
        if (rec.phase != Phase::window) continue;
        ++r.requests;
        r.wait_us.push_back((b.start - rec.submit_ns) / 1e3);
        r.tail_us.push_back((rec.done_ns - b.fwd_end) / 1e3);
      }
    }
  }

  if (served > 0) {
    const double n = static_cast<double>(served);
    r.batch_size_mean = n / static_cast<double>(r.batches);
    for (const auto& [name, v] : prep) {
      r.prep_us_per_sample[name] =
          v.second > 0 ? v.first / 1e3 / static_cast<double>(v.second) : 0.0;
    }
    r.forward_us_per_sample = fwd_ns / 1e3 / n;
    for (const auto& [k, ns] : layer_ns) r.layer_us_per_sample[k] = ns / 1e3 / n;
    r.gmacs = fwd_ns > 0 ? macs / static_cast<double>(fwd_ns) : 0.0;
    r.forwards_per_request = static_cast<double>(forwards) / n;
  }
  r.busy_frac = static_cast<double>(busy_ns) /
                (static_cast<double>(w1 - w0) * static_cast<double>(tracer.shards()));
  return r;
}

}  // namespace perfbench
