// Tracing from outside the program, through its existing seams:
//   * TracedPreprocessor — a delegating prep::Preprocessor that stamps the
//     start and end of every apply() call and its batch size;
//   * QuantizedNetwork::set_forward_tap — stamps the end of every
//     top-level layer of the member's forward pass.
// Spans are kept in memory, one log per (shard, member slot), and are
// attributed to requests only after the run (analyze()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "load.h"
#include "polygraph/config.h"
#include "prep/preprocessor.h"

namespace perfbench {

inline constexpr int kMaxLayers = 16;

/// One member's share of one batch: its preprocess and its forward pass.
struct MemberSpan {
  std::int64_t prep_start = 0;
  std::int64_t prep_end = 0;
  int batch = 0;  ///< samples in the apply() call
  /// End stamp of each top-level layer; -1 where the layer did not tap
  /// (the second layer of a folded conv->BN pair taps with the first).
  std::int64_t layer_end[kMaxLayers];
  MemberSpan() {
    for (std::int64_t& t : layer_end) t = -1;
  }
  /// Last layer stamp (the end of the forward pass), prep_end if none.
  std::int64_t forward_end() const;
};

class Tracer {
 public:
  Tracer(std::size_t shards, std::size_t members);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t shards() const { return shards_; }
  std::size_t members() const { return members_; }

  /// Static facts about a member slot, recorded when it is built.
  struct SlotInfo {
    std::string prep;          ///< Preprocessor::name()
    std::string model;         ///< network name ("lenet5", "resnet20")
    std::int64_t macs = 0;     ///< cost-model MACs per sample
  };
  void describe(std::size_t slot, SlotInfo info) { info_[slot] = std::move(info); }
  const SlotInfo& info(std::size_t slot) const { return info_[slot]; }

  /// Opens a span (called from the member's preprocessor, on the thread
  /// running that member: one writer per log at a time).
  void on_prep(std::size_t shard, std::size_t slot, std::int64_t start,
               std::int64_t end, int batch);
  /// Stamps the end of layer `layer` (at time t) into the slot's open span.
  void on_layer(std::size_t shard, std::size_t slot, int layer, std::int64_t t);

  /// Drops every span (call while nothing is in flight).
  void clear();

  const std::vector<MemberSpan>& spans(std::size_t shard,
                                       std::size_t slot) const {
    return logs_[shard * members_ + slot];
  }

 private:
  std::size_t shards_;
  std::size_t members_;
  std::vector<SlotInfo> info_;
  std::vector<std::vector<MemberSpan>> logs_;
};

/// Delegates to `inner`, stamping every apply() into the tracer.
class TracedPreprocessor final : public pgmr::prep::Preprocessor {
 public:
  TracedPreprocessor(std::unique_ptr<pgmr::prep::Preprocessor> inner,
                     Tracer& tracer, std::size_t shard, std::size_t slot)
      : inner_(std::move(inner)), tracer_(tracer), shard_(shard), slot_(slot) {}
  std::string name() const override { return inner_->name(); }
  pgmr::Tensor apply(const pgmr::Tensor& images) const override;

 private:
  std::unique_ptr<pgmr::prep::Preprocessor> inner_;
  Tracer& tracer_;
  std::size_t shard_;
  std::size_t slot_;
};

/// Shard `shard`'s traced copy of the system make_system(config) builds:
/// members are mr::Member(TracedPreprocessor, zoo::trained_network(...))
/// with the forward tap installed, then thresholds and RADE staging.
pgmr::polygraph::PolygraphSystem make_traced_system(
    const pgmr::polygraph::SystemConfig& config, Tracer& tracer,
    std::size_t shard);

/// Per-layer figures attributed from the spans and the client records.
struct StageReport {
  bool attributed = false;  ///< every request matched to a batch
  std::string problem;      ///< why attribution failed, if it did
  std::size_t requests = 0;  ///< window requests attributed
  std::size_t batches = 0;   ///< window batches
  std::vector<double> wait_us;  ///< submit -> batch's first preprocess
  std::vector<double> tail_us;  ///< last forward end -> verdict ready
  std::vector<double> batch_prep_us;  ///< per batch, summed over members
  std::vector<double> batch_fwd_us;   ///< per batch, summed over members
  double batch_size_mean = 0.0;
  double busy_frac = 0.0;
  std::map<std::string, double> prep_us_per_sample;  ///< by Preprocessor::name
  double forward_us_per_sample = 0.0;  ///< per request, summed over members
  std::map<int, double> layer_us_per_sample;  ///< self time per layer index
  std::string model;                          ///< network of the layers
  double gmacs = 0.0;
  double forwards_per_request = 0.0;
};

/// Attributes spans to requests. Batches are serial per shard, so each
/// shard's batches take its requests in submission order; `shard_of`
/// maps a record to the shard it was routed to. Window figures cover
/// requests submitted inside [window_start, window_end) and batches that
/// started there.
StageReport analyze(const Tracer& tracer, const LoadResult& load,
                    const std::vector<std::size_t>& shard_of);

}  // namespace perfbench
