#include "load.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

using pgmr::polygraph::Verdict;

/// Blocks on `f`, stamps the moment the verdict is ready, then collects it.
void complete(RequestRecord& rec, std::future<Verdict>& f) {
  f.wait();
  rec.done_ns = now_ns();
  try {
    rec.verdict = f.get();
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.error = e.what();
  } catch (...) {
    rec.error = "non-standard exception";
  }
}

/// Stamps and submits one request into `rec`; nullopt (with the error
/// recorded) when submit itself throws.
std::optional<std::future<Verdict>> issue(const SubmitFn& submit,
                                          RequestRecord& rec) {
  rec.submit_ns = now_ns();
  try {
    std::future<Verdict> f = submit(rec.input, rec.key);
    rec.submit_ret_ns = now_ns();
    return f;
  } catch (const std::exception& e) {
    rec.submit_ret_ns = now_ns();
    rec.error = e.what();
  } catch (...) {
    rec.submit_ret_ns = now_ns();
    rec.error = "non-standard exception";
  }
  return std::nullopt;
}

/// Completed slot indices a generator has not yet refilled.
struct CompletionQueue {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::size_t> done;  // guarded by mutex
};

/// One in-flight request slot of a closed-loop generator, with the watcher
/// thread that stamps its completion. The generator owns `rec` while the
/// slot is idle; the watcher owns it from hand() until it reports the slot
/// back through the completion queue.
class Slot {
 public:
  Slot(std::size_t index, CompletionQueue& queue)
      : index_(index), queue_(queue), watcher_([this] { watch(); }) {}
  ~Slot() {
    {
      std::lock_guard guard(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
  }  // watcher_ joins here, after the stop flag is set
  Slot(const Slot&) = delete;
  Slot& operator=(const Slot&) = delete;

  RequestRecord rec;

  void hand(std::future<Verdict> f) {
    {
      std::lock_guard guard(mutex_);
      pending_ = std::move(f);
    }
    cv_.notify_one();
  }

 private:
  void watch() {
    for (;;) {
      std::future<Verdict> f;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return pending_.valid() || stop_; });
        if (!pending_.valid()) return;
        f = std::move(pending_);
      }
      complete(rec, f);
      {
        std::lock_guard guard(queue_.mutex);
        queue_.done.push_back(index_);
      }
      queue_.cv.notify_one();
    }
  }

  const std::size_t index_;
  CompletionQueue& queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::future<Verdict> pending_;  // guarded by mutex_
  bool stop_ = false;             // guarded by mutex_
  std::jthread watcher_;          // last: joins before the members it uses
};

void closed_loop_generator(const ClosedLoop& spec, const SubmitFn& submit,
                           std::atomic<std::uint64_t>& next,
                           std::int64_t warm_end, std::int64_t end,
                           std::vector<RequestRecord>& out) {
  // Fills `rec` for the next global request; prev_done is when the slot's
  // previous request completed (0 for the first), for the sender lag.
  auto prepare = [&](RequestRecord& rec, std::int64_t prev_done) {
    const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
    rec = RequestRecord{};
    rec.input = spec.order[i % spec.order.size()];
    rec.key = i;
    std::optional<std::future<Verdict>> f = issue(submit, rec);
    rec.due_ns = rec.submit_ns;
    rec.lag_ns = prev_done > 0 ? rec.submit_ns - prev_done : 0;
    rec.phase = rec.submit_ns < warm_end ? Phase::warmup : Phase::window;
    return f;
  };

  if (spec.in_flight <= 1) {  // one future: waiting on it inline is exact
    RequestRecord rec;
    std::int64_t prev_done = 0;
    while (now_ns() < end) {
      std::optional<std::future<Verdict>> f = prepare(rec, prev_done);
      if (f) complete(rec, *f);
      out.push_back(rec);
      if (!f) break;
      prev_done = rec.done_ns;
    }
    return;
  }

  CompletionQueue queue;
  std::vector<std::unique_ptr<Slot>> slots;
  for (std::size_t s = 0; s < spec.in_flight; ++s) {
    slots.push_back(std::make_unique<Slot>(s, queue));
  }
  std::size_t outstanding = 0;
  auto refill = [&](std::size_t s, std::int64_t prev_done) {
    if (now_ns() >= end) return;
    Slot& slot = *slots[s];
    std::optional<std::future<Verdict>> f = prepare(slot.rec, prev_done);
    if (!f) {  // a refused submission retires the slot
      out.push_back(slot.rec);
      return;
    }
    ++outstanding;
    slot.hand(std::move(*f));
  };
  for (std::size_t s = 0; s < spec.in_flight; ++s) refill(s, 0);
  std::vector<std::size_t> ready;
  while (outstanding > 0) {
    {
      std::unique_lock lock(queue.mutex);
      queue.cv.wait(lock, [&] { return !queue.done.empty(); });
      ready.swap(queue.done);
    }
    for (std::size_t s : ready) {
      --outstanding;
      out.push_back(slots[s]->rec);
      refill(s, slots[s]->rec.done_ns);
    }
    ready.clear();
  }
}

}  // namespace

LoadResult run_closed_loop(const ClosedLoop& spec, const SubmitFn& submit) {
  LoadResult result;
  const std::int64_t start = now_ns();
  result.window_start_ns = start + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  result.window_end_ns =
      result.window_start_ns + static_cast<std::int64_t>(spec.seconds * 1e9);
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<RequestRecord>> per_thread(std::max<std::size_t>(spec.threads, 1));
  {
    std::vector<std::jthread> generators;
    for (auto& out : per_thread) {
      generators.emplace_back([&, &out = out] {
        closed_loop_generator(spec, submit, next, result.window_start_ns,
                              result.window_end_ns, out);
      });
    }
  }  // joins the generators
  for (auto& part : per_thread) {
    result.records.insert(result.records.end(),
                          std::make_move_iterator(part.begin()),
                          std::make_move_iterator(part.end()));
  }
  return result;
}

LoadResult run_open_loop(const std::vector<Arrival>& schedule, double seconds,
                         const SubmitFn& submit) {
  LoadResult result;
  result.records.resize(schedule.size());

  // Each future in flight gets a watcher of its own: when every watcher is
  // busy the sender starts another, so no completion waits to be stamped.
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<Verdict>>> queue;  // guarded
  bool closed = false;                                               // guarded
  std::size_t idle = 0;                                              // guarded
  {
    std::vector<std::jthread> watchers;
    auto watch = [&] {
      for (;;) {
        std::pair<std::size_t, std::future<Verdict>> item;
        {
          std::unique_lock lock(mutex);
          cv.wait(lock, [&] { return !queue.empty() || closed; });
          if (queue.empty()) return;
          item = std::move(queue.front());
          queue.pop_front();
          --idle;
        }
        complete(result.records[item.first], item.second);
        std::lock_guard guard(mutex);
        ++idle;
      }
    };

    // The default 50 us timer slack would make every send that late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const std::int64_t start = now_ns() + 2'000'000;  // 2 ms lead
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& a = schedule[i];
      RequestRecord& rec = result.records[i];
      rec.input = a.input;
      rec.key = a.key;
      rec.phase = a.phase;
      rec.due_ns = start + static_cast<std::int64_t>(a.at_s * 1e9);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(rec.due_ns)));
      std::optional<std::future<Verdict>> f = issue(submit, rec);
      rec.lag_ns = rec.submit_ns - rec.due_ns;
      if (!f) continue;
      bool spawn = false;
      {
        std::lock_guard guard(mutex);
        queue.emplace_back(i, std::move(*f));
        if (queue.size() > idle) {
          ++idle;
          spawn = true;
        }
      }
      if (spawn) watchers.emplace_back(watch);
      cv.notify_one();
    }
    {
      std::lock_guard guard(mutex);
      closed = true;
    }
    cv.notify_all();
  }  // joins the watchers

  std::int64_t first = -1;
  std::int64_t last = -1;
  for (const RequestRecord& rec : result.records) {
    if (rec.phase != Phase::window) continue;
    if (first < 0) first = rec.due_ns;
    last = rec.due_ns;
  }
  result.window_start_ns = first;
  result.window_end_ns =
      std::max(last, first + static_cast<std::int64_t>(seconds * 1e9));
  return result;
}

}  // namespace perfbench
