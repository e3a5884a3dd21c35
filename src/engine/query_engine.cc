#include "engine/query_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vaq {

namespace {

/// Per-worker cap on retained latency samples; reaching it halves the
/// samples and doubles the recording stride (see StatsSlot).
constexpr std::size_t kMaxLatencySamples = 1 << 16;

/// The engine one of whose execution slots this thread holds, if any.
thread_local const QueryEngine* current_slot_engine = nullptr;

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Holds an execution slot for one `Execute`: marks the thread as the
/// engine's own for `OnWorkerThread()`, and on every exit clears the
/// task's token and hints off the context, then frees the slot.
class QueryEngine::SlotHold {
 public:
  SlotHold(QueryEngine* engine, Slot* slot)
      : engine_(engine), slot_(slot), outer_(current_slot_engine) {
    if (slot_ != nullptr) current_slot_engine = engine_;
  }
  ~SlotHold() {
    if (slot_ == nullptr) return;
    slot_->ctx.set_cancel(nullptr);
    slot_->ctx.set_plan_hints(nullptr);
    current_slot_engine = outer_;
    engine_->ReleaseSlot(slot_);
  }
  SlotHold(const SlotHold&) = delete;
  SlotHold& operator=(const SlotHold&) = delete;

 private:
  QueryEngine* engine_;
  Slot* slot_;
  const QueryEngine* outer_;
};

QueryEngine::QueryEngine(EngineOptions options)
    : options_(options),
      queue_(options.queue_capacity == 0 ? 1 : options.queue_capacity) {
  int n = options.num_threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;

  window_start_ = std::chrono::steady_clock::now();
  slots_.reserve(n);
  free_slots_.reserve(n);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    free_slots_.push_back(slots_.back().get());
  }
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&QueryEngine::WorkerLoop, this);
  }
}

QueryEngine::~QueryEngine() { Stop(); }

void QueryEngine::Stop() {
  // Serialise concurrent Stop()s; Close() is idempotent and a Submit
  // racing the close either wins the queue's internal lock first (its
  // task drains normally) or observes closed and throws the typed error.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_.load()) return;
  stopped_.store(true);
  queue_.Close();
  for (std::thread& t : workers_) t.join();
}

int QueryEngine::RegisterMethod(const AreaQuery* query) {
  std::lock_guard<std::mutex> lock(methods_mu_);
  methods_.push_back(query);
  return static_cast<int>(methods_.size()) - 1;
}

std::future<QueryResult> QueryEngine::Enqueue(Task task, const char* site) {
  std::future<QueryResult> future = task.promise.get_future();
  // Counted before the push, so no caller takes a slot this task is owed
  // between the push and a worker's pop.
  unslotted_.fetch_add(1);
  if (options_.shed_on_full) {
    switch (queue_.TryPush(std::move(task))) {
      case BoundedQueue<Task>::PushResult::kPushed:
        return future;
      case BoundedQueue<Task>::PushResult::kFull:
        unslotted_.fetch_sub(1);
        throw EngineOverloadedError(options_.queue_capacity);
      case BoundedQueue<Task>::PushResult::kClosed:
        break;
    }
  } else if (queue_.Push(std::move(task))) {
    return future;
  }
  unslotted_.fetch_sub(1);
  throw EngineStoppedError(std::string(site) + ": engine is shut down");
}

QueryEngine::Task QueryEngine::MakeTask(Polygon area, int method,
                                        SubmitOptions opts,
                                        const char* site) {
  Task task;
  {
    std::lock_guard<std::mutex> lock(methods_mu_);
    if (method < 0 || method >= static_cast<int>(methods_.size())) {
      throw std::out_of_range(std::string(site) + ": unknown method id");
    }
    task.query = methods_[method];
  }
  task.area = std::move(area);
  task.method = method;
  task.submitted = std::chrono::steady_clock::now();
  task.cancel = std::move(opts.cancel);
  task.hints = opts.hints;
  if (opts.deadline_ms > 0.0) {
    // The deadline clock starts at submission, so queue wait counts
    // against it — an overloaded engine fails stale queued work fast
    // instead of running it late.
    if (task.cancel == nullptr) task.cancel = std::make_shared<CancelToken>();
    task.cancel->SetDeadline(task.submitted +
                             std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     opts.deadline_ms)));
  }
  return task;
}

std::future<QueryResult> QueryEngine::Submit(Polygon area, int method,
                                             SubmitOptions opts) {
  Task task =
      MakeTask(std::move(area), method, std::move(opts), "QueryEngine::Submit");
  // A stopped engine serves no hits either; Enqueue throws the typed error.
  if (!stopped_.load()) {
    try {
      // A cache hit has no candidate work left: answering it here saves
      // the queue hop and worker wakeup, which cost more than the hit.
      if (std::optional<QueryResult> hit = Execute(task, nullptr, true)) {
        task.promise.set_value(std::move(*hit));
        return task.promise.get_future();
      }
    } catch (...) {
      task.promise.set_exception(std::current_exception());
      return task.promise.get_future();
    }
  }
  return Enqueue(std::move(task), "QueryEngine::Submit");
}

QueryResult QueryEngine::Run(Polygon area, int method, SubmitOptions opts) {
  Task task =
      MakeTask(std::move(area), method, std::move(opts), "QueryEngine::Run");
  if (!stopped_.load()) {
    // An idle slot runs the query right here: no queue hop, no worker
    // wakeup, no future. Its cache probe happens inside the run.
    if (Slot* slot = TryTakeCallerSlot()) {
      return std::move(*Execute(task, slot, true));
    }
    if (std::optional<QueryResult> hit = Execute(task, nullptr, true)) {
      return std::move(*hit);
    }
  }
  return Enqueue(std::move(task), "QueryEngine::Run").get();
}

QueryEngine::Slot* QueryEngine::TryTakeCallerSlot() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  if (free_slots_.empty() || unslotted_.load() != 0) return nullptr;
  Slot* slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

QueryEngine::Slot* QueryEngine::TakeWorkerSlot() {
  std::unique_lock<std::mutex> lock(slots_mu_);
  slot_freed_.wait(lock, [this] { return !free_slots_.empty(); });
  Slot* slot = free_slots_.back();
  free_slots_.pop_back();
  unslotted_.fetch_sub(1);
  return slot;
}

void QueryEngine::ReleaseSlot(Slot* slot) {
  {
    std::lock_guard<std::mutex> lock(slots_mu_);
    free_slots_.push_back(slot);
  }
  slot_freed_.notify_one();
}

std::optional<QueryResult> QueryEngine::Execute(Task& task, Slot* slot,
                                                bool on_caller) {
  const SlotHold hold(this, slot);
  // A task whose deadline passed while queued, or whose token was
  // cancelled before it ran, fails fast here: skipping the run is what
  // lets an overloaded engine shed stale work, and an aborted query
  // leaves the cache counters alone.
  if (task.cancel != nullptr) task.cancel->Check();
  QueryResult result;
  if (slot == nullptr) {
    if (!task.query->TryServeCached(task.area, task.hints, result.ids,
                                    result.stats)) {
      return std::nullopt;
    }
  } else {
    slot->ctx.set_cancel(task.cancel.get());
    slot->ctx.set_plan_hints(&task.hints);
    result.ids = task.query->Run(task.area, slot->ctx);
    result.stats = slot->ctx.stats;
  }
  // Ad-hoc fan-out legs (SubmitWith) deliver their result but stay out
  // of the engine's client-query statistics.
  if (task.method >= 0) {
    Record(slot != nullptr ? slot->stats : caller_stats_, task, result.stats,
           on_caller);
  }
  return result;
}

std::future<QueryResult> QueryEngine::SubmitWith(
    const AreaQuery* query, Polygon area,
    std::shared_ptr<CancelToken> cancel) {
  Task task;
  task.area = std::move(area);
  task.query = query;
  task.method = -1;  // Ad-hoc: excluded from engine statistics.
  task.submitted = std::chrono::steady_clock::now();
  task.cancel = std::move(cancel);
  return Enqueue(std::move(task), "QueryEngine::SubmitWith");
}

std::vector<QueryResult> QueryEngine::RunBatch(std::span<const Polygon> areas,
                                               int method) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(areas.size());
  for (const Polygon& area : areas) futures.push_back(Submit(area, method));
  std::vector<QueryResult> results;
  results.reserve(areas.size());
  for (std::future<QueryResult>& f : futures) results.push_back(f.get());
  return results;
}

bool QueryEngine::OnWorkerThread() const {
  return current_slot_engine == this;
}

void QueryEngine::Record(StatsSlot& slot, const Task& task,
                         const QueryStats& stats, bool on_caller) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - task.submitted)
          .count();
  std::lock_guard<std::mutex> lock(slot.mu);
  ++slot.completed;
  slot.ran_on_caller += on_caller;
  if (slot.completed % slot.latency_stride == 0) {
    slot.latencies_ms.push_back(latency_ms);
    if (slot.latencies_ms.size() >= kMaxLatencySamples) {
      // Decimate: keep every other sample, record half as often.
      std::vector<double>& samples = slot.latencies_ms;
      for (std::size_t i = 1; 2 * i < samples.size(); ++i) {
        samples[i] = samples[2 * i];
      }
      samples.resize(samples.size() / 2);
      slot.latency_stride *= 2;
    }
  }
  if (slot.methods.size() <= static_cast<std::size_t>(task.method)) {
    slot.methods.resize(task.method + 1);
  }
  MethodEngineStats& m = slot.methods[task.method];
  if (m.name.empty()) m.name = std::string(task.query->Name());
  ++m.queries;
  m.degraded_queries += stats.degraded;
  m.totals.MergeFrom(stats);
}

template <typename Fn>
void QueryEngine::ForEachSlot(Fn fn) const {
  for (const std::unique_ptr<Slot>& slot : slots_) fn(slot->stats);
  fn(caller_stats_);
}

void QueryEngine::WorkerLoop() {
  while (std::optional<Task> task = queue_.Pop()) {
    // Execute frees the slot before the promise wakes the submitter, so a
    // client's next `Run` finds it free.
    try {
      task->promise.set_value(
          std::move(*Execute(*task, TakeWorkerSlot(), false)));
    } catch (...) {
      // A throwing query must not take down the pool (std::terminate) or
      // strand the caller on an unset future.
      task->promise.set_exception(std::current_exception());
    }
  }
}

EngineStats QueryEngine::Stats() const {
  EngineStats out;
  std::vector<double> latencies;
  ForEachSlot([&](StatsSlot& slot) {
    std::lock_guard<std::mutex> lock(slot.mu);
    out.queries_completed += slot.completed;
    out.ran_on_caller += slot.ran_on_caller;
    latencies.insert(latencies.end(), slot.latencies_ms.begin(),
                     slot.latencies_ms.end());
    if (out.methods.size() < slot.methods.size()) {
      out.methods.resize(slot.methods.size());
    }
    for (std::size_t i = 0; i < slot.methods.size(); ++i) {
      const MethodEngineStats& m = slot.methods[i];
      MethodEngineStats& agg = out.methods[i];
      if (agg.name.empty()) agg.name = m.name;
      agg.queries += m.queries;
      agg.degraded_queries += m.degraded_queries;
      agg.totals.MergeFrom(m.totals);
    }
  });
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - window_start_)
                      .count();
  }
  if (out.wall_ms > 0.0) {
    out.throughput_qps =
        static_cast<double>(out.queries_completed) / (out.wall_ms / 1000.0);
  }
  std::sort(latencies.begin(), latencies.end());
  out.latency_p50_ms = NearestRankPercentile(latencies, 0.50);
  out.latency_p95_ms = NearestRankPercentile(latencies, 0.95);
  out.latency_p99_ms = NearestRankPercentile(latencies, 0.99);
  return out;
}

void QueryEngine::ResetStats() {
  ForEachSlot([](StatsSlot& slot) {
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.completed = 0;
    slot.ran_on_caller = 0;
    slot.latency_stride = 1;
    slot.latencies_ms.clear();
    slot.methods.clear();
  });
  std::lock_guard<std::mutex> lock(window_mu_);
  window_start_ = std::chrono::steady_clock::now();
}

}  // namespace vaq
