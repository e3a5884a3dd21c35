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

/// The engine whose WorkerLoop is running on this thread, if any.
thread_local const QueryEngine* current_worker_engine = nullptr;

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

QueryEngine::QueryEngine(EngineOptions options)
    : options_(options),
      queue_(options.queue_capacity == 0 ? 1 : options.queue_capacity) {
  int n = options.num_threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;

  window_start_ = std::chrono::steady_clock::now();
  states_.reserve(n);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    states_.push_back(std::make_unique<WorkerState>());
  }
  // Start the pool only after every WorkerState exists: workers index only
  // their own state, handed to them here.
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&QueryEngine::WorkerLoop, this, states_[i].get());
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
  if (options_.shed_on_full) {
    switch (queue_.TryPush(std::move(task))) {
      case BoundedQueue<Task>::PushResult::kPushed:
        return future;
      case BoundedQueue<Task>::PushResult::kFull:
        throw EngineOverloadedError(options_.queue_capacity);
      case BoundedQueue<Task>::PushResult::kClosed:
        break;
    }
    throw EngineStoppedError(std::string(site) + ": engine is shut down");
  }
  if (!queue_.Push(std::move(task))) {
    throw EngineStoppedError(std::string(site) + ": engine is shut down");
  }
  return future;
}

std::future<QueryResult> QueryEngine::Submit(Polygon area, int method,
                                             SubmitOptions opts) {
  const AreaQuery* query;
  {
    std::lock_guard<std::mutex> lock(methods_mu_);
    if (method < 0 || method >= static_cast<int>(methods_.size())) {
      throw std::out_of_range("QueryEngine::Submit: unknown method id");
    }
    query = methods_[method];
  }
  Task task;
  task.area = std::move(area);
  task.query = query;
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
  if (std::optional<std::future<QueryResult>> served =
          TryServeOnCaller(task)) {
    return std::move(*served);
  }
  return Enqueue(std::move(task), "QueryEngine::Submit");
}

std::optional<std::future<QueryResult>> QueryEngine::TryServeOnCaller(
    Task& task) {
  // A stopped engine serves nothing; Enqueue throws the typed error.
  if (stopped_.load()) return std::nullopt;
  QueryResult result;
  try {
    // Checked before the probe, so an aborted query leaves the cache
    // counters alone — exactly as if a worker had failed it fast.
    if (task.cancel != nullptr) task.cancel->Check();
    // A cache hit has no candidate work left: answering it here saves the
    // queue hop and worker wakeup, which cost more than the hit itself.
    if (!task.query->TryServeCached(task.area, task.hints, result.ids,
                                    result.stats)) {
      return std::nullopt;
    }
  } catch (...) {
    task.promise.set_exception(std::current_exception());
    return task.promise.get_future();
  }
  Record(caller_stats_, task, result.stats);
  task.promise.set_value(std::move(result));
  return task.promise.get_future();
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
  return current_worker_engine == this;
}

void QueryEngine::Record(StatsSlot& slot, const Task& task,
                         const QueryStats& stats) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - task.submitted)
          .count();
  std::lock_guard<std::mutex> lock(slot.mu);
  ++slot.completed;
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
  for (const std::unique_ptr<WorkerState>& state : states_) fn(state->stats);
  fn(caller_stats_);
}

void QueryEngine::WorkerLoop(WorkerState* state) {
  current_worker_engine = this;
  while (std::optional<Task> task = queue_.Pop()) {
    QueryResult result;
    try {
      // A task whose deadline passed while queued fails fast here — the
      // submission-relative deadline covers queue wait, and skipping the
      // run entirely is what lets an overloaded engine shed stale work.
      if (task->cancel != nullptr) task->cancel->Check();
      state->ctx.set_cancel(task->cancel.get());
      state->ctx.set_plan_hints(&task->hints);
      result.ids = task->query->Run(task->area, state->ctx);
      state->ctx.set_cancel(nullptr);
      state->ctx.set_plan_hints(nullptr);
    } catch (...) {
      // A throwing query must not take down the pool (std::terminate) or
      // strand the caller on an unset future.
      state->ctx.set_cancel(nullptr);
      state->ctx.set_plan_hints(nullptr);
      task->promise.set_exception(std::current_exception());
      continue;
    }
    result.stats = state->ctx.stats;
    // Ad-hoc fan-out legs (SubmitWith) deliver their result but stay out
    // of the engine's client-query statistics.
    if (task->method >= 0) Record(state->stats, *task, result.stats);
    task->promise.set_value(std::move(result));
  }
}

EngineStats QueryEngine::Stats() const {
  EngineStats out;
  std::vector<double> latencies;
  ForEachSlot([&](StatsSlot& slot) {
    std::lock_guard<std::mutex> lock(slot.mu);
    out.queries_completed += slot.completed;
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
    slot.latency_stride = 1;
    slot.latencies_ms.clear();
    slot.methods.clear();
  });
  std::lock_guard<std::mutex> lock(window_mu_);
  window_start_ = std::chrono::steady_clock::now();
}

}  // namespace vaq
