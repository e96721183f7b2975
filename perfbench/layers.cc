#include "layers.h"

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/fault.h"
#include "common/link_fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart = std::chrono::steady_clock::now();

double cpu_clock_ms(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

template <typename Fn>
void for_each_dir_entry(const char* path, Fn&& fn) {
  DIR* dir = ::opendir(path);
  if (dir == nullptr) return;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') fn(entry->d_name);
  }
  ::closedir(dir);
}

class TimedTask final : public cwc::tasks::Task {
 public:
  TimedTask(std::unique_ptr<cwc::tasks::Task> inner, TaskLog& log, SpanRecorder& spans)
      : inner_(std::move(inner)), log_(log), spans_(spans), created_ms_(now_ms()) {}

  ~TimedTask() override {
    const double end = now_ms();
    // Bytes from the task's own consumed(): photo-blur's step() returns
    // exclude the 12-byte header it reads on its first step.
    const std::uint64_t bytes = steps_ > 0 ? inner_->consumed() - first_consumed_ : 0;
    {
      std::lock_guard<std::mutex> lock(log_.mutex);
      ++log_.instances;
      log_.steps += steps_;
      log_.bytes += bytes;
      log_.step_ms += step_ms_;
    }
    spans_.add("tasks.step", created_ms_, end, steps_, bytes);
  }
  TimedTask(const TimedTask&) = delete;
  TimedTask& operator=(const TimedTask&) = delete;

  /// Timed on the thread's CPU clock: a step descheduled by a busy host
  /// is not busier, and the accounting check compares with CPU time.
  std::size_t step(cwc::tasks::ByteView input, std::size_t budget) override {
    if (steps_ == 0) first_consumed_ = inner_->consumed();
    const double start = thread_cpu_ms();
    const std::size_t consumed = inner_->step(input, budget);
    step_ms_ += thread_cpu_ms() - start;
    ++steps_;
    return consumed;
  }
  std::uint64_t consumed() const override { return inner_->consumed(); }
  cwc::tasks::Checkpoint checkpoint() const override { return inner_->checkpoint(); }
  void restore(const cwc::tasks::Checkpoint& cp) override { inner_->restore(cp); }
  cwc::tasks::Bytes partial_result() const override { return inner_->partial_result(); }

 private:
  std::unique_ptr<cwc::tasks::Task> inner_;
  TaskLog& log_;
  SpanRecorder& spans_;
  double created_ms_;
  std::uint64_t steps_ = 0;
  std::uint64_t first_consumed_ = 0;  ///< where a restored task resumed
  double step_ms_ = 0.0;
};

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   kProcessStart)
      .count();
}

// --- Spans -------------------------------------------------------------------

std::uint64_t SpanRecorder::begin_batch(const std::string& name, bool traced) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span root;
  root.id = next_id_++;
  root.name = name;
  root.start_ms = now_ms();
  spans_.push_back(root);
  open_.store(root.id, std::memory_order_relaxed);
  enabled_.store(traced, std::memory_order_relaxed);
  return root.id;
}

void SpanRecorder::end_batch(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  open_.store(0, std::memory_order_relaxed);
  for (Span& span : spans_) {
    if (span.id == id) span.end_ms = now_ms();
  }
}

void SpanRecorder::add(std::string name, double start_ms, double end_ms, std::uint64_t steps,
                       std::uint64_t bytes) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = next_id_++;
  span.parent = open_.load(std::memory_order_relaxed);
  span.name = std::move(name);
  span.start_ms = start_ms;
  span.end_ms = end_ms;
  span.steps = steps;
  span.bytes = bytes;
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::children(std::uint64_t root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_) {
    if (span.parent == root) out.push_back(span);
  }
  return out;
}

Span SpanRecorder::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    if (span.id == id) return span;
  }
  return Span{};
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"start_ms\":%.4f,"
                  "\"end_ms\":%.4f,\"steps\":%llu,\"bytes\":%llu}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(), s.start_ms,
                  s.end_ms, static_cast<unsigned long long>(s.steps),
                  static_cast<unsigned long long>(s.bytes), i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out.flush());
}

double self_time_ms(const Span& root, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> intervals;
  for (const Span& child : children) {
    const double lo = std::max(child.start_ms, root.start_ms);
    const double hi = std::min(child.end_ms, root.end_ms);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = root.start_ms;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  return (root.end_ms - root.start_ms) - covered;
}

// --- core::Scheduler decorator ---------------------------------------------------

TimedScheduler::TimedScheduler(std::unique_ptr<cwc::core::Scheduler> inner, BuildLog& log,
                               SpanRecorder& spans, ResourceGuard& guard)
    : inner_(std::move(inner)), log_(log), spans_(spans), guard_(guard) {}

cwc::core::Schedule TimedScheduler::build(const std::vector<cwc::core::JobSpec>& jobs,
                                          const std::vector<cwc::core::PhoneSpec>& phones,
                                          const cwc::core::PredictionModel& prediction,
                                          const cwc::core::InitialLoad& initial_load) const {
  guard_.sample();
  const double start = now_ms();
  return record(start, inner_->build(jobs, phones, prediction, initial_load));
}

cwc::core::Schedule TimedScheduler::build_with_hint(
    const std::vector<cwc::core::JobSpec>& jobs, const std::vector<cwc::core::PhoneSpec>& phones,
    const cwc::core::PredictionModel& prediction, const cwc::core::InitialLoad& initial_load,
    std::optional<cwc::Millis> capacity_hint) const {
  guard_.sample();
  const double start = now_ms();
  return record(start,
                inner_->build_with_hint(jobs, phones, prediction, initial_load, capacity_hint));
}

cwc::core::Schedule TimedScheduler::record(double start_ms, cwc::core::Schedule schedule) const {
  const double end = now_ms();
  const double ms = end - start_ms;
  ++log_.count;
  log_.ms_sum += ms;
  log_.ms_max = std::max(log_.ms_max, ms);
  if (log_.first_start_ms < 0.0) log_.first_start_ms = start_ms;
  for (const cwc::core::PhonePlan& plan : schedule.plans) {
    for (const cwc::core::JobPiece& piece : plan.pieces) log_.placed_kb += piece.input_kb;
  }
  spans_.add("core.build", start_ms, end);
  return schedule;
}

// --- tasks decorators ---------------------------------------------------------------

void TaskLog::reset() {
  std::lock_guard<std::mutex> lock(mutex);
  instances = 0;
  steps = 0;
  bytes = 0;
  step_ms = 0.0;
  aggregate_ms = 0.0;
}

std::unique_ptr<cwc::tasks::Task> TimedTaskFactory::create() const {
  return std::make_unique<TimedTask>(inner_.create(), log_, spans_);
}

cwc::tasks::Bytes TimedTaskFactory::aggregate(
    const std::vector<cwc::tasks::Bytes>& partials) const {
  const double start = now_ms();
  cwc::tasks::Bytes out = inner_.aggregate(partials);
  const double end = now_ms();
  {
    std::lock_guard<std::mutex> lock(log_.mutex);
    log_.aggregate_ms += end - start;
  }
  spans_.add("tasks.aggregate", start, end);
  return out;
}

cwc::tasks::TaskRegistry timed_registry(const cwc::tasks::TaskRegistry& base, TaskLog& log,
                                        SpanRecorder& spans) {
  cwc::tasks::TaskRegistry registry;
  for (const std::string& name : base.names()) {
    registry.install(std::make_shared<TimedTaskFactory>(base.require(name), log, spans));
  }
  return registry;
}

// --- Lag probe ---------------------------------------------------------------------

LagProbe::LagProbe(cwc::net::EventLoop& loop, double period_ms, SpanRecorder& spans)
    : loop_(loop), period_ms_(period_ms), spans_(spans) {
  arm();
}

void LagProbe::arm() {
  // Timers armed before run() count from the loop's anchor (run entry),
  // when now_ms() is still 0, so one formula covers both cases.
  due_loop_ms_ = loop_.now_ms() + period_ms_;
  loop_.schedule(period_ms_, [this] {
    const double lag = std::max(0.0, loop_.wall_now_ms() - due_loop_ms_);
    lags_.push_back(lag);
    const double end = now_ms();
    spans_.add("net.loop.lag", end - lag, end);
    arm();
  });
}

// --- Obs deltas -------------------------------------------------------------------

ObsDelta::ObsDelta() {
  cwc::obs::MetricsRegistry& registry = cwc::obs::MetricsRegistry::global();
  for (const std::string& name : registry.counter_names()) {
    counters_[name] = registry.find_counter(name)->value();
  }
  for (const std::string& name : registry.histogram_names()) {
    const auto view = registry.find_histogram(name)->view();
    histograms_[name] = {static_cast<double>(view.count),
                         static_cast<double>(view.count) * view.mean};
  }
  cwc::obs::LatencyRegistry& latency = cwc::obs::LatencyRegistry::global();
  for (const std::string& name : latency.names()) {
    latency_[name] = std::make_unique<cwc::obs::LatencyHistogram>(*latency.find(name));
  }
}

double ObsDelta::counter(const std::string& name) const {
  const cwc::obs::Counter* now = cwc::obs::MetricsRegistry::global().find_counter(name);
  if (now == nullptr) return 0.0;
  const auto it = counters_.find(name);
  return now->value() - (it == counters_.end() ? 0.0 : it->second);
}

namespace {

/// Bucket counts gained since `before` (nullptr = empty baseline).
std::vector<cwc::obs::LatencyHistogram::Bucket> gained(
    const cwc::obs::LatencyHistogram& now, const cwc::obs::LatencyHistogram* before) {
  std::map<double, std::uint64_t> base;
  if (before != nullptr) {
    for (const auto& b : before->nonzero_buckets()) base[b.low_ms] = b.count;
  }
  std::vector<cwc::obs::LatencyHistogram::Bucket> out;
  for (auto b : now.nonzero_buckets()) {
    const auto it = base.find(b.low_ms);
    if (it != base.end()) b.count -= std::min(b.count, it->second);
    if (b.count > 0) out.push_back(b);
  }
  return out;
}

}  // namespace

double ObsDelta::latency_quantile(const std::string& name, double q) const {
  const cwc::obs::LatencyHistogram* now = cwc::obs::LatencyRegistry::global().find(name);
  if (now == nullptr) return 0.0;
  const auto it = latency_.find(name);
  const auto buckets = gained(*now, it == latency_.end() ? nullptr : it->second.get());
  std::uint64_t total = 0;
  for (const auto& b : buckets) total += b.count;
  if (total == 0) return 0.0;
  // Linear interpolation inside the bucket holding the q-th sample, as the
  // program's own LatencyHistogram::quantile does.
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (const auto& b : buckets) {
    const double next = seen + static_cast<double>(b.count);
    if (next >= rank) {
      const double frac = (rank - seen) / static_cast<double>(b.count);
      return b.low_ms + frac * (b.high_ms - b.low_ms);
    }
    seen = next;
  }
  return buckets.back().high_ms;
}

std::pair<double, double> ObsDelta::histogram_count_sum(const std::string& name) const {
  const cwc::obs::HistogramMetric* now =
      cwc::obs::MetricsRegistry::global().find_histogram(name);
  if (now == nullptr) return {0.0, 0.0};
  const auto view = now->view();
  std::pair<double, double> out{static_cast<double>(view.count),
                                static_cast<double>(view.count) * view.mean};
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    out.first -= it->second.first;
    out.second -= it->second.second;
  }
  return out;
}

// --- Process facts -----------------------------------------------------------------

double thread_cpu_ms() { return cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ms() { return cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID); }

int thread_count() {
  int n = 0;
  for_each_dir_entry("/proc/self/task", [&](const char*) { ++n; });
  return n;
}

int socket_count() {
  int n = 0;
  for_each_dir_entry("/proc/self/fd", [&](const char* name) {
    char link[64];
    const std::string path = std::string("/proc/self/fd/") + name;
    const ssize_t len = ::readlink(path.c_str(), link, sizeof link - 1);
    if (len > 0 && std::string(link, static_cast<std::size_t>(len)).rfind("socket:", 0) == 0) {
      ++n;
    }
  });
  return n;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void ResourceGuard::sample() {
  peak_threads = std::max(peak_threads, thread_count());
  peak_sockets = std::max(peak_sockets, socket_count());
}

std::string armed_globals() {
  std::string out;
  if (cwc::fault::FaultInjector::global().armed()) out += " FaultInjector";
  if (cwc::fault::LinkFaultPlane::global().armed()) out += " LinkFaultPlane";
  if (cwc::obs::TraceRecorder::global().enabled()) out += " TraceRecorder";
  return out;
}

}  // namespace perfbench
