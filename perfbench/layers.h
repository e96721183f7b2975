// Outside-in instrumentation for the CWC benchmark.
//
// Every layer is measured through the program's public interfaces only:
// decorators around core::Scheduler and tasks::TaskFactory/Task (installed
// through the constructor and TaskRegistry::install), a lag-probe timer on
// the server's event loop, thread/process CPU clocks, and deltas of the
// counters and histograms the program already exports. Spans are kept in
// memory and written out when the run ends; nothing here reaches into src/.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "net/event_loop.h"
#include "obs/latency_hist.h"
#include "tasks/registry.h"

namespace perfbench {

/// Monotonic milliseconds since the benchmark process started.
double now_ms();

// --- Spans -------------------------------------------------------------------

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t steps = 0;  ///< tasks.step spans: step() calls
  std::uint64_t bytes = 0;  ///< tasks.step spans: input bytes consumed
};

/// In-memory span store. Children attach to the currently open batch span;
/// recording is a no-op unless the batch being run is a traced one.
class SpanRecorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Opens a root span and makes it the parent of every span added until
  /// end_batch(); `traced` switches recording on for that stretch.
  std::uint64_t begin_batch(const std::string& name, bool traced);
  void end_batch(std::uint64_t id);
  /// Records a child of the open batch (thread-safe); no-op when disabled.
  void add(std::string name, double start_ms, double end_ms, std::uint64_t steps = 0,
           std::uint64_t bytes = 0);
  /// Spans whose parent is `root` (a copy).
  std::vector<Span> children(std::uint64_t root) const;
  Span find(std::uint64_t id) const;  ///< a copy; id 0 when absent
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> open_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Duration of `root` minus the part of it covered by the union of
/// `children` (clipped to the root interval).
double self_time_ms(const Span& root, const std::vector<Span>& children);

// --- core::Scheduler decorator ---------------------------------------------------

/// Tracks the highest thread and socket counts seen at the benchmark's
/// checkpoints (main thread: after agents start, and at every build).
struct ResourceGuard {
  int peak_threads = 0;
  int peak_sockets = 0;
  void sample();
};

/// Per-batch build statistics; written on the thread that drives the
/// controller (the server thread or the simulator's caller).
struct BuildLog {
  std::size_t count = 0;
  double ms_sum = 0.0;
  double ms_max = 0.0;
  double first_start_ms = -1.0;  ///< < 0 until the first build
  double placed_kb = 0.0;        ///< input KB of every piece placed
  void reset() { *this = BuildLog{}; }
};

class TimedScheduler final : public cwc::core::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<cwc::core::Scheduler> inner, BuildLog& log, SpanRecorder& spans,
                 ResourceGuard& guard);

  const char* name() const override { return inner_->name(); }
  cwc::core::Schedule build(const std::vector<cwc::core::JobSpec>& jobs,
                            const std::vector<cwc::core::PhoneSpec>& phones,
                            const cwc::core::PredictionModel& prediction,
                            const cwc::core::InitialLoad& initial_load = {}) const override;
  cwc::core::Schedule build_with_hint(const std::vector<cwc::core::JobSpec>& jobs,
                                      const std::vector<cwc::core::PhoneSpec>& phones,
                                      const cwc::core::PredictionModel& prediction,
                                      const cwc::core::InitialLoad& initial_load,
                                      std::optional<cwc::Millis> capacity_hint) const override;
  void bind_health(const cwc::core::HealthProvider* health) override {
    inner_->bind_health(health);
  }
  void bind_locality(const cwc::core::LocalityProvider* locality) override {
    inner_->bind_locality(locality);
  }

 private:
  cwc::core::Schedule record(double start_ms, cwc::core::Schedule schedule) const;

  std::unique_ptr<cwc::core::Scheduler> inner_;
  BuildLog& log_;
  SpanRecorder& spans_;
  ResourceGuard& guard_;
};

// --- tasks::TaskFactory / tasks::Task decorators ----------------------------------

/// Per-batch task statistics, fed from every agent thread.
struct TaskLog {
  mutable std::mutex mutex;
  std::size_t instances = 0;
  std::uint64_t steps = 0;
  std::uint64_t bytes = 0;
  double step_ms = 0.0;
  double aggregate_ms = 0.0;
  void reset();
};

/// Wraps a factory owned by another registry (which must outlive it): every
/// task it creates times its step() calls and records one tasks.step span
/// per instance; aggregate() is timed too.
class TimedTaskFactory final : public cwc::tasks::TaskFactory {
 public:
  TimedTaskFactory(const cwc::tasks::TaskFactory& inner, TaskLog& log, SpanRecorder& spans)
      : inner_(inner), log_(log), spans_(spans) {}

  const std::string& name() const override { return inner_.name(); }
  cwc::JobKind kind() const override { return inner_.kind(); }
  cwc::Kilobytes executable_kb() const override { return inner_.executable_kb(); }
  cwc::MsPerKb reference_ms_per_kb() const override { return inner_.reference_ms_per_kb(); }
  std::unique_ptr<cwc::tasks::Task> create() const override;
  cwc::tasks::Bytes aggregate(const std::vector<cwc::tasks::Bytes>& partials) const override;

 private:
  const cwc::tasks::TaskFactory& inner_;
  TaskLog& log_;
  SpanRecorder& spans_;
};

/// A registry whose every factory is a TimedTaskFactory over `base`.
cwc::tasks::TaskRegistry timed_registry(const cwc::tasks::TaskRegistry& base, TaskLog& log,
                                        SpanRecorder& spans);

// --- Event-loop lag probe ---------------------------------------------------------

/// One-shot timer chain on a loop: each firing records how late it ran
/// (fire time minus deadline) and re-arms `period_ms` ahead. Attach before
/// run(); the loop must not outlive this object while running.
class LagProbe {
 public:
  LagProbe(cwc::net::EventLoop& loop, double period_ms, SpanRecorder& spans);
  const std::vector<double>& lags_ms() const { return lags_; }

 private:
  void arm();

  cwc::net::EventLoop& loop_;
  double period_ms_;
  SpanRecorder& spans_;
  double due_loop_ms_ = 0.0;
  std::vector<double> lags_;
};

// --- Program-exported telemetry, as per-batch deltas -------------------------------

/// Baseline of the process-global obs registries; accessors return the
/// change since construction, so consecutive batches never read each
/// other's counts.
class ObsDelta {
 public:
  ObsDelta();
  double counter(const std::string& name) const;
  /// Quantile of the samples a latency histogram gained since the baseline.
  double latency_quantile(const std::string& name, double q) const;
  /// (count, sum) a fixed-bucket HistogramMetric gained since the baseline.
  std::pair<double, double> histogram_count_sum(const std::string& name) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, std::unique_ptr<cwc::obs::LatencyHistogram>> latency_;
  std::map<std::string, std::pair<double, double>> histograms_;
};

// --- Process facts ---------------------------------------------------------------

double thread_cpu_ms();   ///< CPU time of the calling thread
double process_cpu_ms();  ///< CPU time of the whole process
int thread_count();       ///< entries of /proc/self/task
int socket_count();       ///< socket fds in /proc/self/fd
double peak_rss_mb();     ///< VmHWM
/// Restarts VmHWM from the current RSS, so the next peak_rss_mb() covers
/// only what follows.
void reset_peak_rss();
int available_cpus();     ///< CPUs this process may run on

/// Empty when the process-global fault planes and the trace recorder are
/// all disarmed; otherwise names the ones that are not.
std::string armed_globals();

}  // namespace perfbench
