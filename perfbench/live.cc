// Live workloads: one real CwcServer on the calling thread and `ctx.agents`
// in-process PhoneAgents over loopback, at host speed (no compute or link
// pacing, so nothing timed is a sleep). Every batch builds a fresh server
// and fleet, submits the seeded inputs, runs to completion, and compares
// every aggregated result with a run_to_completion reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/testbed.h"
#include "net/phone_agent.h"
#include "net/server.h"
#include "tasks/generators.h"
#include "tasks/sales.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cwc::net::Blob;

constexpr double kMb = 1024.0 * 1024.0;
constexpr double kLagProbePeriodMs = 5.0;
constexpr const char* kLogTask = "log-scan:disk failure";

struct Input {
  std::string task;
  Blob bytes;
  Blob reference;  ///< aggregate of one run_to_completion over the bytes
};

struct LiveShape {
  bool chunk_cache = false;  ///< agents cache chunks; server ships on a 64 KB grid
  bool journal = false;
  int copies = 1;            ///< every input is submitted this many times
};

/// `n` sizes in KB spread evenly over [0.5, 1.5] x mean: fixed per
/// workload, so the seed changes only the bytes and their order.
std::vector<double> size_ladder(int n, double mean_kb) {
  std::vector<double> sizes;
  for (int k = 0; k < n; ++k) {
    sizes.push_back(mean_kb * (0.5 + static_cast<double>(k) / std::max(1, n - 1)));
  }
  return sizes;
}

Blob generate(const std::string& task, double kb, cwc::Rng& rng) {
  namespace t = cwc::tasks;
  if (task == cwc::core::kPrimeTask) return t::make_integer_input(rng, kb);
  if (task == cwc::core::kWordTask) return t::make_text_input(rng, kb);
  if (task == cwc::core::kBlurTask) return t::make_image_input_of_size(rng, kb);
  if (task == kLogTask) return t::make_log_input(rng, kb);
  if (task == "sales-aggregate") return t::make_sales_input(rng, kb);
  throw std::invalid_argument("no generator for task " + task);
}

/// Sales revenue is a floating-point sum, so its last bits depend on how the
/// input was cut into pieces; units and malformed counts must match exactly.
bool same_result(const std::string& task, const Blob& got, const Blob& want) {
  if (task != "sales-aggregate") return got == want;
  const auto a = cwc::tasks::SalesAggregateFactory::decode(got);
  const auto b = cwc::tasks::SalesAggregateFactory::decode(want);
  if (a.units != b.units || a.malformed_records != b.malformed_records) return false;
  for (std::size_t i = 0; i < a.revenue.size(); ++i) {
    if (std::abs(a.revenue[i] - b.revenue[i]) > 1e-9 * std::max(1.0, std::abs(b.revenue[i]))) {
      return false;
    }
  }
  return true;
}

class LiveWorkload final : public Workload {
 public:
  LiveWorkload(std::string name, std::uint64_t seed, LiveShape shape,
               std::vector<std::pair<std::string, std::vector<double>>> mix, Context& ctx)
      : name_(std::move(name)), seed_(seed), shape_(shape), mix_(std::move(mix)), ctx_(ctx),
        base_(cwc::tasks::TaskRegistry::with_builtins()),
        timed_(timed_registry(base_, ctx.tasks, ctx.spans)) {}

  void prepare() override {
    cwc::Rng rng(seed_);
    for (const auto& [task, sizes] : mix_) {
      for (const double kb : sizes) inputs_.push_back({task, generate(task, kb, rng), {}});
    }
    rng.shuffle(inputs_);
    for (Input& input : inputs_) {
      const auto& factory = base_.require(input.task);
      input.reference = factory.aggregate({cwc::tasks::run_to_completion(factory, input.bytes)});
      input_mb_ += shape_.copies * static_cast<double>(input.bytes.size()) / kMb;
    }
  }

  std::string describe() const override {
    char line[160];
    std::snprintf(line, sizeof line, "%zu inputs x %d copies, %.1f MB per batch, %d agents%s%s",
                  inputs_.size(), shape_.copies, input_mb_, ctx_.agents,
                  shape_.chunk_cache ? ", chunk caches" : "", shape_.journal ? ", journal" : "");
    return line;
  }

  Batch run_batch(bool traced, int round) override;

 private:
  /// A fresh journal file per server, or "" when the workload has none.
  std::string journal_path() {
    if (!shape_.journal) return {};
    return ctx_.scratch_dir + "/journal-" + name_ + "-" + std::to_string(journals_++);
  }

  /// submit() takes its input by value; the copies are made before timing.
  std::vector<Blob> input_copies() const {
    std::vector<Blob> copies;
    for (int copy = 0; copy < shape_.copies; ++copy) {
      for (const Input& input : inputs_) copies.push_back(input.bytes);
    }
    return copies;
  }

  cwc::net::ServerConfig server_config(const std::string& journal) const {
    cwc::net::ServerConfig config;
    config.port = 0;
    config.keepalive_period = 1000.0;
    config.scheduling_period = 250.0;
    config.rpc_timeout = 10'000.0;
    config.chunk_bytes = shape_.chunk_cache ? 64 * 1024 : 0;
    config.journal_path = journal;
    return config;
  }

  std::string name_;
  std::uint64_t seed_;
  LiveShape shape_;
  std::vector<std::pair<std::string, std::vector<double>>> mix_;
  Context& ctx_;
  cwc::tasks::TaskRegistry base_;
  cwc::tasks::TaskRegistry timed_;
  std::vector<Input> inputs_;
  double input_mb_ = 0.0;
  int journals_ = 0;
};

Batch LiveWorkload::run_batch(bool traced, int /*round*/) {
  Batch batch;
  batch.traced = traced;
  batch.input_mb = input_mb_;
  ctx_.builds.reset();
  ctx_.tasks.reset();
  const cwc::tasks::TaskRegistry& registry = traced ? timed_ : base_;
  const std::string journal = journal_path();
  std::vector<Blob> copies = input_copies();

  const ObsDelta obs;
  const std::uint64_t root = ctx_.spans.begin_batch(name_ + ".batch", traced);

  const double t0 = now_ms();
  auto server = std::make_unique<cwc::net::CwcServer>(
      std::make_unique<TimedScheduler>(std::make_unique<cwc::core::GreedyScheduler>(), ctx_.builds,
                                       ctx_.spans, ctx_.guard),
      cwc::core::paper_prediction(), &registry, server_config(journal));
  std::vector<std::unique_ptr<cwc::net::PhoneAgent>> agents;
  for (int i = 0; i < ctx_.agents; ++i) {
    cwc::net::PhoneAgentConfig pc;
    pc.id = i + 1;
    pc.cpu_mhz = 1000.0;
    pc.rpc_timeout = 10'000.0;
    pc.cache_bytes = shape_.chunk_cache ? 64ull << 20 : 0;
    agents.push_back(std::make_unique<cwc::net::PhoneAgent>(server->port(), pc, &registry));
    agents.back()->start();
  }
  const double t1 = now_ms();

  // Closed loop: the whole batch is submitted, then run to completion.
  std::vector<cwc::JobId> ids;
  double submit_ms = 0.0;
  for (std::size_t k = 0; k < copies.size(); ++k) {
    const std::size_t bytes = copies[k].size();
    const double start = now_ms();
    ids.push_back(server->submit(inputs_[k % inputs_.size()].task, std::move(copies[k])));
    const double end = now_ms();
    submit_ms += end - start;
    ctx_.spans.add("server.submit", start, end, 0, bytes);
  }
  ctx_.guard.sample();

  std::unique_ptr<LagProbe> probe;
  if (traced) probe = std::make_unique<LagProbe>(server->loop(), kLagProbePeriodMs, ctx_.spans);
  const double server_cpu0 = thread_cpu_ms();
  const double process_cpu0 = process_cpu_ms();
  const double run_start = now_ms();
  const bool completed = server->run(ctx_.agents, cwc::seconds(60.0));
  const double run_end = now_ms();
  const double server_cpu = thread_cpu_ms() - server_cpu0;
  const double process_cpu = process_cpu_ms() - process_cpu0;
  ctx_.spans.end_batch(root);

  batch.submit_s = submit_ms / 1000.0;
  batch.wall_s = (run_end - t1) / 1000.0;
  const double first_build = ctx_.builds.first_start_ms;
  batch.setup_s = ((t1 - t0) + (first_build - run_start)) / 1000.0;
  batch.makespan_s = (run_end - first_build) / 1000.0;
  batch.shipped_mb = obs.counter("net.server.bytes_sent") / kMb;

  std::size_t pieces = 0;
  std::size_t pieces_other = 0;
  double replayed = 0.0;
  for (auto& agent : agents) {
    agent->stop();
    agent->join();
    pieces += agent->pieces_completed();
    pieces_other += agent->pieces_failed() + agent->pieces_cancelled();
    replayed += static_cast<double>(agent->reports_replayed());
  }

  if (!completed) {
    batch.error = "server run timed out";
  } else if (first_build < 0.0) {
    batch.error = "no scheduling instant observed";
  } else {
    for (std::size_t k = 0; k < ids.size() && batch.error.empty(); ++k) {
      const Input& input = inputs_[k % inputs_.size()];
      if (!server->job_done(ids[k]) || !same_result(input.task, server->result(ids[k]),
                                                    input.reference)) {
        batch.error = "job " + std::to_string(ids[k]) + " (" + input.task +
                      ") differs from its reference";
      }
    }
  }

  double journal_mb = 0.0;
  if (!journal.empty()) {
    std::error_code ec;
    journal_mb = static_cast<double>(std::filesystem::file_size(journal, ec)) / kMb;
    if (ec) journal_mb = 0.0;
    std::filesystem::remove(journal, ec);
  }

  if (traced && batch.error.empty()) {
    std::lock_guard<std::mutex> lock(ctx_.tasks.mutex);
    const double run_ms = run_end - run_start;
    const double agent_cpu = process_cpu - server_cpu;
    const double hit = obs.counter("cache.hit_kb");
    const double miss = obs.counter("cache.miss_kb");
    auto& l = batch.layers;
    l["core.build.count"] = static_cast<double>(ctx_.builds.count);
    l["core.build.ms_sum"] = ctx_.builds.ms_sum;
    l["core.build.ms_max"] = ctx_.builds.ms_max;
    l["core.build.share"] = ctx_.builds.ms_sum / (batch.wall_s * 1000.0);
    l["core.controller.instants"] = obs.counter("controller.scheduling_instants");
    l["core.controller.rescheduled_mb"] = obs.counter("controller.rescheduled_kb") / 1024.0;
    l["core.health.quarantines"] = obs.counter("health.quarantines");
    l["tasks.step.calls"] = static_cast<double>(ctx_.tasks.steps);
    l["tasks.step.ms_sum"] = ctx_.tasks.step_ms;
    l["tasks.step.mb_s"] =
        ctx_.tasks.step_ms > 0.0 ? static_cast<double>(ctx_.tasks.bytes) / kMb /
                                      (ctx_.tasks.step_ms / 1000.0)
                                : 0.0;
    l["tasks.aggregate.ms_sum"] = ctx_.tasks.aggregate_ms;
    l["net.agent.cpu_ms"] = agent_cpu;
    l["net.agent.idle_frac"] = 1.0 - ctx_.tasks.step_ms / (ctx_.agents * run_ms);
    l["net.agent.replayed"] = replayed;
    l["net.server.cpu_ms"] = server_cpu;
    l["net.server.busy_frac"] = server_cpu / run_ms;
    l["net.server.submit.ms_per_mb"] = submit_ms / input_mb_;
    l["net.server.bytes_per_input_mb"] = obs.counter("net.server.bytes_sent") / input_mb_;
    l["net.server.frames_sent"] = obs.counter("net.server.frames_sent");
    l["net.server.assign_report_ms.p50"] = obs.latency_quantile("server.assign_report_ms", 0.50);
    l["net.server.assign_report_ms.p99"] = obs.latency_quantile("server.assign_report_ms", 0.99);
    l["net.server.assign_retries"] = obs.counter("net.server.assign_retries");
    l["net.server.stale_reports"] = obs.counter("net.server.stale_reports");
    std::vector<double> lags = probe->lags_ms();
    std::sort(lags.begin(), lags.end());
    auto pick = [&](double q) {
      return lags.empty() ? 0.0 : lags[static_cast<std::size_t>(q * (lags.size() - 1))];
    };
    l["net.loop.lag_ms.p50"] = pick(0.50);
    l["net.loop.lag_ms.p99"] = pick(0.99);
    // The probe's own firings are wakeups the untraced loop never makes.
    l["net.loop.wakeups"] =
        std::max(0.0, obs.counter("net.loop.wakeups") - static_cast<double>(lags.size()));
    l["net.journal.append_ms.p50"] = obs.latency_quantile("server.journal_append_ms", 0.50);
    l["net.journal.append_ms.p99"] = obs.latency_quantile("server.journal_append_ms", 0.99);
    l["net.journal.bytes_per_input_mb"] = journal_mb * kMb / input_mb_;
    l["common.chunk.hit_ratio"] = hit + miss > 0.0 ? hit / (hit + miss) : 0.0;
    l["common.chunk.refetch_kb"] = obs.counter("cache.refetch_kb");

    // Accounting: a decorator that misses a call path fails here instead of
    // under-reporting its layer.
    double input_bytes = 0.0;
    for (const Input& input : inputs_) input_bytes += static_cast<double>(input.bytes.size());
    input_bytes *= shape_.copies;
    const double builds_counted = obs.counter("scheduler.builds");
    char why[200] = "";
    if (static_cast<double>(ctx_.tasks.bytes) != input_bytes) {
      std::snprintf(why, sizeof why, "tasks.step saw %llu bytes of %.0f submitted",
                    static_cast<unsigned long long>(ctx_.tasks.bytes), input_bytes);
    } else if (ctx_.tasks.instances < pieces || ctx_.tasks.instances > pieces + pieces_other) {
      std::snprintf(why, sizeof why, "%zu task instances for %zu completed pieces",
                    ctx_.tasks.instances, pieces);
    } else if (ctx_.tasks.step_ms > agent_cpu * 1.02 + 5.0) {
      std::snprintf(why, sizeof why, "tasks.step.ms_sum %.1f exceeds agent CPU %.1f ms",
                    ctx_.tasks.step_ms, agent_cpu);
    } else if (static_cast<double>(ctx_.builds.count) != builds_counted) {
      std::snprintf(why, sizeof why, "%zu decorated builds, program counted %.0f",
                    ctx_.builds.count, builds_counted);
    }
    batch.error = why;
  }
  batch.ok = batch.error.empty();
  return batch;
}

}  // namespace

std::unique_ptr<Workload> make_live_workload(const std::string& name, std::uint64_t seed,
                                             Context& ctx) {
  if (name == "live-compute") {
    // The paper's mix: breakable prime-count and word-count:error jobs plus
    // atomic photo-blur jobs. No chunking, no journal.
    return std::make_unique<LiveWorkload>(
        name, seed, LiveShape{},
        std::vector<std::pair<std::string, std::vector<double>>>{
            {cwc::core::kPrimeTask, size_ladder(16, 1024.0)},
            {cwc::core::kWordTask, size_ladder(16, 1024.0)},
            {cwc::core::kBlurTask, size_ladder(16, 768.0)}},
        ctx);
  }
  if (name == "live-ship-repeat") {
    // Large inputs on the cheapest tasks per byte, each submitted twice:
    // the first copy fills the agents' chunk caches, the second reads them.
    return std::make_unique<LiveWorkload>(
        name, seed, LiveShape{true, true, 2},
        std::vector<std::pair<std::string, std::vector<double>>>{
            {"sales-aggregate", size_ladder(8, 2048.0)}, {kLogTask, size_ladder(8, 2048.0)}},
        ctx);
  }
  return nullptr;
}

}  // namespace perfbench
