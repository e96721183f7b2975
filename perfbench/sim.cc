// Fleet-scale workloads on the discrete-event simulator, which drives the
// same CwcController and schedulers as the live server. Each batch builds
// a fresh TestbedSimulation over the seeded fleet, submits the seeded
// paper-mix jobs and unplug events, and runs it to completion.
#include <cmath>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/pod_packing.h"
#include "core/testbed.h"
#include "obs/trace.h"
#include "sim/fleet.h"
#include "sim/simulator.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Seed of the fixed fleet and batch (see SimWorkload::prepare).
constexpr std::uint64_t kInstanceSeed = 17;
/// Failure patterns a run cycles through.
constexpr int kRounds = 4;

struct SimShape {
  std::size_t phones = 0;
  std::size_t jobs = 0;
  bool pods = false;
  int unplugs = 0;          ///< per failure pattern
  double window_s = 0.0;    ///< unplugs are spread evenly over [30 s, window_s]
  bool offline = false;     ///< alternate online and offline (else all online)
};

class SimWorkload final : public Workload {
 public:
  SimWorkload(std::string name, std::uint64_t seed, SimShape shape, Context& ctx)
      : name_(std::move(name)), seed_(seed), shape_(shape), ctx_(ctx) {}

  // The fleet, the batch and the simulator's own noise stream are a fixed
  // instance per workload, like the packer microbenches'; the seed draws
  // the night's failures: which phones unplug, and in which order. (Seeding
  // the instance too swings packing cost by up to 2x between seeds, which
  // no run-to-run bound can absorb.)
  void prepare() override {
    cwc::Rng fixed(kInstanceSeed);
    phones_ = cwc::sim::scaled_fleet(fixed, shape_.phones);
    while (jobs_.size() < shape_.jobs) {
      for (cwc::core::JobSpec job : cwc::core::paper_workload(fixed)) {
        if (jobs_.size() == shape_.jobs) break;
        job.id = static_cast<cwc::JobId>(jobs_.size());
        input_kb_ += job.input_kb;
        jobs_.push_back(job);
      }
    }

    // Unplugs land while the batch is in full swing (these fleets finish in
    // a few hundred simulated seconds), alternating online and offline.
    // Each round draws its own unplugged phones, so a run's medians cover
    // several failure patterns rather than one seed's luck.
    cwc::Rng rng(seed_);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<cwc::PhoneId> ids;
      for (const cwc::core::PhoneSpec& phone : phones_) ids.push_back(phone.id);
      rng.shuffle(ids);
      std::vector<cwc::sim::FailureEvent>& failures = failures_[round];
      for (int k = 0; k < shape_.unplugs; ++k) {
        const double at_s = 30.0 + (shape_.window_s - 30.0) * (k + 0.5) / shape_.unplugs;
        failures.push_back({cwc::seconds(at_s), ids[static_cast<std::size_t>(k)],
                            shape_.offline && k % 2 == 1 ? cwc::sim::FailureKind::kUnplugOffline
                                                         : cwc::sim::FailureKind::kUnplugOnline});
      }
    }
  }

  std::string describe() const override {
    char line[200];
    std::snprintf(line, sizeof line,
                  "%zu phones, %zu jobs (%.1f GB), %d failure patterns of %d unplugs, %s",
                  phones_.size(), jobs_.size(), input_kb_ / 1024.0 / 1024.0, kRounds,
                  shape_.unplugs, shape_.pods ? "auto pods" : "flat greedy");
    return line;
  }

  std::optional<double> setup_only() override {
    const double start = now_ms();
    auto simulation = construct(0);
    for (const cwc::core::JobSpec& job : jobs_) simulation->submit(job);
    return (now_ms() - start) / 1000.0;
  }

  int rounds() const override { return kRounds; }
  Batch run_batch(bool traced, int round) override;

  std::string final_check() const override {
    for (const auto& [round, outcome] : outcomes_) {
      if (outcome != outcomes_.find(round % kRounds)->second) {
        return "same-seed batches disagree on makespan_s or shipped_mb";
      }
    }
    return {};
  }

 private:
  std::unique_ptr<cwc::core::Scheduler> scheduler() const {
    if (!shape_.pods) return std::make_unique<cwc::core::GreedyScheduler>();
    cwc::core::PodPackingScheduler::Options options;
    options.pods = 0;  // auto: ~one pod per 128 phones
    options.parallel_pods = ctx_.parallel_pods;
    return std::make_unique<cwc::core::PodPackingScheduler>(options);
  }

  /// The simulator registers the fleet and receives the failure schedule.
  /// Set-up is this plus submitting the batch: the first scheduling instant
  /// is at run() entry.
  std::unique_ptr<cwc::sim::TestbedSimulation> construct(int round) {
    auto simulation = std::make_unique<cwc::sim::TestbedSimulation>(
        std::make_unique<TimedScheduler>(scheduler(), ctx_.builds, ctx_.spans, ctx_.guard),
        cwc::core::paper_prediction(), phones_, cwc::sim::SimOptions{}, kInstanceSeed);
    for (const cwc::sim::FailureEvent& event : failures_[round % kRounds]) {
      simulation->inject(event);
    }
    return simulation;
  }

  std::string name_;
  std::uint64_t seed_;
  SimShape shape_;
  Context& ctx_;
  std::vector<cwc::core::PhoneSpec> phones_;
  std::vector<cwc::core::JobSpec> jobs_;
  std::vector<cwc::sim::FailureEvent> failures_[kRounds];
  double input_kb_ = 0.0;
  /// (makespan_s, shipped_mb) per batch, keyed by round.
  std::multimap<int, std::pair<double, double>> outcomes_;
};

Batch SimWorkload::run_batch(bool traced, int round) {
  Batch batch;
  batch.traced = traced;
  batch.input_mb = input_kb_ / 1024.0;
  ctx_.builds.reset();

  const ObsDelta obs;
  const double t0 = now_ms();
  auto simulation = construct(round);
  const double submit_start = now_ms();
  for (const cwc::core::JobSpec& job : jobs_) simulation->submit(job);
  const double t1 = now_ms();
  batch.setup_s = (t1 - t0) / 1000.0;
  batch.submit_s = (t1 - submit_start) / 1000.0;

  const std::uint64_t root = ctx_.spans.begin_batch(name_ + ".run", traced);
  const double run_start = now_ms();
  const cwc::sim::SimResult result = simulation->run();
  const double run_end = now_ms();
  ctx_.spans.end_batch(root);
  // The simulator switches the global trace recorder on for its timeline;
  // switch it off so the next batch starts from a disarmed process.
  cwc::obs::TraceRecorder::global().disable();
  cwc::obs::TraceRecorder::global().clear();

  batch.wall_s = (run_end - run_start) / 1000.0;
  batch.makespan_s = result.makespan / 1000.0;
  batch.shipped_mb = result.shipped_kb / 1024.0;

  // Conservation, read from outside: every KB the scheduler placed either
  // completed or went back to the backlog (and was placed again).
  const double completed_kb = ctx_.builds.placed_kb - obs.counter("controller.rescheduled_kb") -
                              obs.counter("health.drained_kb");
  if (!result.completed || !simulation->controller().all_done()) {
    batch.error = "simulation did not complete";
  } else if (std::abs(completed_kb - input_kb_) > 1e-6 * input_kb_ + 1.0) {
    char why[160];
    std::snprintf(why, sizeof why, "completed %.1f KB of %.1f KB submitted", completed_kb,
                  input_kb_);
    batch.error = why;
  }
  outcomes_.emplace(round % kRounds, std::make_pair(batch.makespan_s, batch.shipped_mb));

  if (traced && batch.error.empty()) {
    const Span run = ctx_.spans.find(root);
    const double self_ms = self_time_ms(run, ctx_.spans.children(root));
    const double wall_ms = run.end_ms - run.start_ms;
    auto& l = batch.layers;
    l["core.build.count"] = static_cast<double>(ctx_.builds.count);
    l["core.build.ms_sum"] = ctx_.builds.ms_sum;
    l["core.build.ms_max"] = ctx_.builds.ms_max;
    l["core.build.share"] = ctx_.builds.ms_sum / wall_ms;
    l["core.pod.lp_bounds_solved"] = obs.counter("scheduler.pod.lp_bounds_solved");
    l["core.pod.rebalanced_kb"] = obs.counter("scheduler.pod.rebalanced_kb");
    l["core.controller.instants"] = obs.counter("controller.scheduling_instants");
    l["core.controller.rescheduled_mb"] = obs.counter("controller.rescheduled_kb") / 1024.0;
    l["core.health.quarantines"] = obs.counter("health.quarantines");
    l["sim.self_ms"] = self_ms;
    l["sim.segments"] = static_cast<double>(result.timeline.size());

    // Accounting: the decorator must see every build the program counts,
    // and builds plus the simulator's own time must cover run().
    const char* counter = shape_.pods ? "scheduler.pod.builds" : "scheduler.builds";
    const auto [hist_count, hist_ms] =
        obs.histogram_count_sum(shape_.pods ? "scheduler.pod.build_ms" : "scheduler.build_ms");
    char why[200] = "";
    if (static_cast<double>(ctx_.builds.count) != obs.counter(counter) ||
        static_cast<double>(ctx_.builds.count) != hist_count) {
      std::snprintf(why, sizeof why, "%zu decorated builds, program counted %.0f", ctx_.builds.count,
                    obs.counter(counter));
    } else if (ctx_.builds.ms_sum < hist_ms - 0.01 ||
               ctx_.builds.ms_sum > hist_ms * 1.05 + static_cast<double>(ctx_.builds.count)) {
      std::snprintf(why, sizeof why, "core.build.ms_sum %.2f vs program's %.2f ms",
                    ctx_.builds.ms_sum, hist_ms);
    } else if (std::abs(ctx_.builds.ms_sum + self_ms - wall_ms) > 0.005 * wall_ms) {
      std::snprintf(why, sizeof why, "build %.2f + self %.2f != run %.2f ms", ctx_.builds.ms_sum,
                    self_ms, wall_ms);
    }
    batch.error = why;
  }
  batch.ok = batch.error.empty();
  return batch;
}

}  // namespace

std::unique_ptr<Workload> make_sim_workload(const std::string& name, std::uint64_t seed,
                                            Context& ctx) {
  if (name == "sim-fleet-flat") {
    return std::make_unique<SimWorkload>(name, seed, SimShape{512, 2048, false, 16, 240.0, true}, ctx);
  }
  if (name == "sim-fleet-pods") {
    return std::make_unique<SimWorkload>(name, seed, SimShape{4096, 16384, true, 32, 110.0, false}, ctx);
  }
  return nullptr;
}

}  // namespace perfbench
