// cwc_perfbench: runs one benchmark workload for a fixed time as a closed
// loop (one batch in flight; the next starts when it completes), checks
// every output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The last line of stdout is
// the JSON result; everything above it is a human-readable report.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// A run must end within 180 s; a batch that hangs can add the server's
// 60 s run() timeout on top of this.
constexpr double kHardStopSeconds = 100.0;
// Back-to-back set-up sampling (see below) lasts this long.
constexpr double kSetupSamplingMs = 300.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/run";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Per-layer metrics in report order (and their units); every traced run
/// reports all of them, 0 where the workload bypasses the layer.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"core.build.count", "count"},
      {"core.build.ms_sum", "ms"},
      {"core.build.ms_max", "ms"},
      {"core.build.share", "fraction"},
      {"core.pod.lp_bounds_solved", "count"},
      {"core.pod.rebalanced_kb", "KB"},
      {"core.controller.instants", "count"},
      {"core.controller.rescheduled_mb", "MB"},
      {"core.health.quarantines", "count"},
      {"tasks.step.calls", "count"},
      {"tasks.step.ms_sum", "ms"},
      {"tasks.step.mb_s", "MB/s"},
      {"tasks.aggregate.ms_sum", "ms"},
      {"net.agent.cpu_ms", "ms"},
      {"net.agent.idle_frac", "fraction"},
      {"net.agent.replayed", "count"},
      {"net.server.cpu_ms", "ms"},
      {"net.server.busy_frac", "fraction"},
      {"net.server.submit.ms_per_mb", "ms/MB"},
      {"net.server.bytes_per_input_mb", "B/MB"},
      {"net.server.frames_sent", "count"},
      {"net.server.assign_report_ms.p50", "ms"},
      {"net.server.assign_report_ms.p99", "ms"},
      {"net.server.assign_retries", "count"},
      {"net.server.stale_reports", "count"},
      {"net.loop.lag_ms.p50", "ms"},
      {"net.loop.lag_ms.p99", "ms"},
      {"net.loop.wakeups", "count"},
      {"net.journal.append_ms.p50", "ms"},
      {"net.journal.append_ms.p99", "ms"},
      {"net.journal.bytes_per_input_mb", "B/MB"},
      {"common.chunk.hit_ratio", "fraction"},
      {"common.chunk.refetch_kb", "KB"},
      {"sim.self_ms", "ms"},
      {"sim.segments", "count"},
      {"bench.trace_overhead_frac", "fraction"},
  };
  return units;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: cwc_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--scratch DIR]\n");
    return 2;
  }
  cwc::set_log_level(cwc::LogLevel::kError);
  // glibc raises its mmap and trim thresholds as large blocks are freed, so
  // whether a multi-MB block is served from the heap depends on allocation
  // history, and peak RSS flips between modes from run to run. Pin both
  // where that adjustment ends up (32 MB, the mmap threshold's ceiling, and
  // twice that for trimming), so every run starts in the steady state.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 64 << 20);

  Context ctx;
  ctx.cpus = available_cpus();
  ctx.agents = std::clamp(ctx.cpus - 1, 1, 3);
  ctx.parallel_pods = static_cast<std::size_t>(std::max(1, ctx.cpus - 1));
  ctx.scratch_dir = args.scratch;
  std::filesystem::create_directories(ctx.scratch_dir);

  std::unique_ptr<Workload> workload = make_live_workload(args.workload, args.seed, ctx);
  const bool live = workload != nullptr;
  if (!live) workload = make_sim_workload(args.workload, args.seed, ctx);
  if (!workload) {
    std::fprintf(stderr, "cwc_perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  workload->prepare();
  std::printf("workload   %s (seed %llu): %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), workload->describe().c_str());
  std::printf("host       nproc=%d compiler=%s build=%s agents=%d parallel_pods=%zu\n", ctx.cpus,
              CWC_PERFBENCH_COMPILER, CWC_PERFBENCH_BUILD_TYPE, live ? ctx.agents : 0,
              live ? std::size_t{0} : ctx.parallel_pods);
  std::fflush(stdout);

  // Set-up samples taken back to back for a fixed time, so the median
  // neither rests on the few batches a slow workload fits into a run nor on
  // the first, cold few; workloads without them sample set-up per batch.
  std::vector<double> setups;
  const double sampling_start = now_ms();
  while (now_ms() - sampling_start < kSetupSamplingMs) {
    const std::optional<double> sample = workload->setup_only();
    if (!sample) break;
    setups.push_back(*sample);
  }

  // Closed loop for --seconds, ending on a whole cycle of rounds. A traced
  // run follows each round's untraced batch with a traced one, so the
  // tracing overhead is measured within one process on the same inputs.
  std::vector<Batch> batches;
  std::size_t failed = 0;
  const double start = now_ms();
  const std::size_t per_round = args.trace ? 2 : 1;
  const std::size_t cycle = per_round * static_cast<std::size_t>(workload->rounds());
  for (std::size_t i = 0;; ++i) {
    const double elapsed = (now_ms() - start) / 1000.0;
    const bool whole = batches.size() >= std::max<std::size_t>(cycle, 2) && i % cycle == 0;
    if ((elapsed >= args.seconds && whole) || elapsed >= kHardStopSeconds) break;
    Batch batch;
    const std::string armed = armed_globals();
    if (!armed.empty()) {
      batch.error = "armed between batches:" + armed;
    } else {
      reset_peak_rss();
      batch = workload->run_batch(args.trace && i % 2 == 1, static_cast<int>(i / per_round));
      batch.peak_rss_mb = peak_rss_mb();
    }
    if (!batch.ok) {
      ++failed;
      std::fprintf(stderr, "batch %zu failed: %s\n", i, batch.error.c_str());
    }
    batches.push_back(std::move(batch));
  }

  const bool setup_only = !setups.empty();
  std::vector<double> walls, traced_walls, makespans, shipped, rss, ingests;
  double input_mb = 0.0, wall_total = 0.0;
  std::map<std::string, std::vector<double>> layers;
  for (const Batch& b : batches) {
    if (!b.ok) continue;
    if (b.traced) {
      traced_walls.push_back(b.wall_s);
      for (const auto& [name, value] : b.layers) layers[name].push_back(value);
      continue;
    }
    if (!setup_only) setups.push_back(b.setup_s);
    walls.push_back(b.wall_s);
    makespans.push_back(b.makespan_s);
    shipped.push_back(b.shipped_mb);
    rss.push_back(b.peak_rss_mb);
    input_mb += b.input_mb;
    wall_total += b.wall_s;
    ingests.push_back(b.input_mb / b.submit_s);
  }

  std::string problem = workload->final_check();
  const int thread_budget = std::max(ctx.cpus, 2);
  const int connections = std::max(0, (ctx.guard.peak_sockets - 1) / 2);
  if (ctx.guard.peak_threads > thread_budget || connections > ctx.cpus) {
    problem += " resource budget exceeded (" + std::to_string(ctx.guard.peak_threads) +
               " threads, " + std::to_string(connections) + " agent connections)";
  }
  if (!live && ctx.parallel_pods + 1 > static_cast<std::size_t>(thread_budget)) {
    problem += " parallel_pods exceeds the thread budget";
  }
  const bool correct = failed == 0 && problem.empty() && !walls.empty() &&
                       (!args.trace || !traced_walls.empty());
  if (!problem.empty()) std::fprintf(stderr, "cwc_perfbench:%s\n", problem.c_str());

  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(setups)},
      {"batch_wall_s", "s", median(walls)},
      {"input_mb_s", "MB/s", wall_total > 0.0 ? input_mb / wall_total : 0.0},
      {"makespan_s", "s", median(makespans)},
      {"shipped_mb", "MB", median(shipped)},
      {"peak_rss_mb", "MB", median(rss)},
  };
  std::printf("batches    %zu attempted, %zu failed, %zu traced; peak %d threads, %d agent "
              "connections\n",
              batches.size(), failed, traced_walls.size(), ctx.guard.peak_threads, connections);
  std::printf("batch_wall");
  for (const Batch& b : batches) std::printf(" %.4f%s", b.wall_s, b.traced ? "t" : "");
  std::printf("\nend-to-end (medians over %zu untraced batches, %zu set-ups)\n", walls.size(),
              setups.size());
  for (const Metric& m : end_to_end) {
    std::printf("  %-16s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Not in the JSON result: ingest means bytes only on the live workloads
  // (the simulator's submit() takes sizes), and error_rate is the result's
  // failed / attempted.
  std::printf("  %-16s %14.6f %s\n", "ingest_mb_s", median(ingests), "MB/s");
  std::printf("  %-16s %14.6f %s\n", "error_rate",
              batches.empty() ? 1.0 : static_cast<double>(failed) / batches.size(), "fraction");

  if (!args.trace) {
    print_json(correct, batches.size(), failed, end_to_end);
    return 0;
  }

  std::vector<Metric> per_layer;
  for (const auto& [name, unit] : layer_units()) {
    const auto it = layers.find(name);
    per_layer.push_back({name, unit, it == layers.end() ? 0.0 : median(it->second)});
  }
  const double untraced = median(walls);
  per_layer.back().value = untraced > 0.0 ? median(traced_walls) / untraced - 1.0 : 0.0;
  std::printf("per-layer (medians over %zu traced batches)\n", traced_walls.size());
  for (const Metric& m : per_layer) {
    std::printf("  %-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string spans_path =
      ctx.scratch_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  if (ctx.spans.write_json(spans_path)) std::printf("spans      %s\n", spans_path.c_str());
  print_json(correct, batches.size(), failed, per_layer);
  return 0;
}
