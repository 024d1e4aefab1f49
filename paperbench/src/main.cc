// Paper-shaped end-to-end benchmark of the itrim engine.
//
//   paperbench --workload <steady-mix|cold-churn|lockstep-fitted>
//              --seed <n> --seconds <s> --trace <0|1>
//
// Every tenant plays the paper's game shape (round_size 500, bootstrap 500,
// attack_ratio 0.1) with schemes cycling over the six plotted schemes.
// --trace 0 plays the named workload untraced and reports its end-to-end
// metrics. --trace 1 plays all three workloads at a third of the length
// each, alternating traced and untraced windows, adds the per-kind layer
// probes, and reports every per-layer metric; the spans and the per-layer
// metrics (each tagged with the end-to-end metric it should move) are
// written to .bench_build/paperbench/trace-<workload>-<seed>.json.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "stats.h"
#include "workloads.h"

namespace paperbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
      if (*end != '\0') args->seconds = 0;
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") == 0   ? 0
                    : std::strcmp(value, "1") == 0 ? 1
                                                   : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds >= 1 &&
         args->seconds <= 600 && args->trace >= 0 &&
         (args->workload == "steady-mix" || args->workload == "cold-churn" ||
          args->workload == "lockstep-fitted");
}

WorkloadReport RunWorkload(const std::string& name, const Fixture& fixture,
                           const RunOptions& options) {
  if (name == "steady-mix") return RunSteadyMix(fixture, options);
  if (name == "cold-churn") return RunColdChurn(fixture, options);
  return RunLockstepFitted(fixture, options);
}

// Human-readable account of one workload: the counts that must repeat
// exactly, the sample counts behind every median and percentile, and the
// wall-clock figures beside the CPU-time ones.
void PrintReport(const WorkloadReport& r) {
  const std::string verdict =
      r.error.empty() ? "outputs correct" : "FAIL: " + r.error;
  std::printf("%s: %s\n", r.workload.c_str(), verdict.c_str());
  std::printf("  operations: %llu attempted, %llu failed (%.4f%%)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted == 0 ? 0.0 : 100.0 * r.failed / r.attempted);
  std::printf(
      "  exact work: window rounds %llu, reports admitted %llu (= %llu "
      "rounds), cold trip rounds %llu, rehydrations %llu, rounds in all "
      "books %llu\n",
      static_cast<unsigned long long>(r.window_rounds),
      static_cast<unsigned long long>(r.reports_admitted),
      static_cast<unsigned long long>(r.reports_admitted / kRoundSize),
      static_cast<unsigned long long>(r.cold_trip_rounds),
      static_cast<unsigned long long>(r.rehydrations),
      static_cast<unsigned long long>(r.total_rounds));
  std::printf("  bytes/tenant: resident %.3f, hibernated %.3f\n",
              r.resident_bytes_per_tenant, r.hibernated_bytes_per_tenant);
  std::printf("  set-up (%zu reps): cpu median %.4f s, wall median %.4f s\n",
              r.setups.size(), Median(CpuUs(r.setups)) * 1e-6,
              Median(WallUs(r.setups)) * 1e-6);
  std::printf("  windows: %zu untraced, %zu traced; wall %.0f rounds/s, "
              "cpu %.3f us/round (medians)\n",
              r.windows.size(), r.traced_windows.size(),
              1e6 / Median(WallUs(r.windows)), Median(CpuUs(r.windows)));
  const std::vector<double> wall = WallUs(r.trips);
  const std::vector<double> cpu = CpuUs(r.trips);
  std::printf("  round trips: %zu samples", r.trips.size());
  for (double q : {0.5, 0.9}) {
    const Percentile w = PercentileOf(wall, q);
    const Percentile c = PercentileOf(cpu, q);
    std::printf("; p%.0f wall %.1f us, cpu %.1f us (%zu beyond)", q * 100,
                w.value, c.value, c.beyond);
  }
  std::printf("\n");
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

// End-to-end metrics of an untraced run, all on the process CPU clock
// (workloads.h says why); `error` is set when a percentile lacks the
// samples to be reported.
std::vector<Metric> EndToEnd(const WorkloadReport& r, std::string* error) {
  const std::vector<double> trips = CpuUs(r.trips);
  const Percentile p50 = PercentileOf(trips, 0.5);
  const Percentile p90 = PercentileOf(trips, 0.9);
  if (!p50.reportable() || !p90.reportable()) {
    *error = "too few round-trip samples beyond p90 (" +
             std::to_string(p90.beyond) + ")";
  }
  return {
      {"cpu_us_per_round", Median(CpuUs(r.windows)), "us", ""},
      {"setup_s", Median(CpuUs(r.setups)) * 1e-6, "s", ""},
      {"resident_bytes_per_tenant", r.resident_bytes_per_tenant, "B", ""},
      {"hibernated_bytes_per_tenant", r.hibernated_bytes_per_tenant, "B", ""},
      {"trip_cpu_p50_us", p50.value, "us", ""},
      {"trip_cpu_p90_us", p90.value, "us", ""},
  };
}

void WriteTraceFile(const Args& args, const std::vector<Metric>& layers,
                    const Trace& trace) {
  const std::string path = ".bench_build/paperbench/trace-" + args.workload +
                           "-" + std::to_string(args.seed) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "paperbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n \"layers\": [\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (size_t i = 0; i < layers.size(); ++i) {
    std::fprintf(f, "  {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                 "\"moves\": \"%s\"}%s\n",
                 layers[i].name.c_str(), JsonNumber(layers[i].value).c_str(),
                 layers[i].unit.c_str(), layers[i].moves.c_str(),
                 i + 1 < layers.size() ? "," : "");
  }
  const std::vector<Span>& spans = trace.spans();
  std::fprintf(f, " ],\n \"span_fields\": [\"name\", \"start_ns\", "
               "\"end_ns\", \"parent\", \"request\"],\n \"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "  [\"%s\", %lld, %lld, %lld, %llu]%s\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  std::fclose(f);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  using namespace paperbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: paperbench --workload "
                 "<steady-mix|cold-churn|lockstep-fitted> --seed <n> "
                 "--seconds <1..600> --trace <0|1>\n");
    return 2;
  }
  const Fixture fixture(args.seed);
  if (!WarmUp(fixture, 1.5)) {
    std::fprintf(stderr, "paperbench: warm-up fleet failed\n");
    return 1;
  }

  std::vector<WorkloadReport> reports;
  std::vector<Metric> metrics;
  std::string error;
  if (args.trace == 0) {
    RunOptions options;
    options.seconds = args.seconds;
    reports.push_back(RunWorkload(args.workload, fixture, options));
    if (reports.back().error.empty()) {
      metrics = EndToEnd(reports.back(), &error);
    }
  } else {
    Trace trace(1 << 20);
    RunOptions options;
    options.seconds = std::max(1, args.seconds / 3);
    options.trace = &trace;
    for (const char* name : {"steady-mix", "cold-churn", "lockstep-fitted"}) {
      reports.push_back(RunWorkload(name, fixture, options));
    }
    metrics = ProbeLayers(fixture, &error);
    for (const WorkloadReport& r : reports) {
      metrics.insert(metrics.end(), r.layers.begin(), r.layers.end());
    }
    WriteTraceFile(args, metrics, trace);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const WorkloadReport& r : reports) {
    PrintReport(r);
    attempted += r.attempted;
    failed += r.failed;
    if (error.empty() && !r.error.empty()) error = r.workload + ": " + r.error;
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value) && error.empty()) {
      error = m.name + " is not finite";
    }
    std::printf("  %-48s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = error.empty() && failed == 0;
  std::printf("verdict: %s%s\n", correct ? "PASS" : "FAIL: ", error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? MetricsJson(metrics).c_str() : "{}");
  return correct ? 0 : 1;
}
