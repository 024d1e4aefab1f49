// Self-test of the benchmark's percentile and sample-count helper.
// paperbench/run.py runs it after every build and refuses to benchmark
// when it fails. Exit 0 = pass.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  // Descending, so the helper has to sort.
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int main() {
  using paperbench::PercentileOf;

  // 1..100: p90 sits between 90 and 91 (prctile breakpoints at (i-0.5)/n)
  // and exactly ten samples lie above it.
  const auto p90 = PercentileOf(Range(100), 0.9);
  Expect(std::fabs(p90.value - 90.5) < 1e-12, "p90 of 1..100 is 90.5");
  Expect(p90.samples == 100, "p90 of 1..100 counts 100 samples");
  Expect(p90.beyond == 10, "ten samples beyond p90 of 1..100");
  Expect(p90.reportable(), "p90 of 100 samples is reportable");

  // 1..90: nine samples beyond p90, one short of the reporting rule.
  const auto short_p90 = PercentileOf(Range(90), 0.9);
  Expect(short_p90.beyond == 9, "nine samples beyond p90 of 1..90");
  Expect(!short_p90.reportable(), "p90 of 90 samples is not reportable");

  // Median interpolates between the middle pair.
  Expect(std::fabs(paperbench::Median(Range(4)) - 2.5) < 1e-12,
         "median of 1..4 is 2.5");
  const auto p50 = PercentileOf(Range(21), 0.5);
  Expect(p50.value == 11.0 && p50.beyond == 10, "median of 1..21");

  // Ties: nothing lies strictly above a constant sample.
  const auto flat = PercentileOf(std::vector<double>(200, 5.0), 0.9);
  Expect(flat.value == 5.0 && flat.beyond == 0 && !flat.reportable(),
         "constant samples have no tail");

  const auto empty = PercentileOf({}, 0.5);
  Expect(empty.samples == 0 && !empty.reportable(), "empty is unreportable");

  if (failures == 0) std::printf("paperbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
