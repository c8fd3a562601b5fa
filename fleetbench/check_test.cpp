// A perturbed op output must count as a failed op, and a failed op must not
// stop the ops after it from being counted.  Run: ctest --test-dir <build>.
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

fleetbench::OpOutput good_output() {
  fleetbench::OpOutput out;
  out.ran = true;
  out.categories = {0.0, 10.5, 1.25, 30.0, 2.0, 0.0, 0.0};
  for (const double c : out.categories) out.ledger_total += c;
  out.params_hash = 0x1234abcdULL;
  out.rounds_run = 20;
  return out;
}

}  // namespace

int main() {
  using fleetbench::OpExpect;
  using fleetbench::OpOutput;
  const OpOutput good = good_output();
  OpExpect e;
  e.rounds = 20;
  e.first = fleetbench::Reference{good.ledger_total, good.params_hash};
  e.recorded = e.first;

  fleetbench::Tally tally;
  expect(tally.record(good, e, "good"), "unperturbed output passes");

  OpOutput one_ulp = good;  // ledger total moved by one ulp
  one_ulp.ledger_total = std::nextafter(good.ledger_total, 1e300);
  one_ulp.categories[1] = std::nextafter(good.categories[1], 1e300);
  expect(!tally.record(one_ulp, e, "ulp"), "one-ulp energy drift fails");

  OpOutput params = good;
  params.params_hash ^= 1;
  expect(!tally.record(params, e, "params"), "changed final_params fail");

  OpOutput leak = good;  // a category no longer sums to the total
  leak.categories[3] += 0.5;
  expect(!tally.record(leak, e, "leak"), "ledger leak fails");

  OpOutput short_run = good;
  short_run.rounds_run = 19;
  expect(!tally.record(short_run, e, "rounds"), "wrong round count fails");

  OpOutput errored;
  errored.error = "injected";
  expect(!tally.record(errored, e, "error"), "run() error fails");

  OpExpect target = e;
  target.need_target = true;
  expect(!tally.record(good, target, "target"), "missed target fails");

  expect(tally.record(good, e, "good again"), "later good op still passes");
  expect(tally.attempted == 8, "every op is counted as attempted");
  expect(tally.failed == 6, "each perturbed op is counted as failed");
  expect(!tally.record_check(false, "twin"), "failed side check counts");
  expect(tally.failed == 7, "side check failure is counted");

  if (failures == 0) std::printf("check_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
