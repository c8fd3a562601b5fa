// Output checks and failure counting for the fleet benchmark.
//
// Every op (one EventFleetEngine::run()) is reduced to an OpOutput, then
// checked against what the op must produce: energy conservation across
// ledger categories, bit-identity with the first op of the same point (and,
// on the default seed, with the reference recorded in workloads.h), the
// paper grid's accuracy target, and the round count a fixed-round op must
// run.  A failed check counts the op as failed; it never aborts the run.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "energy/ledger.h"

namespace fleetbench {

/// FNV-1a over the raw bytes of a parameter vector: equal hashes mean
/// (with overwhelming probability) bit-identical parameters.
inline std::uint64_t hash_params(std::span<const double> params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : params) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct OpOutput {
  bool ran = false;     // run() returned a result
  std::string error;    // run()'s error when !ran
  double ledger_total = 0.0;
  std::array<double, eefei::energy::kNumEnergyCategories> categories{};
  std::uint64_t params_hash = 0;
  std::size_t rounds_run = 0;
  bool reached_target = false;
};

inline OpOutput summarize(const eefei::energy::EnergyLedger& ledger,
                          std::span<const double> final_params,
                          std::size_t rounds_run, bool reached_target) {
  OpOutput out;
  out.ran = true;
  out.ledger_total = ledger.total().value();
  for (std::size_t c = 0; c < out.categories.size(); ++c) {
    out.categories[c] =
        ledger.category_total(static_cast<eefei::energy::EnergyCategory>(c))
            .value();
  }
  out.params_hash = hash_params(final_params);
  out.rounds_run = rounds_run;
  out.reached_target = reached_target;
  return out;
}

/// Recorded bits of one point's output on the default seed.
struct Reference {
  double ledger_total = 0.0;
  std::uint64_t params_hash = 0;
};

struct OpExpect {
  bool need_target = false;          // paper grid: must reach ε
  std::size_t rounds = 0;            // fixed-round op: exact T (0 = any)
  std::optional<Reference> first;    // first op of this point
  std::optional<Reference> recorded; // default-seed reference
};

/// Returns "" when `out` passes every check, else the first failed check.
inline std::string check_op(const OpOutput& out, const OpExpect& expect) {
  if (!out.ran) return "run failed: " + out.error;
  double sum = 0.0;
  for (const double c : out.categories) sum += c;
  // total() sums per server and category_total() per category, so the two
  // orders may differ in the last bits; anything beyond that is a leak.
  if (!(std::abs(out.ledger_total - sum) <=
        1e-9 * std::max(1.0, std::abs(out.ledger_total)))) {
    return "ledger total != sum of categories";
  }
  if (!(out.ledger_total > 0.0)) return "ledger total is not positive";
  if (expect.need_target && !out.reached_target) return "target not reached";
  if (expect.rounds != 0 && out.rounds_run != expect.rounds) {
    return "ran " + std::to_string(out.rounds_run) + " rounds, expected " +
           std::to_string(expect.rounds);
  }
  for (const auto* ref : {&expect.first, &expect.recorded}) {
    if (!ref->has_value()) continue;
    const char* what = ref == &expect.first ? "first op" : "recorded reference";
    if (out.ledger_total != (*ref)->ledger_total) {
      return std::string("ledger total differs from ") + what;
    }
    if (out.params_hash != (*ref)->params_hash) {
      return std::string("final_params differ from ") + what;
    }
  }
  return "";
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for stderr

  /// Counts one op; returns true when it passed.
  bool record(const OpOutput& out, const OpExpect& expect,
              const std::string& label) {
    const std::string why = check_op(out, expect);
    return record_check(why.empty(), label + ": " + why);
  }

  /// Counts a check that is not tied to one op output (e.g. a twin
  /// comparison); `ok` false marks it failed.
  bool record_check(bool ok, const std::string& label) {
    ++attempted;
    if (ok) return true;
    ++failed;
    if (failures.size() < 8) failures.push_back(label);
    return false;
  }
};

}  // namespace fleetbench
