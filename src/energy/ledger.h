// Energy ledger: per-server, per-category accounting of everything the
// simulated FEI system spends.  This is the "measured" side of Figs. 5/6 —
// the number the theoretical bound is compared against.
//
// Storage is LAZY at fleet scale: rows live in one flat double array that
// is allocated but never zero-filled up front (at N = 10^6 the eager
// zero-fill alone cost tens of milliseconds and 56 MB of committed pages
// per run).  A bitmap tracks which rows have been materialized; rows that
// were never charged directly share a single `baseline_` row, and a row's
// LOGICAL value is
//
//   logical(s, c) = touched(s) ? cells[s*7 + c] : baseline[c]
//
// charge() materializes the row on first touch by copying the baseline in
// (zero until someone calls charge_untouched), so per-cell addition order —
// and therefore every bit of every readable value — is identical to the
// eager dense ledger.  charge_untouched() is the O(1) bulk operation the
// fleet engines' lazy idle settlement folds with: one add to the baseline
// stands in for N_untouched identical row charges (0.0 + x == x bitwise).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "energy/power_model.h"

namespace eefei::energy {

enum class EnergyCategory : std::size_t {
  kDataCollection = 0,  // IoT uplink (e^I)
  kWaiting = 1,         // edge idle
  kDownload = 2,        // global model reception
  kTraining = 3,        // local epochs (e^P)
  kUpload = 4,          // local model transmission (e^U)
  kRetry = 5,           // failed transfer attempts later recovered
  kAborted = 6,         // work lost to link/server failures or deadlines
};

inline constexpr std::size_t kNumEnergyCategories = 7;

[[nodiscard]] constexpr const char* to_string(EnergyCategory c) {
  switch (c) {
    case EnergyCategory::kDataCollection:
      return "data_collection";
    case EnergyCategory::kWaiting:
      return "waiting";
    case EnergyCategory::kDownload:
      return "download";
    case EnergyCategory::kTraining:
      return "training";
    case EnergyCategory::kUpload:
      return "upload";
    case EnergyCategory::kRetry:
      return "retry";
    case EnergyCategory::kAborted:
      return "aborted";
  }
  return "?";
}

namespace detail {

/// std::allocator whose value-less construct() DEFAULT-initializes (i.e.
/// leaves trivials uninitialized) instead of value-initializing.  This is
/// what lets the ledger's cell vector size itself to N·7 doubles without
/// the O(N) zero-fill — untouched cells are never read (the bitmap gates
/// every access), so the indeterminate values never escape.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <class U>
  void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

}  // namespace detail

class EnergyLedger {
 public:
  explicit EnergyLedger(std::size_t num_servers);

  void charge(std::size_t server, EnergyCategory category, Joules amount);

  /// Adds `amount` to `category` of every row that has NOT been
  /// materialized (touched) yet, in O(1): the bulk form of the fleet
  /// engines' end-of-run idle fold.  Rows touched later inherit the
  /// accumulated baseline at materialization time.  NOTE: unlike charge()
  /// this does not feed the telemetry energy counters (it stands in for
  /// N_untouched identical charges, and only the caller knows N_untouched
  /// and whether counter fidelity is worth an O(N) loop) — callers that
  /// need the counters bitwise-exact add to them directly.
  void charge_untouched(EnergyCategory category, Joules amount);

  /// True once `server`'s row has been materialized by a direct charge or
  /// materialize (it no longer tracks the shared baseline).
  [[nodiscard]] bool touched(std::size_t server) const {
    return (touched_[server >> 6] >> (server & 63)) & 1u;
  }

  /// Forces materialization of `server`'s row at its current logical
  /// value.  Call before charge_untouched() for rows that must NOT receive
  /// the bulk charge despite having no direct charges yet.
  void materialize(std::size_t server);

  [[nodiscard]] std::size_t num_servers() const { return num_servers_; }
  [[nodiscard]] Joules server_total(std::size_t server) const;
  [[nodiscard]] Joules category_total(EnergyCategory category) const;
  [[nodiscard]] Joules total() const;
  [[nodiscard]] Joules entry(std::size_t server,
                             EnergyCategory category) const;

  /// e^P + e^U + e^I — the subset of the total the paper's Eq. 12 models
  /// (waiting/download overheads are outside the analytical model).
  [[nodiscard]] Joules modeled_total() const;

  void merge(const EnergyLedger& other);
  void reset();

  [[nodiscard]] std::string render() const;

 private:
  /// Returns the materialized row, folding the baseline in on first touch.
  double* row_for(std::size_t server);
  [[nodiscard]] const double* cells(std::size_t server) const {
    return cells_.data() + server * kNumEnergyCategories;
  }
  [[nodiscard]] double logical(std::size_t server, std::size_t c) const {
    return touched(server) ? cells(server)[c] : baseline_[c];
  }

  std::size_t num_servers_ = 0;
  // Flat row-major [server][category] cells; allocated uninitialized (see
  // DefaultInitAllocator) and written row-at-a-time on first touch.
  std::vector<double, detail::DefaultInitAllocator<double>> cells_;
  std::vector<std::uint64_t> touched_;  // 1 bit per server
  std::array<double, kNumEnergyCategories> baseline_{};
};

}  // namespace eefei::energy
