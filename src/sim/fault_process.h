// Server crash/reboot process: each edge server alternates exponentially
// distributed up intervals (mean MTBF) and down intervals (mean MTTR),
// independently per server, deterministically per seed.  The FEI simulation
// consults it to decide whether a selected server is available at round
// start and whether it crashes mid-phase (losing the work in progress).
//
// A fleet queries only the servers it selects, so the process keeps one
// 8-byte seed per server (drawn up front, in server order, from the root
// stream) and builds a server's timeline on its first query.  A timeline
// depends only on its seed, so answers do not depend on query order.
// Timelines live in flat arrays that only grow — one slot per queried
// server, one linked down interval per crash — so a query allocates
// nothing beyond their amortized growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace eefei::sim {

struct CrashProcessConfig {
  /// Mean up-time between failures.  0 disables the process entirely.
  Seconds mtbf{0.0};
  /// Mean reboot (repair) time after a crash.
  Seconds mttr{Seconds{30.0}};
  std::uint64_t seed = 4242;

  [[nodiscard]] bool enabled() const { return mtbf.value() > 0.0; }
};

class CrashProcess {
 public:
  CrashProcess(std::size_t num_servers, CrashProcessConfig config);

  /// True if `server` is down (crashed, rebooting) at time `at`.
  [[nodiscard]] bool is_down(std::size_t server, Seconds at);

  /// First crash time strictly inside [from, to), if any.
  [[nodiscard]] std::optional<Seconds> next_crash_in(std::size_t server,
                                                     Seconds from, Seconds to);

  /// Crash intervals generated so far whose start precedes `before`.
  [[nodiscard]] std::size_t crashes_before(Seconds before) const;

  [[nodiscard]] bool enabled() const { return config_.enabled(); }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Down interval [start, end) and the index of its server's next one.
  struct Down {
    Seconds start{0.0};
    Seconds end{0.0};
    std::uint32_t next = kNone;
  };
  struct Timeline {
    Rng rng{0};
    Seconds horizon{0.0};  // materialized up to here
    std::uint32_t first = kNone;
    std::uint32_t last = kNone;
  };

  /// `server`'s timeline materialized up to `until`, built from its seed
  /// on first use; returns the index of its first down interval.
  std::uint32_t extend(std::size_t server, Seconds until);

  CrashProcessConfig config_;
  /// Per server: its seed until its first query, then the index of its
  /// timeline (`built_` tells which).  Empty when the process is disabled.
  std::vector<std::uint64_t> seeds_;
  std::vector<bool> built_;
  std::vector<Timeline> timelines_;
  std::vector<Down> downs_;  // every server's intervals, in creation order
};

}  // namespace eefei::sim
