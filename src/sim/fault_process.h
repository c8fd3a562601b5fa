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
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
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
  struct ServerTimeline {
    Rng rng{0};
    std::vector<std::pair<Seconds, Seconds>> downs;  // [start, end)
    Seconds horizon{0.0};  // timeline is materialized up to here
  };

  /// `server`'s timeline materialized up to `until`, built from its seed
  /// on first use.
  ServerTimeline& extend(std::size_t server, Seconds until);

  CrashProcessConfig config_;
  std::vector<std::uint64_t> seeds_;  // empty when the process is disabled
  std::unordered_map<std::size_t, ServerTimeline> timelines_;
};

}  // namespace eefei::sim
