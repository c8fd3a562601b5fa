#include "sim/fault_process.h"

#include <algorithm>
#include <cassert>

namespace eefei::sim {

CrashProcess::CrashProcess(std::size_t num_servers, CrashProcessConfig config)
    : config_(config) {
  if (!config_.enabled()) return;
  // The seed of root.split(s), in server order as the streams were always
  // drawn; the 32-byte generator is only built on the server's first query.
  Rng root(config_.seed);
  seeds_.resize(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    seeds_[s] = root.split_seed(s);
  }
}

CrashProcess::ServerTimeline& CrashProcess::extend(std::size_t server,
                                                   Seconds until) {
  assert(server < seeds_.size());
  auto [it, first] = timelines_.try_emplace(server);
  auto& tl = it->second;
  if (first) tl.rng = Rng(seeds_[server]);
  const double up_rate = 1.0 / config_.mtbf.value();
  // A zero MTTR would make crashes invisible; floor the reboot at 1 ms.
  const double down_mean = std::max(config_.mttr.value(), 1e-3);
  while (tl.horizon <= until) {
    const Seconds up{tl.rng.exponential(up_rate)};
    const Seconds down{tl.rng.exponential(1.0 / down_mean)};
    const Seconds crash_at = tl.horizon + up;
    tl.downs.emplace_back(crash_at, crash_at + down);
    tl.horizon = crash_at + down;
  }
  return tl;
}

bool CrashProcess::is_down(std::size_t server, Seconds at) {
  if (!config_.enabled()) return false;
  for (const auto& [start, end] : extend(server, at).downs) {
    if (start > at) break;
    if (at < end) return true;
  }
  return false;
}

std::optional<Seconds> CrashProcess::next_crash_in(std::size_t server,
                                                   Seconds from, Seconds to) {
  if (!config_.enabled() || !(from < to)) return std::nullopt;
  for (const auto& [start, end] : extend(server, to).downs) {
    if (start >= to) break;
    if (start >= from) return start;
  }
  return std::nullopt;
}

std::size_t CrashProcess::crashes_before(Seconds before) const {
  std::size_t n = 0;
  for (const auto& [server, tl] : timelines_) {
    for (const auto& [start, end] : tl.downs) {
      if (start < before) ++n;
    }
  }
  return n;
}

}  // namespace eefei::sim
