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
  built_.assign(num_servers, false);
  for (std::size_t s = 0; s < num_servers; ++s) {
    seeds_[s] = root.split_seed(s);
  }
}

std::uint32_t CrashProcess::extend(std::size_t server, Seconds until) {
  assert(server < seeds_.size());
  if (!built_[server]) {
    built_[server] = true;
    timelines_.push_back({Rng(seeds_[server])});
    seeds_[server] = timelines_.size() - 1;
  }
  Timeline& tl = timelines_[seeds_[server]];
  const double up_rate = 1.0 / config_.mtbf.value();
  // A zero MTTR would make crashes invisible; floor the reboot at 1 ms.
  const double down_mean = std::max(config_.mttr.value(), 1e-3);
  while (tl.horizon <= until) {
    const Seconds up{tl.rng.exponential(up_rate)};
    const Seconds down{tl.rng.exponential(1.0 / down_mean)};
    const Seconds crash_at = tl.horizon + up;
    assert(downs_.size() < kNone);
    const auto index = static_cast<std::uint32_t>(downs_.size());
    downs_.push_back({crash_at, crash_at + down});
    if (tl.first == kNone) {
      tl.first = index;
    } else {
      downs_[tl.last].next = index;
    }
    tl.last = index;
    tl.horizon = crash_at + down;
  }
  return tl.first;
}

bool CrashProcess::is_down(std::size_t server, Seconds at) {
  if (!config_.enabled()) return false;
  for (std::uint32_t i = extend(server, at); i != kNone; i = downs_[i].next) {
    if (downs_[i].start > at) break;
    if (at < downs_[i].end) return true;
  }
  return false;
}

std::optional<Seconds> CrashProcess::next_crash_in(std::size_t server,
                                                   Seconds from, Seconds to) {
  if (!config_.enabled() || !(from < to)) return std::nullopt;
  for (std::uint32_t i = extend(server, to); i != kNone; i = downs_[i].next) {
    if (downs_[i].start >= to) break;
    if (downs_[i].start >= from) return downs_[i].start;
  }
  return std::nullopt;
}

std::size_t CrashProcess::crashes_before(Seconds before) const {
  return static_cast<std::size_t>(
      std::count_if(downs_.begin(), downs_.end(),
                    [&](const Down& d) { return d.start < before; }));
}

}  // namespace eefei::sim
