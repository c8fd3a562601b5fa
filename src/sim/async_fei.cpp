#include "sim/async_fei.h"

#include <cmath>
#include <string>
#include <utility>

#include "sim/event_fleet.h"

namespace eefei::sim {

std::optional<std::size_t> AsyncRunResult::updates_to_accuracy(
    double target) const {
  for (const auto& u : updates) {
    if (u.test_accuracy >= target && u.test_accuracy > 0.0) {
      return u.update + 1;
    }
  }
  return std::nullopt;
}

namespace {

Status validate(const AsyncFeiConfig& config) {
  const FeiSystemConfig& base = config.base;
  // Negated comparisons so NaN fails them: a NaN α makes ω NaN, and a
  // negative or non-finite exponent makes α_s grow with staleness.  The
  // knobs after the worker count are ones async does not model: each would
  // be silently ignored.
  const std::pair<bool, const char*> rejected[] = {
      {!(config.mixing_alpha > 0.0 && config.mixing_alpha <= 1.0),
       "mixing_alpha must be in (0, 1]"},
      {!(std::isfinite(config.staleness_exponent) &&
         config.staleness_exponent >= 0.0),
       "staleness_exponent must be finite and >= 0"},
      {config.max_updates == 0, "max_updates must be >= 1"},
      {config.eval_every == 0, "eval_every must be >= 1"},
      {base.fl.clients_per_round == 0 || base.num_servers == 0,
       "need at least one worker"},
      {base.upload_quant_bits != 0 && base.upload_quant_bits != 32,
       "upload_quant_bits is not supported"},
      {base.update_drop_probability != 0.0,
       "update_drop_probability is not supported"},
      {base.round_deadline.value() != 0.0, "round_deadline is not supported"},
      {base.crashes.enabled(), "crashes are not supported"},
      {base.net.link_faults.enabled(), "net.link_faults are not supported"},
      {base.iot_collection, "iot_collection is not supported"},
      {base.charge_idle_servers, "charge_idle_servers is not supported"},
      {base.fl.overselect != 0, "fl.overselect is not supported"},
      {base.fl.checkpoint_every != 0, "fl.checkpoint_every is not supported"},
  };
  for (const auto& [bad, what] : rejected) {
    if (bad) return Error::invalid_argument(std::string("async: ") + what);
  }
  return Status::success();
}

}  // namespace

AsyncFeiSystem::AsyncFeiSystem(AsyncFeiConfig config)
    : config_(std::move(config)),
      engine_(std::make_unique<EventFleetEngine>(
          prototype_preset(config_.base))) {}

AsyncFeiSystem::~AsyncFeiSystem() = default;

Result<AsyncRunResult> AsyncFeiSystem::run() {
  if (const auto st = validate(config_); !st.ok()) return st.error();
  AsyncRunResult result;
  auto run = engine_->simulate(&config_, &result);
  if (!run.ok()) return run.error();
  result.ledger = std::move(run->ledger);
  result.wall_clock = run->wall_clock;
  return result;
}

}  // namespace eefei::sim
