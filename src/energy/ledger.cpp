#include "energy/ledger.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/table.h"
#include "obs/telemetry.h"

namespace eefei::energy {

namespace {

// "energy.joules.<category>" counter names, built once.  The metric totals
// track every charge() since telemetry was installed, so after a traced run
// metrics.counter_value("energy.joules.training") equals
// category_total(kTraining) (the observability tests pin this on faulty and
// async runs).
const std::string& category_counter_name(EnergyCategory category) {
  static const std::array<std::string, kNumEnergyCategories> names = [] {
    std::array<std::string, kNumEnergyCategories> out;
    for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
      out[c] = std::string("energy.joules.") +
               to_string(static_cast<EnergyCategory>(c));
    }
    return out;
  }();
  return names[static_cast<std::size_t>(category)];
}

// charge() runs once per ledger row — at fleet scale that is millions of
// calls per run, so the registry's name lookup (mutex + map) cannot sit on
// this path.  Each thread caches the seven Counter pointers, keyed on the
// registry's never-reused id: a new Telemetry (new registry id) invalidates
// the cache, and registry-owned counters have stable addresses for the
// registry's lifetime, so a hit is just an indexed load.
obs::Counter& category_counter(obs::MetricsRegistry& metrics,
                               EnergyCategory category) {
  struct Cache {
    std::uint64_t registry_id = 0;
    std::array<obs::Counter*, kNumEnergyCategories> counters{};
  };
  thread_local Cache cache;
  if (cache.registry_id != metrics.id()) {
    for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
      cache.counters[c] = &metrics.counter(
          category_counter_name(static_cast<EnergyCategory>(c)));
    }
    cache.registry_id = metrics.id();
  }
  return *cache.counters[static_cast<std::size_t>(category)];
}

}  // namespace

EnergyLedger::EnergyLedger(std::size_t num_servers)
    : num_servers_(num_servers),
      cells_(num_servers * kNumEnergyCategories),  // uninitialized cells
      touched_((num_servers + 63) / 64, 0) {
  assert(num_servers > 0);
}

double* EnergyLedger::row_for(std::size_t server) {
  assert(server < num_servers_);
  std::uint64_t& word = touched_[server >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (server & 63);
  double* r = cells_.data() + server * kNumEnergyCategories;
  if ((word & bit) == 0) {
    word |= bit;
    for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
      r[c] = baseline_[c];
    }
  }
  return r;
}

void EnergyLedger::materialize(std::size_t server) { (void)row_for(server); }

void EnergyLedger::charge(std::size_t server, EnergyCategory category,
                          Joules amount) {
  assert(amount.value() >= 0.0);
  row_for(server)[static_cast<std::size_t>(category)] += amount.value();
  if (obs::Telemetry* t = obs::telemetry()) {
    category_counter(t->metrics, category).add(amount.value());
  }
}

void EnergyLedger::charge_untouched(EnergyCategory category, Joules amount) {
  assert(amount.value() >= 0.0);
  baseline_[static_cast<std::size_t>(category)] += amount.value();
}

Joules EnergyLedger::server_total(std::size_t server) const {
  assert(server < num_servers_);
  double total = 0.0;
  if (touched(server)) {
    const double* r = cells(server);
    for (std::size_t c = 0; c < kNumEnergyCategories; ++c) total += r[c];
  } else {
    for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
      total += baseline_[c];
    }
  }
  return Joules{total};
}

Joules EnergyLedger::category_total(EnergyCategory category) const {
  const std::size_t c = static_cast<std::size_t>(category);
  double total = 0.0;
  for (std::size_t s = 0; s < num_servers_; ++s) total += logical(s, c);
  return Joules{total};
}

Joules EnergyLedger::total() const {
  Joules total{0.0};
  for (std::size_t s = 0; s < num_servers_; ++s) {
    total += server_total(s);
  }
  return total;
}

Joules EnergyLedger::entry(std::size_t server, EnergyCategory category) const {
  assert(server < num_servers_);
  return Joules{logical(server, static_cast<std::size_t>(category))};
}

Joules EnergyLedger::modeled_total() const {
  return category_total(EnergyCategory::kDataCollection) +
         category_total(EnergyCategory::kTraining) +
         category_total(EnergyCategory::kUpload);
}

void EnergyLedger::merge(const EnergyLedger& other) {
  assert(num_servers_ == other.num_servers_);
  // Rows touched on either side materialize here (against OUR pre-merge
  // baseline) and absorb the other side's logical row; rows untouched on
  // both sides merge implicitly through the baseline sum below.  Same
  // per-cell additions as the dense ledger's row-wise merge, bit for bit.
  for (std::size_t w = 0; w < touched_.size(); ++w) {
    std::uint64_t any = touched_[w] | other.touched_[w];
    while (any != 0) {
      const std::size_t s =
          w * 64 + static_cast<std::size_t>(std::countr_zero(any));
      any &= any - 1;
      double* r = row_for(s);
      if (other.touched(s)) {
        const double* o = other.cells(s);
        for (std::size_t c = 0; c < kNumEnergyCategories; ++c) r[c] += o[c];
      } else {
        for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
          r[c] += other.baseline_[c];
        }
      }
    }
  }
  for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
    baseline_[c] += other.baseline_[c];
  }
}

void EnergyLedger::reset() {
  std::fill(touched_.begin(), touched_.end(), 0);
  baseline_.fill(0.0);
}

std::string EnergyLedger::render() const {
  std::vector<std::string> header{"server"};
  for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
    header.emplace_back(to_string(static_cast<EnergyCategory>(c)));
  }
  header.emplace_back("total_J");
  AsciiTable table(std::move(header));
  for (std::size_t s = 0; s < num_servers_; ++s) {
    std::vector<std::string> row{std::to_string(s)};
    for (std::size_t c = 0; c < kNumEnergyCategories; ++c) {
      row.push_back(format_double(logical(s, c), 5));
    }
    row.push_back(format_double(server_total(s).value(), 6));
    table.add_row(std::move(row));
  }
  return table.render();
}

}  // namespace eefei::energy
