#include "sim/fei_system.h"

#include <algorithm>
#include <thread>

#include "ml/quantize.h"
#include "ml/serialize.h"
#include "sim/event_fleet.h"

namespace eefei::sim {

FeiSystemConfig prototype_config() {
  FeiSystemConfig cfg;
  cfg.num_servers = 20;
  cfg.samples_per_server = 3000;
  cfg.test_samples = 2000;
  cfg.model.input_dim = 784;
  cfg.model.num_classes = 10;
  cfg.sgd.learning_rate = 0.01;
  cfg.sgd.decay = 0.99;
  cfg.fl.clients_per_round = 10;
  cfg.fl.local_epochs = 40;
  cfg.fl.max_rounds = 500;
  // Train the selected servers and shard the test-set evaluation across all
  // cores by default — results are bit-identical to a serial run.
  cfg.fl.threads = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  cfg.net.num_edge_servers = cfg.num_servers;
  // 3.4 Mbps effective LAN throughput: a congested 2.4 GHz WiFi shared by
  // 20 stations; yields e^U ≈ 0.38 J per 31.4 kB model upload, the value
  // the optimizer defaults are calibrated against (DESIGN.md).
  cfg.net.lan.rate = BitsPerSecond::from_mbps(3.4);
  cfg.net.lan.base_latency = Seconds::from_millis(2.0);
  return cfg;
}

PopulationConfig population_config_for(const FeiSystemConfig& config) {
  PopulationConfig pop;
  pop.num_servers = config.num_servers;
  pop.samples_per_server = config.samples_per_server;
  pop.test_samples = config.test_samples;
  pop.data = config.data;
  pop.partition = config.partition;
  pop.dirichlet_alpha = config.dirichlet_alpha;
  pop.shards_per_client = config.shards_per_client;
  pop.model = config.model;
  pop.sgd = config.sgd;
  pop.net = config.net;
  pop.seed = config.seed;
  return pop;
}

FeiSystem::FeiSystem(FeiSystemConfig config)
    : engine_(std::make_unique<EventFleetEngine>(prototype_preset(config))) {}

FeiSystem::~FeiSystem() = default;

const FeiSystemConfig& FeiSystem::config() const {
  return engine_->config().system;
}

Status FeiSystem::prepare() { return engine_->prepare(); }

void FeiSystem::resume_from(fl::TrainingCheckpoint checkpoint) {
  engine_->resume_from(std::move(checkpoint));
}

const data::Dataset& FeiSystem::test_set() const {
  return engine_->population().test_set();
}

const net::Topology& FeiSystem::topology() const {
  return engine_->population().topology();
}

energy::FeiEnergyModel FeiSystem::energy_model() const {
  const FeiSystemConfig& cfg = config();
  energy::FeiEnergyModel model;
  model.samples_per_server = cfg.samples_per_server;
  model.training = energy::LocalTrainingModel::from_timing(
      cfg.timing, cfg.profile.power(energy::EdgeState::kTraining));

  const std::size_t param_count = cfg.model.parameter_count();
  const std::size_t blob_payload =
      ml::valid_quant_bits(cfg.upload_quant_bits)
          ? ml::quantized_wire_size(param_count, cfg.upload_quant_bits)
          : ml::wire_size(param_count);
  const Bytes blob{
      static_cast<double>(blob_payload + net::Message::kHeaderBytes)};
  model.upload = energy::UploadModel::from_link(
      blob, cfg.net.lan.rate, cfg.net.lan.base_latency,
      cfg.profile.power(energy::EdgeState::kUploading));

  if (cfg.iot_collection) {
    const net::NbIotChannel probe(cfg.net.device.uplink, Rng(0));
    model.collection.rho = probe.expected_energy(cfg.net.device.sample_bytes);
  } else {
    model.collection.rho = Joules{0.0};
  }
  return model;
}

Result<FeiRunResult> FeiSystem::run() {
  auto fleet = engine_->run();
  if (!fleet.ok()) return fleet.error();
  EventFleetRunResult& r = fleet.value();
  FeiRunResult result;
  result.training = std::move(r.training);
  result.ledger = std::move(r.ledger);
  // Every server is sampled, so sampled_servers is 0..N-1 in order.
  result.timelines = std::move(r.sampled_timelines);
  result.wall_clock = r.wall_clock;
  result.total_retries = r.total_retries;
  result.total_aborted_updates = r.total_aborted_updates;
  result.total_straggler_drops = r.total_straggler_drops;
  result.total_crashed_servers = r.total_crashed_servers;
  result.last_checkpoint = std::move(r.last_checkpoint);
  return result;
}

}  // namespace eefei::sim
