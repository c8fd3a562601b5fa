// The paper's learning-rate schedule (§VI-A): initial rate 0.01, decayed
// by 0.99 per global round t and held constant across the E local epochs
// of that round, so every client in round t steps with
// learning_rate · decay^t (see fl::Coordinator and ml::ModelBank).
#pragma once

namespace eefei::ml {

struct SgdConfig {
  double learning_rate = 0.01;  // paper §VI-A
  double decay = 0.99;          // multiplicative per-round decay, §VI-A
};

}  // namespace eefei::ml
