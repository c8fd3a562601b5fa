// Synthetic hand-written-digit generator — the MNIST substitute (see
// DESIGN.md).  Ten stroke-based glyph prototypes are rasterized onto a
// 28×28 grid with per-sample geometric jitter (translation, rotation,
// scale, stroke thickness) and pixel-level noise (Gaussian noise, dropout).
//
// The generator is deterministic given a seed, produces arbitrarily many
// examples, and is tuned so multinomial logistic regression converges to
// the ~0.9 accuracy plateau the paper's Fig. 4 revolves around.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace eefei::data {

struct SynthDigitsConfig {
  std::size_t image_side = 28;        // 28×28 grayscale, like MNIST
  double pixel_noise_stddev = 0.18;   // additive Gaussian per pixel
  double dropout_prob = 0.08;         // probability a lit pixel goes dark
  double max_translation = 2.5;       // pixels at the 28×28 reference
  double max_rotation_rad = 0.18;     // ~10 degrees
  double scale_jitter = 0.12;         // ± relative scale
  double thickness_mean = 1.3;        // stroke half-width (28×28 reference)
  double thickness_jitter = 0.35;
  std::uint64_t seed = 42;

  [[nodiscard]] std::size_t feature_dim() const {
    return image_side * image_side;
  }
  bool operator==(const SynthDigitsConfig&) const = default;
};

class SynthDigits {
 public:
  static constexpr std::size_t kNumClasses = 10;

  explicit SynthDigits(SynthDigitsConfig config = {});

  /// Generates `n` examples with labels drawn uniformly over the classes.
  [[nodiscard]] Dataset generate(std::size_t n);

  /// Generates `n` examples of a single class (used by non-IID fixtures).
  [[nodiscard]] Dataset generate_class(std::size_t n, int label);

  /// Renders a single sample of `label` into `out` (image_side² floats in
  /// [0,1]).  Exposed for tests and the quickstart's ASCII-art demo.
  void render(int label, std::span<double> out);

  [[nodiscard]] const SynthDigitsConfig& config() const { return config_; }

 private:
  SynthDigitsConfig config_;
  Rng rng_;
  std::vector<double> dist2_;  // render scratch: squared distance per pixel
};

/// Renders an image as ASCII art (for the quickstart example).
[[nodiscard]] std::string ascii_art(std::span<const double> image,
                                    std::size_t side);

}  // namespace eefei::data
