#include "data/synth_digits.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/serialize.h"

namespace eefei::data {
namespace {

TEST(SynthDigits, GeneratesRequestedCount) {
  SynthDigitsConfig cfg;
  cfg.image_side = 16;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate(100);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.feature_dim(), 256u);
  EXPECT_EQ(ds.num_classes(), 10u);
}

TEST(SynthDigits, PixelsInUnitRange) {
  SynthDigitsConfig cfg;
  cfg.image_side = 20;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate(50);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (const double p : ds.features(i)) {
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
    }
  }
}

TEST(SynthDigits, DeterministicForSameSeed) {
  SynthDigitsConfig cfg;
  cfg.image_side = 12;
  cfg.seed = 77;
  SynthDigits a(cfg), b(cfg);
  const Dataset da = a.generate(20);
  const Dataset db = b.generate(20);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da.label(i), db.label(i));
    const auto fa = da.features(i);
    const auto fb = db.features(i);
    for (std::size_t j = 0; j < fa.size(); ++j) {
      ASSERT_DOUBLE_EQ(fa[j], fb[j]);
    }
  }
}

TEST(SynthDigits, DifferentSeedsDiffer) {
  SynthDigitsConfig a_cfg, b_cfg;
  a_cfg.image_side = b_cfg.image_side = 12;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  SynthDigits a(a_cfg), b(b_cfg);
  const Dataset da = a.generate(5);
  const Dataset db = b.generate(5);
  bool any_diff = false;
  for (std::size_t i = 0; i < 5 && !any_diff; ++i) {
    const auto fa = da.features(i);
    const auto fb = db.features(i);
    for (std::size_t j = 0; j < fa.size(); ++j) {
      if (fa[j] != fb[j]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthDigits, GenerateClassProducesOnlyThatLabel) {
  SynthDigitsConfig cfg;
  cfg.image_side = 12;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate_class(30, 7);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(ds.label(i), 7);
  }
}

TEST(SynthDigits, LabelsRoughlyUniform) {
  SynthDigitsConfig cfg;
  cfg.image_side = 10;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate(3000);
  const auto hist = ds.class_histogram();
  for (const std::size_t c : hist) {
    EXPECT_NEAR(static_cast<double>(c), 300.0, 90.0);
  }
}

// Classes must be geometrically distinguishable: the mean intra-class
// distance should be clearly below the mean inter-class distance.
TEST(SynthDigits, ClassCentroidsSeparated) {
  SynthDigitsConfig cfg;
  cfg.image_side = 16;
  SynthDigits gen(cfg);
  const std::size_t per = 40;
  std::vector<std::vector<double>> centroids(10,
                                             std::vector<double>(256, 0.0));
  for (int c = 0; c < 10; ++c) {
    const Dataset ds = gen.generate_class(per, c);
    for (std::size_t i = 0; i < per; ++i) {
      const auto f = ds.features(i);
      for (std::size_t j = 0; j < f.size(); ++j) {
        centroids[static_cast<std::size_t>(c)][j] +=
            f[j] / static_cast<double>(per);
      }
    }
  }
  double min_inter = 1e18;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      double d = 0;
      for (std::size_t j = 0; j < 256; ++j) {
        const double diff = centroids[a][j] - centroids[b][j];
        d += diff * diff;
      }
      min_inter = std::min(min_inter, d);
    }
  }
  EXPECT_GT(min_inter, 1.0) << "two digit classes are nearly identical";
}

// The fleet workloads render 4×4 glyphs: still deterministic and in [0, 1].
TEST(SynthDigits, SideFourRenderIsDeterministicAndInUnitRange) {
  SynthDigitsConfig cfg;
  cfg.image_side = 4;
  cfg.seed = 9;
  SynthDigits a(cfg), b(cfg);
  const Dataset da = a.generate(200);
  const Dataset db = b.generate(200);
  ASSERT_EQ(da.feature_dim(), 16u);
  EXPECT_TRUE(std::ranges::equal(da.all_labels(), db.all_labels()));
  EXPECT_TRUE(std::ranges::equal(da.all_features(), db.all_features()));
  for (const double p : da.all_features()) {
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
  }
}

// The exact bytes the renderer produces, recorded before the raster was
// restructured to loop over each segment's bounding box.  Every fleet,
// system and bench golden downstream rests on these.
TEST(SynthDigits, RenderBytesPinned) {
  struct Pin {
    std::size_t side;
    std::uint64_t seed;
    std::uint32_t features_crc;
    std::uint32_t labels_crc;
  };
  const Pin pins[] = {
      {4, 1, 2525024282u, 1320096885u},
      {4, 42, 75031903u, 2153985424u},
      {4, 1000020, 2486602323u, 1748910535u},
      {12, 1, 4264777337u, 742634694u},
      {12, 42, 1824712280u, 3057870904u},
      {12, 1000020, 1919615133u, 745855536u},
      {28, 1, 405866432u, 1506570461u},
      {28, 42, 411598333u, 795134656u},
      {28, 1000020, 1809798909u, 1524635519u},
  };
  const auto crc = [](auto values) {
    return ml::crc32({reinterpret_cast<const std::uint8_t*>(values.data()),
                      values.size_bytes()});
  };
  for (const Pin& pin : pins) {
    SynthDigitsConfig cfg;
    cfg.image_side = pin.side;
    cfg.seed = pin.seed;
    SynthDigits gen(cfg);
    const Dataset ds = gen.generate(500);
    EXPECT_EQ(crc(ds.all_features()), pin.features_crc)
        << "side " << pin.side << " seed " << pin.seed;
    EXPECT_EQ(crc(ds.all_labels()), pin.labels_crc)
        << "side " << pin.side << " seed " << pin.seed;
  }
}

TEST(AsciiArt, ShapeAndRamp) {
  std::vector<double> img(16, 0.0);
  img[0] = 1.0;
  img[5] = 0.5;
  const std::string art = ascii_art(img, 4);
  // 4 rows of 4 chars + newlines.
  EXPECT_EQ(art.size(), 20u);
  EXPECT_EQ(art[0], '@');   // full intensity
  EXPECT_EQ(art[4], '\n');
  EXPECT_EQ(art.back(), '\n');
}

}  // namespace
}  // namespace eefei::data
