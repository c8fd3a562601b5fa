#include "ml/serialize.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace eefei::ml {
namespace {

TEST(Serialize, RoundTrip) {
  Rng rng(1);
  std::vector<double> params(1000);
  for (auto& p : params) p = rng.normal(0.0, 1.0);
  const ModelBlob blob = serialize_parameters(params);
  EXPECT_EQ(blob.size_bytes(), wire_size(params.size()));
  const auto restored = deserialize_parameters(blob.bytes);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    // float32 on the wire: ~7 significant digits survive.
    EXPECT_NEAR(restored.value()[i], params[i],
                1e-6 * std::max(1.0, std::abs(params[i])));
  }
}

TEST(Serialize, PrototypeModelSizeMatchesPaperScale) {
  // 784×10 + 10 = 7850 params ≈ 31.4 kB as float32.
  const std::size_t n = 7850;
  EXPECT_EQ(wire_size(n), 16u + n * 4u + 4u);
  EXPECT_NEAR(static_cast<double>(wire_size(n)), 31420.0, 100.0);
}

TEST(Serialize, EmptyParameterVector) {
  const ModelBlob blob = serialize_parameters({});
  const auto restored = deserialize_parameters(blob.bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

TEST(Deserialize, DetectsCorruption) {
  const std::vector<double> params{1.0, 2.0, 3.0};
  ModelBlob blob = serialize_parameters(params);
  blob.bytes[20] ^= 0xFF;  // flip a payload byte
  const auto restored = deserialize_parameters(blob.bytes);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.error().message.find("CRC"), std::string::npos);
}

TEST(Deserialize, DetectsBadMagic) {
  ModelBlob blob = serialize_parameters(std::vector<double>{1.0});
  blob.bytes[0] = 'X';
  EXPECT_FALSE(deserialize_parameters(blob.bytes).ok());
}

TEST(Deserialize, DetectsTruncation) {
  ModelBlob blob = serialize_parameters(std::vector<double>{1.0, 2.0});
  blob.bytes.resize(blob.bytes.size() - 3);
  EXPECT_FALSE(deserialize_parameters(blob.bytes).ok());
}

TEST(Deserialize, DetectsCountMismatch) {
  ModelBlob blob = serialize_parameters(std::vector<double>{1.0, 2.0});
  blob.bytes[8] = 50;  // lie about the count
  EXPECT_FALSE(deserialize_parameters(blob.bytes).ok());
}

TEST(Deserialize, RejectsTinyInput) {
  const std::vector<std::uint8_t> tiny{1, 2, 3};
  EXPECT_FALSE(deserialize_parameters(tiny).ok());
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reflected, standard check value).
  const std::string s = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, SliceBy8MatchesBytewiseLoopAtEveryLengthAndOffset) {
  // The textbook bytewise loop over the same IEEE reflected polynomial.
  const auto bytewise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFU;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFU;
  };
  std::vector<std::uint8_t> buf(8 + 67);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 151 + 7);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      EXPECT_EQ(crc32({p, len}), bytewise(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace eefei::ml
