#include "ml/serialize.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace eefei::ml {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic{'E', 'F', 'E', 'I'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 8;
constexpr std::size_t kCrcSize = 4;

// Slice-by-8 tables of the IEEE reflected polynomial: kCrcTables[0] is the
// bytewise table, and kCrcTables[t][b] advances kCrcTables[t - 1][b] by one
// more zero byte, so one lookup per table folds 8 input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < t.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFU];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Little-endian stores at `p`; the blob is sized before anything is written.
void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFU;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = get_u32(p) ^ c;
    const std::uint32_t hi = get_u32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

std::size_t wire_size(std::size_t param_count) {
  return kHeaderSize + param_count * sizeof(float) + kCrcSize;
}

void serialize_parameters_into(std::span<const double> params,
                               ModelBlob& out) {
  out.bytes.resize(wire_size(params.size()));
  std::uint8_t* p = out.bytes.data();
  std::copy(kMagic.begin(), kMagic.end(), p);
  put_u16(p + 4, kVersion);
  put_u16(p + 6, 0);  // flags, reserved
  put_u64(p + 8, params.size());
  std::uint8_t* q = p + kHeaderSize;
  for (const double v : params) {
    const auto f = static_cast<float>(v);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    put_u32(q, bits);
    q += sizeof bits;
  }
  put_u32(q, crc32({p, out.bytes.size() - kCrcSize}));
}

ModelBlob serialize_parameters(std::span<const double> params) {
  ModelBlob blob;
  serialize_parameters_into(params, blob);
  return blob;
}

Result<std::vector<double>> deserialize_parameters(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize + kCrcSize) {
    return Error::parse_error("model blob: truncated header");
  }
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin())) {
    return Error::parse_error("model blob: bad magic");
  }
  const std::uint16_t version = get_u16(bytes.data() + 4);
  if (version != kVersion) {
    return Error::parse_error("model blob: unsupported version " +
                              std::to_string(version));
  }
  const std::uint64_t count = get_u64(bytes.data() + 8);
  if (bytes.size() != wire_size(count)) {
    return Error::parse_error("model blob: size/count mismatch");
  }
  const std::uint32_t stored_crc = get_u32(bytes.data() + bytes.size() - 4);
  const std::uint32_t computed_crc =
      crc32(bytes.subspan(0, bytes.size() - kCrcSize));
  if (stored_crc != computed_crc) {
    return Error::parse_error("model blob: CRC mismatch (corrupted upload)");
  }
  std::vector<double> params;
  params.reserve(count);
  const std::uint8_t* p = bytes.data() + kHeaderSize;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t bits = get_u32(p + i * 4);
    float f = 0;
    std::memcpy(&f, &bits, sizeof f);
    params.push_back(static_cast<double>(f));
  }
  return params;
}

}  // namespace eefei::ml
