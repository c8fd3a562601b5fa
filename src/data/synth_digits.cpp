#include "data/synth_digits.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

namespace eefei::data {

namespace {

struct Point {
  double x;
  double y;
};

struct Segment {
  Point a;
  Point b;
};

// Glyph prototypes in a unit box (x right, y down).  Layout follows a
// seven-segment skeleton with a few diagonals for 1/4/7 so the classes do
// not collapse to segment-subset relationships (which would make some
// digits linearly indistinguishable under heavy noise).
constexpr double kL = 0.28, kR = 0.72, kT = 0.15, kM = 0.50, kB = 0.85;

const std::array<std::vector<Segment>, 10>& glyphs() {
  static const std::array<std::vector<Segment>, 10> g = {{
      // 0
      {{{kL, kT}, {kR, kT}},
       {{kL, kB}, {kR, kB}},
       {{kL, kT}, {kL, kB}},
       {{kR, kT}, {kR, kB}}},
      // 1: vertical stroke with a small flag
      {{{0.5, kT}, {0.5, kB}}, {{0.36, 0.28}, {0.5, kT}}},
      // 2
      {{{kL, kT}, {kR, kT}},
       {{kR, kT}, {kR, kM}},
       {{kR, kM}, {kL, kB}},
       {{kL, kB}, {kR, kB}}},
      // 3
      {{{kL, kT}, {kR, kT}},
       {{kR, kT}, {kR, kB}},
       {{kL, kM}, {kR, kM}},
       {{kL, kB}, {kR, kB}}},
      // 4
      {{{kL, kT}, {kL, kM}},
       {{kL, kM}, {kR, kM}},
       {{kR, kT}, {kR, kB}}},
      // 5
      {{{kL, kT}, {kR, kT}},
       {{kL, kT}, {kL, kM}},
       {{kL, kM}, {kR, kM}},
       {{kR, kM}, {kR, kB}},
       {{kL, kB}, {kR, kB}}},
      // 6
      {{{kL, kT}, {kR, kT}},
       {{kL, kT}, {kL, kB}},
       {{kL, kM}, {kR, kM}},
       {{kR, kM}, {kR, kB}},
       {{kL, kB}, {kR, kB}}},
      // 7: top bar plus a long diagonal
      {{{kL, kT}, {kR, kT}}, {{kR, kT}, {0.42, kB}}},
      // 8
      {{{kL, kT}, {kR, kT}},
       {{kL, kM}, {kR, kM}},
       {{kL, kB}, {kR, kB}},
       {{kL, kT}, {kL, kB}},
       {{kR, kT}, {kR, kB}}},
      // 9
      {{{kL, kT}, {kR, kT}},
       {{kL, kT}, {kL, kM}},
       {{kL, kM}, {kR, kM}},
       {{kR, kT}, {kR, kB}},
       {{kL, kB}, {kR, kB}}},
  }};
  return g;
}

// Pixel-space segment with the projection constants and the cutoff-expanded
// bounding box precomputed once per sample.  Distances are kept squared
// until the single sqrt per pixel.
struct PreparedSegment {
  Point a;
  double dx, dy, inv_len2;
  double x_lo, x_hi, y_lo, y_hi;  // bbox expanded by the intensity cutoff
};

double point_segment_distance2(double px, double py,
                               const PreparedSegment& s) {
  double t = ((px - s.a.x) * s.dx + (py - s.a.y) * s.dy) * s.inv_len2;
  t = std::clamp(t, 0.0, 1.0);
  const double ex = px - (s.a.x + t * s.dx);
  const double ey = py - (s.a.y + t * s.dy);
  return ex * ex + ey * ey;
}

// Half-open index range of the pixels whose centres (i + 0.5) can fall in
// [lo, hi], widened by one pixel on each side and clipped to [0, side).
// A NaN bound yields the whole axis, where the exact test then decides as
// a per-pixel scan would.
std::pair<std::size_t, std::size_t> pixel_range(double lo, double hi,
                                                std::size_t side) {
  const auto fside = static_cast<double>(side);
  const double first = std::floor(lo - 0.5) - 1.0;
  const double last = std::ceil(hi - 0.5) + 2.0;
  const std::size_t b =
      first > 0.0 ? static_cast<std::size_t>(std::min(first, fside)) : 0;
  const std::size_t e =
      last < fside ? static_cast<std::size_t>(std::max(last, 0.0)) : side;
  return {b, e};
}

}  // namespace

SynthDigits::SynthDigits(SynthDigitsConfig config)
    : config_(config), rng_(config.seed) {
  assert(config_.image_side >= 1);
}

void SynthDigits::render(int label, std::span<double> out) {
  assert(label >= 0 && static_cast<std::size_t>(label) < kNumClasses);
  const std::size_t side = config_.image_side;
  assert(out.size() == side * side);

  // Per-sample geometric jitter.  Pixel-valued parameters (translation,
  // stroke thickness) are specified at the 28×28 reference resolution and
  // scaled with the configured side so small images stay crisp.
  const double res = static_cast<double>(side) / 28.0;
  const double max_tr = config_.max_translation * res;
  const double tx = rng_.uniform(-max_tr, max_tr);
  const double ty = rng_.uniform(-max_tr, max_tr);
  const double angle = rng_.uniform(-config_.max_rotation_rad,
                                    config_.max_rotation_rad);
  const double scale =
      1.0 + rng_.uniform(-config_.scale_jitter, config_.scale_jitter);
  const double thickness = std::max(
      0.35, rng_.normal(config_.thickness_mean * res,
                        config_.thickness_jitter * res));
  const double cosr = std::cos(angle);
  const double sinr = std::sin(angle);
  const auto fside = static_cast<double>(side);

  // A pixel farther than this from every stroke has zero pre-noise
  // intensity: (thickness − d)/softness + 0.5 ≤ 0 clamps to exactly 0.
  const double softness = 0.8 * std::max(res, 0.35);
  const double cutoff = thickness + 0.5 * softness;
  const double cutoff2 = cutoff * cutoff;

  // Transform the prototype segments into pixel space once per sample and
  // precompute the projection constants + cutoff-expanded bounding boxes.
  const auto& proto = glyphs()[static_cast<std::size_t>(label)];
  std::vector<PreparedSegment> segs;
  segs.reserve(proto.size());
  for (const auto& s : proto) {
    auto map = [&](Point p) -> Point {
      const double ux = (p.x - 0.5) * scale;
      const double uy = (p.y - 0.5) * scale;
      const double rx = ux * cosr - uy * sinr;
      const double ry = ux * sinr + uy * cosr;
      return {rx * fside + fside / 2.0 + tx, ry * fside + fside / 2.0 + ty};
    };
    const Point a = map(s.a);
    const Point b = map(s.b);
    PreparedSegment ps;
    ps.a = a;
    ps.dx = b.x - a.x;
    ps.dy = b.y - a.y;
    const double len2 = ps.dx * ps.dx + ps.dy * ps.dy;
    ps.inv_len2 = len2 > 0.0 ? 1.0 / len2 : 0.0;
    ps.x_lo = std::min(a.x, b.x) - cutoff;
    ps.x_hi = std::max(a.x, b.x) + cutoff;
    ps.y_lo = std::min(a.y, b.y) - cutoff;
    ps.y_hi = std::max(a.y, b.y) + cutoff;
    segs.push_back(ps);
  }

  // Rasterize bbox-first: each segment, in prototype order, lowers the
  // squared distance of only the pixels inside its cutoff-expanded bbox
  // (the index range is widened by one pixel; the exact bbox test decides).
  // Every pixel therefore takes the same min over the same segments in the
  // same order as a per-pixel scan, so the bytes and the RNG stream below
  // are unchanged.  Pixels outside every bbox stay at cutoff² and render
  // dark before noise.
  dist2_.assign(side * side, cutoff2);
  for (const auto& s : segs) {
    const auto [x0, x1] = pixel_range(s.x_lo, s.x_hi, side);
    const auto [y0, y1] = pixel_range(s.y_lo, s.y_hi, side);
    for (std::size_t yy = y0; yy < y1; ++yy) {
      const double py = static_cast<double>(yy) + 0.5;
      if (py < s.y_lo || py > s.y_hi) continue;
      double* row = dist2_.data() + yy * side;
      for (std::size_t xx = x0; xx < x1; ++xx) {
        const double px = static_cast<double>(xx) + 0.5;
        if (px < s.x_lo || px > s.x_hi) continue;
        row[xx] = std::min(row[xx], point_segment_distance2(px, py, s));
      }
    }
  }

  // Per-pixel intensity from the closest stroke, then noise.
  for (std::size_t yy = 0; yy < side; ++yy) {
    for (std::size_t xx = 0; xx < side; ++xx) {
      const double dmin2 = dist2_[yy * side + xx];
      double v = 0.0;
      if (dmin2 < cutoff2) {
        v = std::clamp(
            (thickness - std::sqrt(dmin2)) / softness + 0.5, 0.0, 1.0);
      }
      if (v > 0.0 && rng_.bernoulli(config_.dropout_prob)) v = 0.0;
      v += rng_.normal(0.0, config_.pixel_noise_stddev);
      out[yy * side + xx] = std::clamp(v, 0.0, 1.0);
    }
  }
}

Dataset SynthDigits::generate(std::size_t n) {
  Dataset ds(config_.feature_dim(), kNumClasses);
  ds.reserve(n);
  std::vector<double> buf(config_.feature_dim());
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng_.uniform_index(kNumClasses));
    render(label, buf);
    ds.add(buf, label);
  }
  return ds;
}

Dataset SynthDigits::generate_class(std::size_t n, int label) {
  Dataset ds(config_.feature_dim(), kNumClasses);
  ds.reserve(n);
  std::vector<double> buf(config_.feature_dim());
  for (std::size_t i = 0; i < n; ++i) {
    render(label, buf);
    ds.add(buf, label);
  }
  return ds;
}

std::string ascii_art(std::span<const double> image, std::size_t side) {
  static constexpr std::string_view kRamp = " .:-=+*#%@";
  std::string out;
  out.reserve((side + 1) * side);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      const double v = std::clamp(image[y * side + x], 0.0, 1.0);
      const auto idx = static_cast<std::size_t>(v * 9.999);
      out.push_back(kRamp[idx]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace eefei::data
