#include "src/img/resize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/base/logging.h"
#include "src/nn/gemm.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace percival {

namespace {

// One output index's bilinear taps along an axis: the two source indices
// and the blend weight toward the second. These are the exact per-pixel
// expressions the resample has always used, hoisted out of the pixel loop
// (once per column per call, once per row).
struct Tap {
  int i0;
  int i1;
  float f;
};

Tap BilinearTap(int out_index, float scale, int source_size) {
  const float s = (static_cast<float>(out_index) + 0.5f) * scale - 0.5f;
  const int i0 = std::clamp(static_cast<int>(std::floor(s)), 0, source_size - 1);
  const int i1 = std::min(i0 + 1, source_size - 1);
  const float f = std::clamp(s - static_cast<float>(i0), 0.0f, 1.0f);
  return Tap{i0, i1, f};
}

// std::lround for v >= 0, which a blend of bytes with weights in [0, 1]
// always is: v - t is exact, so this rounds half away from zero exactly as
// lround does, without the libm call.
inline uint8_t RoundNonNegative(float v) {
  const int t = static_cast<int>(v);
  return static_cast<uint8_t>(t + (v - static_cast<float>(t) >= 0.5f ? 1 : 0));
}

// First half of the per-pixel expression, for a whole source row: each
// output column's lerp between its two taps, top = a + fx * (b - a).
// `out` holds out_width * Channels floats plus one of slack: the SSE2 loop
// stores all four RGBA lanes, and a 3-channel row's fourth lane is
// overwritten by the next pixel (the last one lands in the slack).
template <int Channels>
void LerpRow(const uint8_t* row, const Tap* columns, int out_width, float* __restrict out) {
#if defined(__SSE2__)
  // The same IEEE subtract, multiply and add per lane as the scalar form
  // below, four channels at a time.
  const __m128i zero = _mm_setzero_si128();
  auto widen = [&](const uint8_t* pixel) {
    int32_t bytes;
    std::memcpy(&bytes, pixel, sizeof(bytes));
    const __m128i b8 = _mm_cvtsi32_si128(bytes);
    return _mm_cvtepi32_ps(_mm_unpacklo_epi16(_mm_unpacklo_epi8(b8, zero), zero));
  };
  for (int x = 0; x < out_width; ++x) {
    const __m128 a = widen(row + columns[x].i0);
    const __m128 b = widen(row + columns[x].i1);
    const __m128 fx = _mm_set1_ps(columns[x].f);
    _mm_storeu_ps(out + x * Channels, _mm_add_ps(a, _mm_mul_ps(fx, _mm_sub_ps(b, a))));
  }
#else
  for (int x = 0; x < out_width; ++x) {
    const uint8_t* a = row + columns[x].i0;
    const uint8_t* b = row + columns[x].i1;
    const float fx = columns[x].f;
    for (int c = 0; c < Channels; ++c) {
      out[x * Channels + c] = static_cast<float>(a[c]) + fx * (static_cast<float>(b[c]) - a[c]);
    }
  }
#endif
}

// Second half: blend two lerped rows along y, v = top + fy * (bottom -
// top), and round to bytes (the compiler vectorizes this loop).
void BlendRows(const float* __restrict top, const float* __restrict bottom, float fy,
               int64_t count, uint8_t* __restrict out) {
  for (int64_t i = 0; i < count; ++i) {
    out[i] = RoundNonNegative(top[i] + fy * (bottom[i] - top[i]));
  }
}

// The one resample kernel behind every entry point: bilinearly resamples
// `source` to out_width x out_height with Channels bytes per output pixel
// and hands each finished row to sink(y, bytes). It is the original
// per-pixel expression evaluated in the original order, only regrouped:
// the taps come from per-column and per-row tables, each source row is
// lerped along x once and kept while consecutive output rows blend it (an
// upsample reuses it), and the blend runs over whole contiguous rows.
// Resampled rows fan out over the inference pool once a call writes
// kMinMacsPerParallelKernel bytes (224x224 targets); 64 px targets stay on
// the caller. A source already at the target size is the identity resample:
// its rows go to the sink as they are, on the caller (a copy gains nothing
// from the pool).
template <int Channels, typename Sink>
void ResampleRows(const Bitmap& source, int out_width, int out_height, const Sink& sink) {
  const uint8_t* src = source.data();
  const int64_t src_stride = static_cast<int64_t>(source.width()) * 4;
  const int64_t row_bytes = static_cast<int64_t>(out_width) * Channels;
  if (source.width() == out_width && source.height() == out_height) {
    std::vector<uint8_t> packed(Channels == 4 ? 0 : static_cast<size_t>(row_bytes));
    for (int64_t y = 0; y < out_height; ++y) {
      const uint8_t* row = src + y * src_stride;
      if constexpr (Channels != 4) {
        for (int x = 0; x < out_width; ++x) {
          for (int c = 0; c < Channels; ++c) {
            packed[static_cast<size_t>(x * Channels + c)] = row[x * 4 + c];
          }
        }
        row = packed.data();
      }
      sink(y, row);
    }
    return;
  }
  const float x_scale = static_cast<float>(source.width()) / static_cast<float>(out_width);
  const float y_scale = static_cast<float>(source.height()) / static_cast<float>(out_height);
  std::vector<Tap> columns(static_cast<size_t>(out_width));
  for (int x = 0; x < out_width; ++x) {
    Tap tap = BilinearTap(x, x_scale, source.width());
    tap.i0 *= 4;  // byte offsets into a source row
    tap.i1 *= 4;
    columns[static_cast<size_t>(x)] = tap;
  }
  InferenceParallelFor(out_height, row_bytes, [&](int64_t y_begin, int64_t y_end) {
    // Two lerped-row slots (with LerpRow's one float of slack), tagged
    // with the source row each holds.
    std::vector<float> lerped(2 * static_cast<size_t>(row_bytes + 1));
    float* slot[2] = {lerped.data(), lerped.data() + row_bytes + 1};
    int slot_row[2] = {-1, -1};
    std::vector<uint8_t> bytes(static_cast<size_t>(row_bytes));
    auto lerp_into = [&](int s, int source_row) {
      LerpRow<Channels>(src + source_row * src_stride, columns.data(), out_width, slot[s]);
      slot_row[s] = source_row;
    };
    for (int64_t y = y_begin; y < y_end; ++y) {
      const Tap row = BilinearTap(static_cast<int>(y), y_scale, source.height());
      // Top row: reuse a slot, else fill the one not holding the bottom row.
      int top = slot_row[0] == row.i0 ? 0 : slot_row[1] == row.i0 ? 1 : -1;
      if (top < 0) {
        top = slot_row[0] == row.i1 ? 1 : 0;
        lerp_into(top, row.i0);
      }
      int bottom = slot_row[top] == row.i1 ? top : 1 - top;
      if (slot_row[bottom] != row.i1) {
        lerp_into(bottom, row.i1);
      }
      BlendRows(slot[top], slot[bottom], row.f, row_bytes, bytes.data());
      sink(y, bytes.data());
    }
  });
}

// Dispatches the 3- and 4-channel tensor layouts to their kernels.
template <typename Sink>
void ResampleToChannels(const Bitmap& source, int size, int channels, const Sink& sink) {
  PCHECK(channels == 3 || channels == 4);
  if (channels == 3) {
    ResampleRows<3>(source, size, size, sink);
  } else {
    ResampleRows<4>(source, size, size, sink);
  }
}

// Row sinks. A byte pointer may alias anything, so without __restrict the
// compiler would have to assume each store rewrites the row it reads.
void NormalizeRow(const uint8_t* __restrict bytes, int64_t count, float* __restrict out) {
  for (int64_t i = 0; i < count; ++i) {
    out[i] = static_cast<float>(bytes[i]) / 255.0f;
  }
}

void MapRow(const uint8_t* __restrict bytes, int64_t count, const uint8_t* __restrict lut,
            uint8_t* __restrict out) {
  for (int64_t i = 0; i < count; ++i) {
    out[i] = lut[bytes[i]];
  }
}

}  // namespace

Bitmap ResizeBilinear(const Bitmap& source, int out_width, int out_height) {
  Bitmap out;
  ResizeBilinearInto(source, out_width, out_height, &out);
  return out;
}

void ResizeBilinearInto(const Bitmap& source, int out_width, int out_height, Bitmap* out_ptr) {
  PCHECK_GE(out_width, 1);
  PCHECK_GE(out_height, 1);
  PCHECK(!source.empty());
  PCHECK(out_ptr != nullptr && out_ptr != &source);
  if (out_ptr->width() != out_width || out_ptr->height() != out_height) {
    *out_ptr = Bitmap(out_width, out_height);
  }
  uint8_t* out = out_ptr->data();
  const size_t row_bytes = static_cast<size_t>(out_width) * 4;
  ResampleRows<4>(source, out_width, out_height, [&](int64_t y, const uint8_t* bytes) {
    std::memcpy(out + y * static_cast<int64_t>(row_bytes), bytes, row_bytes);
  });
}

Tensor BitmapToTensor(const Bitmap& source, int size, int channels) {
  Tensor tensor(1, size, size, channels);
  BitmapToTensorInto(source, size, channels, tensor.data());
  return tensor;
}

void BitmapToTensorInto(const Bitmap& source, int size, int channels, float* out) {
  PCHECK(!source.empty());
  const int64_t row_values = static_cast<int64_t>(size) * channels;
  ResampleToChannels(source, size, channels, [&](int64_t y, const uint8_t* bytes) {
    NormalizeRow(bytes, row_values, out + y * row_values);
  });
}

void BitmapToTensorU8Into(const Bitmap& source, int size, int channels, float scale,
                          int32_t zero_point, uint8_t* out) {
  PCHECK_GT(scale, 0.0f);
  PCHECK(!source.empty());
  // 256 source bytes -> 256 possible normalized floats -> 256 codes. The
  // LUT body must stay the exact expression QuantizeActivations applies to
  // BitmapToTensorInto's output (p / 255, scaled, nearbyint, clamp): that
  // identity is what makes u8-direct preprocessing bit-identical to the
  // float staging pipeline, and it is test-asserted.
  uint8_t lut[256];
  const float inv_scale = 1.0f / scale;
  for (int p = 0; p < 256; ++p) {
    const float v = static_cast<float>(p) / 255.0f;
    const int32_t q = zero_point + static_cast<int32_t>(std::nearbyint(v * inv_scale));
    lut[p] = static_cast<uint8_t>(std::min(255, std::max(0, q)));
  }
  // The deployment calibration (range [0, 1]: scale 1/255, zero point 0)
  // makes the LUT the identity, and then the resampled bytes already are
  // the codes.
  bool identity = true;
  for (int p = 0; p < 256; ++p) {
    identity = identity && lut[p] == p;
  }
  const int64_t row_values = static_cast<int64_t>(size) * channels;
  ResampleToChannels(source, size, channels, [&](int64_t y, const uint8_t* bytes) {
    if (identity) {
      std::memcpy(out + y * row_values, bytes, static_cast<size_t>(row_values));
    } else {
      MapRow(bytes, row_values, lut, out + y * row_values);
    }
  });
}

Bitmap TensorPlaneToBitmap(const Tensor& tensor, int n, int channel) {
  const TensorShape& s = tensor.shape();
  PCHECK_LT(n, s.n);
  PCHECK_LT(channel, s.c);
  float lo = 1e30f;
  float hi = -1e30f;
  for (int y = 0; y < s.h; ++y) {
    for (int x = 0; x < s.w; ++x) {
      const float v = tensor.at(n, y, x, channel);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const float range = (hi - lo) > 1e-12f ? (hi - lo) : 1.0f;
  Bitmap out(s.w, s.h);
  for (int y = 0; y < s.h; ++y) {
    for (int x = 0; x < s.w; ++x) {
      const float v = (tensor.at(n, y, x, channel) - lo) / range;
      const auto g = static_cast<uint8_t>(std::lround(v * 255.0f));
      out.SetPixel(x, y, Color{g, g, g, 255});
    }
  }
  return out;
}

}  // namespace percival
