#include "src/nn/ops.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {

int ConvOutputSize(int size, int kernel, int stride, int pad) {
  int padded = size + 2 * pad - kernel;
  PCHECK_GE(padded, 0) << "window " << kernel << " larger than padded input " << size;
  return padded / stride + 1;
}

void Im2Col(const float* input, int height, int width, int channels, int kernel, int stride,
            int pad, float* columns) {
  const int out_h = ConvOutputSize(height, kernel, stride, pad);
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  Im2ColRows(input, height, width, channels, kernel, stride, pad, 0,
             static_cast<int64_t>(out_h) * out_w, columns);
}

void Im2ColRows(const float* input, int height, int width, int channels, int kernel, int stride,
                int pad, int64_t row_begin, int64_t row_end, float* columns) {
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  const int row_len = kernel * kernel * channels;
  NoteBytesGathered(static_cast<uint64_t>(row_end - row_begin) * row_len * sizeof(float));
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int oh = static_cast<int>(r / out_w);
    const int ow = static_cast<int>(r % out_w);
    // Consecutive kw taps read consecutive input pixels, so a kh-row whose
    // kw span is fully in bounds is ONE contiguous kernel*channels copy —
    // the common case everywhere but the image border.
    const int iw0 = ow * stride - pad;
    const bool kw_span_in_bounds = iw0 >= 0 && iw0 + kernel <= width;
    float* row = columns + (r - row_begin) * row_len;
    for (int kh = 0; kh < kernel; ++kh) {
      const int ih = oh * stride + kh - pad;
      float* dst = row + kh * kernel * channels;
      if (ih < 0 || ih >= height) {
        std::memset(dst, 0, sizeof(float) * static_cast<size_t>(kernel) * channels);
        continue;
      }
      if (kw_span_in_bounds) {
        std::memcpy(dst, input + (static_cast<int64_t>(ih) * width + iw0) * channels,
                    sizeof(float) * static_cast<size_t>(kernel) * channels);
        continue;
      }
      for (int kw = 0; kw < kernel; ++kw) {
        const int iw = iw0 + kw;
        if (iw < 0 || iw >= width) {
          std::memset(dst + kw * channels, 0, sizeof(float) * static_cast<size_t>(channels));
        } else {
          const float* src = input + (static_cast<int64_t>(ih) * width + iw) * channels;
          std::memcpy(dst + kw * channels, src, sizeof(float) * static_cast<size_t>(channels));
        }
      }
    }
  }
}

void Im2ColRowsU8(const uint8_t* input, int height, int width, int channels, int kernel,
                  int stride, int pad, int64_t row_begin, int64_t row_end, uint8_t pad_value,
                  int row_stride, uint8_t* columns) {
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  const int row_len = kernel * kernel * channels;
  PCHECK_GE(row_stride, row_len);
  NoteBytesGathered(static_cast<uint64_t>(row_end - row_begin) * row_len);
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int oh = static_cast<int>(r / out_w);
    const int ow = static_cast<int>(r % out_w);
    // See Im2ColRows: an in-bounds kw span is one contiguous copy.
    const int iw0 = ow * stride - pad;
    const bool kw_span_in_bounds = iw0 >= 0 && iw0 + kernel <= width;
    uint8_t* row = columns + (r - row_begin) * row_stride;
    for (int kh = 0; kh < kernel; ++kh) {
      const int ih = oh * stride + kh - pad;
      uint8_t* dst = row + kh * kernel * channels;
      if (ih < 0 || ih >= height) {
        std::memset(dst, pad_value, static_cast<size_t>(kernel) * channels);
        continue;
      }
      if (kw_span_in_bounds) {
        std::memcpy(dst, input + (static_cast<int64_t>(ih) * width + iw0) * channels,
                    static_cast<size_t>(kernel) * channels);
        continue;
      }
      for (int kw = 0; kw < kernel; ++kw) {
        const int iw = iw0 + kw;
        if (iw < 0 || iw >= width) {
          std::memset(dst + kw * channels, pad_value, static_cast<size_t>(channels));
        } else {
          const uint8_t* src = input + (static_cast<int64_t>(ih) * width + iw) * channels;
          std::memcpy(dst + kw * channels, src, static_cast<size_t>(channels));
        }
      }
    }
    std::memset(row + row_len, pad_value, static_cast<size_t>(row_stride - row_len));
  }
}

void Col2Im(const float* columns, int height, int width, int channels, int kernel, int stride,
            int pad, float* input_grad) {
  const int out_h = ConvOutputSize(height, kernel, stride, pad);
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  const int row_len = kernel * kernel * channels;
  for (int oh = 0; oh < out_h; ++oh) {
    for (int ow = 0; ow < out_w; ++ow) {
      const float* row = columns + (static_cast<int64_t>(oh) * out_w + ow) * row_len;
      for (int kh = 0; kh < kernel; ++kh) {
        const int ih = oh * stride + kh - pad;
        if (ih < 0 || ih >= height) {
          continue;
        }
        for (int kw = 0; kw < kernel; ++kw) {
          const int iw = ow * stride + kw - pad;
          if (iw < 0 || iw >= width) {
            continue;
          }
          float* dst = input_grad + (static_cast<int64_t>(ih) * width + iw) * channels;
          const float* src = row + (kh * kernel + kw) * channels;
          for (int c = 0; c < channels; ++c) {
            dst[c] += src[c];
          }
        }
      }
    }
  }
}

namespace {

// dst[c] = max(dst[c], src[c]). The __restrict promise (a pool window tap
// never overlaps the output) is what lets the compiler turn the loop into
// pmaxub; a conditional store through possibly-aliasing pointers stays
// scalar.
inline void MaxInto(uint8_t* __restrict dst, const uint8_t* __restrict src, int count) {
  for (int c = 0; c < count; ++c) {
    dst[c] = std::max(dst[c], src[c]);
  }
}

}  // namespace

void MaxPoolCodes(const uint8_t* in, int height, int width, int channels, int kernel,
                  int stride, uint8_t* out) {
  const int out_h = ConvOutputSize(height, kernel, stride, 0);
  const int out_w = ConvOutputSize(width, kernel, stride, 0);
  // Output rows are independent: each reads its own window rows and writes
  // its own output row, so the rows fan out over the inference pool.
  const int64_t taps_per_row = static_cast<int64_t>(out_w) * kernel * kernel * channels;
  InferenceParallelFor(out_h, taps_per_row, [&](int64_t row_begin, int64_t row_end) {
    for (int oh = static_cast<int>(row_begin); oh < row_end; ++oh) {
      for (int ow = 0; ow < out_w; ++ow) {
        uint8_t* dst = out + (static_cast<int64_t>(oh) * out_w + ow) * channels;
        // Tap (0, 0) is always in bounds: it seeds the window's max.
        const int ih0 = oh * stride;
        const int iw0 = ow * stride;
        std::memcpy(dst, in + (static_cast<int64_t>(ih0) * width + iw0) * channels,
                    static_cast<size_t>(channels));
        const int kh_end = std::min(kernel, height - ih0);
        const int kw_end = std::min(kernel, width - iw0);
        for (int kh = 0; kh < kh_end; ++kh) {
          const uint8_t* src_row = in + static_cast<int64_t>(ih0 + kh) * width * channels;
          for (int kw = kh == 0 ? 1 : 0; kw < kw_end; ++kw) {
            MaxInto(dst, src_row + static_cast<int64_t>(iw0 + kw) * channels, channels);
          }
        }
      }
    }
  });
}

void Axpy(int64_t n, float a, const float* src, float* dst) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] += a * src[i];
  }
}

float Dot(int64_t n, const float* a, const float* b) {
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) {
    acc0 += a[i] * b[i];
  }
  return acc0 + acc1 + acc2 + acc3;
}

}  // namespace percival
