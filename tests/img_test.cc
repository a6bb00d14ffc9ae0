// Image substrate tests: bitmap, codec round-trips (property-tested across
// formats and sizes), resize, drawing, perceptual hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/img/bitmap.h"
#include "src/img/codec.h"
#include "src/img/draw.h"
#include "src/img/phash.h"
#include "src/img/resize.h"
#include "src/nn/gemm.h"

namespace percival {
namespace {

Bitmap RandomBitmap(Rng& rng, int width, int height) {
  Bitmap bitmap(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      bitmap.SetPixel(x, y, Color{static_cast<uint8_t>(rng.NextBelow(256)),
                                  static_cast<uint8_t>(rng.NextBelow(256)),
                                  static_cast<uint8_t>(rng.NextBelow(256)),
                                  static_cast<uint8_t>(rng.NextBelow(256))});
    }
  }
  return bitmap;
}

// Structured bitmap with runs (exercises RLE/PIF run opcodes).
Bitmap StructuredBitmap(Rng& rng, int width, int height) {
  Bitmap bitmap(width, height, Color{200, 210, 220, 255});
  FillRect(bitmap, Rect{1, 1, width / 2, height / 2}, Color{255, 0, 0, 255});
  FillVerticalGradient(bitmap, Rect{0, height / 2, width, height / 2}, Color{0, 0, 0, 255},
                       Color{250, 250, 250, 255});
  AddSpeckleNoise(bitmap, Rect{0, 0, width / 3, height / 3}, 10.0f, rng);
  return bitmap;
}

TEST(BitmapTest, ConstructAndFill) {
  Bitmap bitmap(4, 3, Color{1, 2, 3, 4});
  EXPECT_EQ(bitmap.width(), 4);
  EXPECT_EQ(bitmap.height(), 3);
  EXPECT_EQ(bitmap.byte_size(), 4u * 3u * 4u);
  EXPECT_EQ(bitmap.GetPixel(3, 2), (Color{1, 2, 3, 4}));
}

TEST(BitmapTest, SetGetRoundTrip) {
  Bitmap bitmap(2, 2);
  bitmap.SetPixel(1, 0, Color{9, 8, 7, 6});
  EXPECT_EQ(bitmap.GetPixel(1, 0), (Color{9, 8, 7, 6}));
}

TEST(BitmapTest, ClearBlocksContent) {
  Bitmap bitmap(3, 3, Color{10, 20, 30, 255});
  bitmap.Clear();
  EXPECT_EQ(bitmap.GetPixel(1, 1), (Color{255, 255, 255, 0}));
}

TEST(BitmapTest, OutOfBoundsAccessDies) {
  Bitmap bitmap(2, 2);
  EXPECT_DEATH(bitmap.GetPixel(2, 0), "outside");
  EXPECT_DEATH(bitmap.SetPixel(0, -1, Color{}), "outside");
}

// --- Codec round-trip property tests over (format, size) grid -------------

using RoundTripParam = std::tuple<ImageFormat, int, int>;

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(CodecRoundTripTest, RandomPixelsRoundTrip) {
  const auto [format, width, height] = GetParam();
  Rng rng(static_cast<uint64_t>(width) * 1000 + height);
  Bitmap original = RandomBitmap(rng, width, height);
  if (format == ImageFormat::kPpm) {
    // PPM drops alpha; force it opaque so equality holds.
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        Color c = original.GetPixel(x, y);
        c.a = 255;
        original.SetPixel(x, y, c);
      }
    }
  }
  EncodedImage encoded = Encode(original, format);
  EXPECT_EQ(SniffFormat(encoded.bytes), format);
  std::optional<Bitmap> decoded = DecodeFirstFrame(encoded.bytes);
  ASSERT_TRUE(decoded.has_value()) << ImageFormatName(format);
  EXPECT_EQ(*decoded, original) << ImageFormatName(format) << " " << width << "x" << height;
}

TEST_P(CodecRoundTripTest, StructuredPixelsRoundTrip) {
  const auto [format, width, height] = GetParam();
  if (format == ImageFormat::kPpm) {
    GTEST_SKIP() << "alpha-free format covered by the random-pixel case";
  }
  Rng rng(99);
  Bitmap original = StructuredBitmap(rng, width, height);
  EncodedImage encoded = Encode(original, format);
  std::optional<Bitmap> decoded = DecodeFirstFrame(encoded.bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatsAndSizes, CodecRoundTripTest,
    ::testing::Combine(::testing::Values(ImageFormat::kBmp, ImageFormat::kPpm,
                                         ImageFormat::kPif, ImageFormat::kRle,
                                         ImageFormat::kAnim),
                       ::testing::Values(1, 3, 17, 64), ::testing::Values(1, 5, 33)),
    [](const ::testing::TestParamInfo<RoundTripParam>& info) {
      return std::string(ImageFormatName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

TEST(CodecTest, AnimPreservesFrameSequence) {
  Rng rng(3);
  std::vector<Bitmap> frames;
  for (int i = 0; i < 4; ++i) {
    frames.push_back(RandomBitmap(rng, 9, 7));
  }
  std::vector<uint8_t> bytes = EncodeAnim(frames);
  std::optional<std::vector<Bitmap>> decoded = DecodeAnim(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*decoded)[static_cast<size_t>(i)], frames[static_cast<size_t>(i)]);
  }
}

TEST(CodecTest, SniffRejectsGarbage) {
  EXPECT_EQ(SniffFormat({0x12, 0x34, 0x56, 0x78}), ImageFormat::kUnknown);
  EXPECT_EQ(SniffFormat({}), ImageFormat::kUnknown);
}

TEST(CodecTest, DecodersRejectTruncatedInput) {
  Rng rng(4);
  Bitmap bitmap = RandomBitmap(rng, 16, 16);
  for (ImageFormat format : {ImageFormat::kBmp, ImageFormat::kPif, ImageFormat::kRle}) {
    EncodedImage encoded = Encode(bitmap, format);
    encoded.bytes.resize(encoded.bytes.size() / 3);
    EXPECT_FALSE(DecodeFirstFrame(encoded.bytes).has_value()) << ImageFormatName(format);
  }
}

TEST(CodecTest, DecodersRejectAbsurdDimensions) {
  // Hand-craft a PIF header claiming a 2^30-pixel-wide image.
  std::vector<uint8_t> bytes = {'P', 'I', 'F', '1', 0, 0, 0, 64, 1, 0, 0, 0};
  EXPECT_FALSE(DecodePif(bytes).has_value());
}

TEST(CodecTest, PifCompressesRuns) {
  Bitmap flat(64, 64, Color{100, 100, 100, 255});
  std::vector<uint8_t> bytes = EncodePif(flat);
  EXPECT_LT(bytes.size(), flat.byte_size() / 20);
}

TEST(ResizeTest, IdentityWhenSameSize) {
  Rng rng(5);
  Bitmap bitmap = RandomBitmap(rng, 10, 10);
  Bitmap resized = ResizeBilinear(bitmap, 10, 10);
  EXPECT_EQ(resized, bitmap);
}

TEST(ResizeTest, UniformStaysUniform) {
  Bitmap bitmap(7, 5, Color{42, 42, 42, 255});
  Bitmap resized = ResizeBilinear(bitmap, 13, 11);
  for (int y = 0; y < resized.height(); ++y) {
    for (int x = 0; x < resized.width(); ++x) {
      EXPECT_EQ(resized.GetPixel(x, y), (Color{42, 42, 42, 255}));
    }
  }
}

TEST(ResizeTest, DownscaleDimensions) {
  Rng rng(6);
  Bitmap bitmap = RandomBitmap(rng, 100, 60);
  Bitmap resized = ResizeBilinear(bitmap, 32, 32);
  EXPECT_EQ(resized.width(), 32);
  EXPECT_EQ(resized.height(), 32);
}

// The original per-pixel bilinear resample (GetPixel per tap, per-pixel tap
// arithmetic, std::lround per channel), kept verbatim as the oracle for the
// table-driven row kernel.
Bitmap ReferenceResize(const Bitmap& source, int out_width, int out_height) {
  Bitmap out(out_width, out_height);
  const float x_scale = static_cast<float>(source.width()) / static_cast<float>(out_width);
  const float y_scale = static_cast<float>(source.height()) / static_cast<float>(out_height);
  for (int y = 0; y < out_height; ++y) {
    const float sy = (static_cast<float>(y) + 0.5f) * y_scale - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(sy)), 0, source.height() - 1);
    const int y1 = std::min(y0 + 1, source.height() - 1);
    const float fy = std::clamp(sy - static_cast<float>(y0), 0.0f, 1.0f);
    for (int x = 0; x < out_width; ++x) {
      const float sx = (static_cast<float>(x) + 0.5f) * x_scale - 0.5f;
      const int x0 = std::clamp(static_cast<int>(std::floor(sx)), 0, source.width() - 1);
      const int x1 = std::min(x0 + 1, source.width() - 1);
      const float fx = std::clamp(sx - static_cast<float>(x0), 0.0f, 1.0f);
      const Color c00 = source.GetPixel(x0, y0);
      const Color c10 = source.GetPixel(x1, y0);
      const Color c01 = source.GetPixel(x0, y1);
      const Color c11 = source.GetPixel(x1, y1);
      auto lerp = [&](uint8_t a, uint8_t b, uint8_t c, uint8_t d) -> uint8_t {
        const float top = static_cast<float>(a) + fx * (static_cast<float>(b) - a);
        const float bottom = static_cast<float>(c) + fx * (static_cast<float>(d) - c);
        return static_cast<uint8_t>(std::lround(top + fy * (bottom - top)));
      };
      out.SetPixel(x, y, Color{lerp(c00.r, c10.r, c01.r, c11.r), lerp(c00.g, c10.g, c01.g, c11.g),
                               lerp(c00.b, c10.b, c01.b, c11.b),
                               lerp(c00.a, c10.a, c01.a, c11.a)});
    }
  }
  return out;
}

// The tensor entry points' original composition: borrow a source already at
// target size, else resample; then normalize (float) or map through the
// quantization LUT (u8 codes).
Bitmap ReferenceScaled(const Bitmap& source, int size) {
  return (source.width() == size && source.height() == size) ? source
                                                             : ReferenceResize(source, size, size);
}

// Every source shape class the kernel distinguishes: degenerate 1-pixel
// axes, the exact-size borrow, upsampling on one or both axes, and
// downsamples (128 -> 64 puts every tap weight at exactly 0.5, the
// rounding tie).
std::vector<Bitmap> GoldenSources() {
  Rng rng(41);
  std::vector<Bitmap> sources;
  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 37}, {41, 1}, {224, 224}, {64, 64}, {128, 128}, {160, 50}, {80, 240},
           {1000, 301}}) {
    sources.push_back(RandomBitmap(rng, w, h));
  }
  return sources;
}

void ExpectResizeMatchesReference() {
  for (const Bitmap& source : GoldenSources()) {
    for (const auto& [w, h] :
         std::vector<std::pair<int, int>>{{1, 1}, {13, 11}, {64, 64}, {224, 224}}) {
      const Bitmap expected = ReferenceResize(source, w, h);
      Bitmap out;
      ResizeBilinearInto(source, w, h, &out);
      ASSERT_EQ(out.width(), w);
      ASSERT_EQ(out.height(), h);
      for (size_t i = 0; i < out.byte_size(); ++i) {
        ASSERT_EQ(out.data()[i], expected.data()[i])
            << source.width() << "x" << source.height() << " -> " << w << "x" << h
            << " at byte " << i;
      }
    }
  }
}

void ExpectTensorSinksMatchReference(float scale, int32_t zero_point) {
  for (const Bitmap& source : GoldenSources()) {
    for (const int size : {1, 7, 64, 224}) {
      const Bitmap scaled = ReferenceScaled(source, size);
      for (const int channels : {3, 4}) {
        const size_t count = static_cast<size_t>(size) * size * channels;
        std::vector<float> floats(count, -1.0f);
        std::vector<uint8_t> codes(count, 0xAA);
        BitmapToTensorInto(source, size, channels, floats.data());
        BitmapToTensorU8Into(source, size, channels, scale, zero_point, codes.data());
        for (size_t i = 0; i < count; ++i) {
          const uint8_t byte = scaled.data()[(i / channels) * 4 + i % channels];
          const float v = static_cast<float>(byte) / 255.0f;
          const int32_t q = zero_point + static_cast<int32_t>(std::nearbyint(v * (1.0f / scale)));
          ASSERT_EQ(floats[i], v) << source.width() << "x" << source.height() << " -> "
                                  << size << "x" << channels << " at " << i;
          ASSERT_EQ(codes[i], static_cast<uint8_t>(std::clamp(q, 0, 255)))
              << source.width() << "x" << source.height() << " -> " << size << "x"
              << channels << " at " << i;
        }
      }
    }
  }
}

// The row kernel must reproduce the original per-pixel formula byte for
// byte through all three sinks (RGBA bitmap, float tensor, u8 codes).
TEST(ResizeGoldenTest, RgbaMatchesPerPixelFormula) { ExpectResizeMatchesReference(); }

// Two quantizations: the deployment one ([0, 1] range, whose LUT is the
// identity) and one that shifts and saturates codes.
TEST(ResizeGoldenTest, TensorSinksMatchPerPixelFormula) {
  ExpectTensorSinksMatchReference(1.0f / 255.0f, 0);
  ExpectTensorSinksMatchReference(1.0f / 200.0f, 17);
}

// Same, with rows fanned out over an inference pool (224 px targets cross
// the fan-out threshold; the smaller ones stay on the caller).
TEST(ResizeGoldenTest, MatchesPerPixelFormulaUnderPool) {
  ScopedInferencePool pool(3);
  ExpectResizeMatchesReference();
  ExpectTensorSinksMatchReference(1.0f / 255.0f, 0);
  ExpectTensorSinksMatchReference(1.0f / 200.0f, 17);
}

TEST(ResizeTest, BitmapToTensorNormalizes) {
  Bitmap bitmap(4, 4, Color{255, 0, 128, 255});
  Tensor tensor = BitmapToTensor(bitmap, 4, 3);
  EXPECT_EQ(tensor.shape(), (TensorShape{1, 4, 4, 3}));
  EXPECT_FLOAT_EQ(tensor.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(tensor.at(0, 0, 0, 1), 0.0f);
  EXPECT_NEAR(tensor.at(0, 0, 0, 2), 128.0f / 255.0f, 1e-5f);
}

TEST(ResizeTest, BitmapToTensorFourChannelsKeepsAlpha) {
  Bitmap bitmap(2, 2, Color{0, 0, 0, 128});
  Tensor tensor = BitmapToTensor(bitmap, 2, 4);
  EXPECT_NEAR(tensor.at(0, 0, 0, 3), 128.0f / 255.0f, 1e-5f);
}

TEST(DrawTest, FillRectClips) {
  Bitmap bitmap(4, 4, Color{0, 0, 0, 255});
  FillRect(bitmap, Rect{-2, -2, 100, 3}, Color{255, 255, 255, 255});
  EXPECT_EQ(bitmap.GetPixel(0, 0).r, 255);
  EXPECT_EQ(bitmap.GetPixel(3, 0).r, 255);
  EXPECT_EQ(bitmap.GetPixel(0, 3).r, 0);
}

TEST(DrawTest, RectIntersects) {
  Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.Intersects(Rect{5, 5, 10, 10}));
  EXPECT_FALSE(a.Intersects(Rect{10, 0, 5, 5}));  // touching edges don't overlap
  EXPECT_TRUE(a.Contains(9, 9));
  EXPECT_FALSE(a.Contains(10, 10));
}

TEST(DrawTest, OutlineLeavesInteriorUntouched) {
  Bitmap bitmap(10, 10, Color{0, 0, 0, 255});
  DrawRectOutline(bitmap, Rect{0, 0, 10, 10}, Color{255, 0, 0, 255}, 1);
  EXPECT_EQ(bitmap.GetPixel(0, 0).r, 255);
  EXPECT_EQ(bitmap.GetPixel(5, 5).r, 0);
}

TEST(DrawTest, TextLineLeavesInk) {
  Bitmap bitmap(80, 12, Color{255, 255, 255, 255});
  Rng rng(7);
  DrawTextLine(bitmap, Rect{0, 0, 80, 12}, Color{0, 0, 0, 255}, GlyphStyle::kLatin, rng);
  EXPECT_GT(NonBackgroundFraction(bitmap, Color{255, 255, 255, 255}), 0.02);
}

class GlyphStyleTest : public ::testing::TestWithParam<GlyphStyle> {};

TEST_P(GlyphStyleTest, EveryStyleProducesInk) {
  Bitmap bitmap(100, 16, Color{255, 255, 255, 255});
  Rng rng(8);
  DrawTextLine(bitmap, Rect{2, 2, 96, 12}, Color{0, 0, 0, 255}, GetParam(), rng);
  EXPECT_GT(NonBackgroundFraction(bitmap, Color{255, 255, 255, 255}), 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, GlyphStyleTest,
                         ::testing::Values(GlyphStyle::kLatin, GlyphStyle::kArabic,
                                           GlyphStyle::kCjk, GlyphStyle::kHangul,
                                           GlyphStyle::kAccented));

TEST(PhashTest, IdenticalImagesSameHash) {
  Rng rng(9);
  Bitmap bitmap = RandomBitmap(rng, 32, 32);
  EXPECT_EQ(AverageHash(bitmap), AverageHash(bitmap));
}

TEST(PhashTest, SmallPerturbationSmallDistance) {
  Rng rng(10);
  Bitmap bitmap = StructuredBitmap(rng, 64, 64);
  Bitmap perturbed = bitmap;
  AddSpeckleNoise(perturbed, Rect{0, 0, 8, 8}, 3.0f, rng);
  EXPECT_LE(HammingDistance(AverageHash(bitmap), AverageHash(perturbed)), 6);
}

TEST(PhashTest, DifferentStructuresFarApart) {
  Bitmap dark(32, 32, Color{10, 10, 10, 255});
  FillRect(dark, Rect{0, 0, 16, 32}, Color{240, 240, 240, 255});
  Bitmap other(32, 32, Color{10, 10, 10, 255});
  FillRect(other, Rect{0, 0, 32, 16}, Color{240, 240, 240, 255});
  EXPECT_GT(HammingDistance(AverageHash(dark), AverageHash(other)), 16);
}

}  // namespace
}  // namespace percival
