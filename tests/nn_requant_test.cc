// Tests for the requantize-in-epilogue engine and the zero-float dataflow
// plan: bit-exactness of GemmInt8PackedExU8 against the templated scalar
// oracle on every compiled SIMD tier at both panel widths, the defining
// identity (requant store == float store + QuantizeActivations, to the
// byte), plan engagement/inertness across calibration states, bit-identical
// logits between the zero-float plan and the float-staged int8 walk (the
// oracle: ForwardUpTo over every layer, or the layer(0).ForwardQuantized
// loop on the u8 entry) — including a ReLU folded into its emitter under a
// non-zero zero point, a ReLU the planner must not link through, and a
// partial trailer that leaves one fire unlinked — the code max-pool against
// a scalar oracle (also fanned out over an inference pool), bit-identical
// paper-profile logits with no pool, a 1-worker and a
// 3-worker pool, a steady-state counter proof that a planned frame
// allocates no float activation tensor and no heap between codes-in and
// logits-out, and the 64-image float-vs-int8 accuracy guard re-run with the
// plan active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/model.h"
#include "src/img/resize.h"
#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/pool.h"
#include "src/nn/tensor.h"
#include "src/webgen/adgen.h"
#include "src/webgen/contentgen.h"

namespace percival {
namespace {

Tensor RandomTensor(const TensorShape& shape, uint64_t seed, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor tensor(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = rng.NextFloat(lo, hi);
  }
  return tensor;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.shape() == b.shape());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

struct RequantCase {
  int m = 0;
  int n = 0;
  int k = 0;
  int panel_width = GemmNativePanelWidth();
  GemmEpilogue epilogue = GemmEpilogue::kBias;
  ActivationQuant quant;
  ActivationQuant out_quant;
  std::vector<uint8_t> a;
  Int8PackedFilters packed;
  Tensor b;
  Tensor bias;
};

RequantCase MakeCase(Rng& shape_rng, int trial, int panel_width) {
  RequantCase c;
  c.m = 1 + static_cast<int>(shape_rng.NextBelow(23));
  c.n = 1 + static_cast<int>(shape_rng.NextBelow(2 * GemmNativePanelWidth() + 7));
  c.k = 1 + static_cast<int>(shape_rng.NextBelow(70));
  c.panel_width = panel_width;

  c.b = RandomTensor(TensorShape{1, 1, c.n, c.k}, 900 + static_cast<uint64_t>(trial));
  PackFilterPanelsInt8(c.b.data(), c.n, c.k, &c.packed, panel_width);

  Rng code_rng(4000 + static_cast<uint64_t>(trial));
  c.a.assign(static_cast<size_t>(c.m) * c.packed.k_padded, 0);
  for (auto& v : c.a) {
    v = static_cast<uint8_t>(code_rng.NextBelow(256));
  }
  c.quant.scale = 0.01f + 0.05f * static_cast<float>(code_rng.NextBelow(10));
  c.quant.zero_point = static_cast<int32_t>(code_rng.NextBelow(256));
  // Output quantization under which the epilogue requantizes — including
  // tight scales that exercise the [0, 255] saturation paths.
  c.out_quant.scale = 0.002f + 0.03f * static_cast<float>(code_rng.NextBelow(8));
  c.out_quant.zero_point = static_cast<int32_t>(code_rng.NextBelow(256));
  c.bias = RandomTensor(TensorShape{1, 1, 1, c.n}, 1100 + static_cast<uint64_t>(trial));

  const GemmEpilogue eps[] = {GemmEpilogue::kNone, GemmEpilogue::kBias,
                              GemmEpilogue::kBiasRelu};
  c.epilogue = eps[shape_rng.NextBelow(3)];
  return c;
}

// ------------------------------------------- kernel-level exact parity ----

// The requantizing epilogue must be BIT-exact (not merely close) between the
// compiled intrinsic tier and the templated scalar oracle: codes are the
// network's dataflow currency, and a single off-by-one code would propagate
// through every downstream layer. Runs both panel widths.
TEST(RequantKernelTest, IntrinsicMatchesScalarOracleExactly) {
  Rng shape_rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    for (const int pw : {kGemmTileNMin, GemmNativePanelWidth()}) {
      RequantCase c = MakeCase(shape_rng, trial * 2 + (pw == GemmNativePanelWidth() ? 1 : 0), pw);

      std::vector<uint8_t> u8_simd(static_cast<size_t>(c.m) * c.n, 0xAA);
      std::vector<uint8_t> u8_scalar(static_cast<size_t>(c.m) * c.n, 0x55);
      GemmInt8PackedExU8(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                         c.out_quant, u8_simd.data(), c.n);
      SetGemmForceScalar(true);
      GemmInt8PackedExU8(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                         c.out_quant, u8_scalar.data(), c.n);
      SetGemmForceScalar(false);

      for (size_t i = 0; i < u8_simd.size(); ++i) {
        ASSERT_EQ(u8_simd[i], u8_scalar[i])
            << "m=" << c.m << " n=" << c.n << " k=" << c.k << " pw=" << pw << " at " << i;
      }
    }
  }
}

// The defining identity of the requant sink: requantize-in-epilogue is a
// fused float-store + QuantizeActivations, byte-for-byte — on the intrinsic
// tier AND the scalar oracle, at both panel widths. This is what lets the
// zero-float network plan claim bit-identical logits to the staged path.
TEST(RequantKernelTest, RequantEqualsFloatStorePlusQuantize) {
  Rng shape_rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    for (const int pw : {kGemmTileNMin, GemmNativePanelWidth()}) {
      for (const bool force_scalar : {false, true}) {
        RequantCase c = MakeCase(shape_rng, 100 + trial * 4 + (pw == GemmNativePanelWidth() ? 2 : 0) +
                                                (force_scalar ? 1 : 0),
                                 pw);

        SetGemmForceScalar(force_scalar);
        std::vector<uint8_t> fused(static_cast<size_t>(c.m) * c.n, 0);
        GemmInt8PackedExU8(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                           c.out_quant, fused.data(), c.n);
        std::vector<float> floats(static_cast<size_t>(c.m) * c.n, 0.0f);
        GemmInt8PackedEx(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                         floats.data(), c.n);
        SetGemmForceScalar(false);
        std::vector<uint8_t> staged(static_cast<size_t>(c.m) * c.n, 0);
        QuantizeActivations(floats.data(), static_cast<int64_t>(floats.size()), c.out_quant,
                            staged.data());

        for (size_t i = 0; i < fused.size(); ++i) {
          ASSERT_EQ(fused[i], staged[i])
              << "m=" << c.m << " n=" << c.n << " k=" << c.k << " pw=" << pw
              << " scalar=" << force_scalar << " at " << i;
        }
      }
    }
  }
}

// -------------------------------------------------- code transforms ----

// Scalar oracle for MaxPoolCodes: each output code is the max over its
// window's in-bounds taps (pad 0).
std::vector<uint8_t> ReferenceMaxPoolCodes(const uint8_t* in, int height, int width,
                                           int channels, int kernel, int stride) {
  const int out_h = (height - kernel) / stride + 1;
  const int out_w = (width - kernel) / stride + 1;
  std::vector<uint8_t> out(static_cast<size_t>(out_h) * out_w * channels, 0);
  for (int oh = 0; oh < out_h; ++oh) {
    for (int ow = 0; ow < out_w; ++ow) {
      for (int c = 0; c < channels; ++c) {
        int best = -1;
        for (int kh = 0; kh < kernel; ++kh) {
          for (int kw = 0; kw < kernel; ++kw) {
            const int ih = oh * stride + kh;
            const int iw = ow * stride + kw;
            if (ih < height && iw < width) {
              best = std::max<int>(best, in[(static_cast<size_t>(ih) * width + iw) * channels + c]);
            }
          }
        }
        out[(static_cast<size_t>(oh) * out_w + ow) * channels + c] = static_cast<uint8_t>(best);
      }
    }
  }
  return out;
}

// The vectorized code max-pool against the scalar oracle, through
// MaxPool2D::ForwardCodes on a batch of 2: odd and even spatial sizes, the
// 3/2 window BuildOriginalSqueezeNet uses and the 2/2 one BuildPercivalNet
// uses, and channel counts below, between and at vector widths. Run on the
// calling thread and under a 3-worker inference pool, where the 57x55 maps
// fan their output rows out (odd sizes, so the last windows clip).
TEST(CodeTransformTest, MaxPoolCodesMatchesScalarOracle) {
  Rng rng(61);
  for (const int threads : {0, 3}) {
    std::optional<ScopedInferencePool> inference;
    if (threads > 0) {
      inference.emplace(threads);
    }
    for (const auto& [kernel, stride] : std::vector<std::pair<int, int>>{{3, 2}, {2, 2}}) {
      for (const int channels : {3, 17, 64}) {
        for (const auto& [h, w] :
             std::vector<std::pair<int, int>>{{7, 9}, {13, 5}, {8, 8}, {57, 55}}) {
          const TensorShape shape{2, h, w, channels};
          std::vector<uint8_t> in(static_cast<size_t>(shape.Elements()));
          for (auto& v : in) {
            v = static_cast<uint8_t>(rng.NextBelow(256));
          }
          MaxPool2D pool(kernel, stride);
          pool.SetTrainingMode(false);
          const TensorShape out_shape = pool.OutputShape(shape);
          std::vector<uint8_t> out(static_cast<size_t>(out_shape.Elements()), 0xAA);
          pool.ForwardCodes(QuantizedTensorView{in.data(), shape, 0.1f, 7}, out.data());
          const size_t in_sample = static_cast<size_t>(h) * w * channels;
          const size_t out_sample = out.size() / 2;
          for (int n = 0; n < 2; ++n) {
            const std::vector<uint8_t> expected = ReferenceMaxPoolCodes(
                in.data() + n * in_sample, h, w, channels, kernel, stride);
            ASSERT_EQ(expected.size(), out_sample);
            for (size_t i = 0; i < out_sample; ++i) {
              ASSERT_EQ(out[n * out_sample + i], expected[i])
                  << "k" << kernel << "/s" << stride << " " << h << "x" << w << "x" << channels
                  << " sample " << n << " at " << i << ", " << threads << " pool threads";
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------- network dataflow plan --

// Captures interior activation calibrations with a couple of float
// forwards, the precondition for any requant link.
void Calibrate(Network& net, const TensorShape& shape) {
  net.SetCalibrationCapture(true);
  net.Forward(RandomTensor(shape, 71, 0.0f, 1.0f));
  net.Forward(RandomTensor(shape, 72, 0.0f, 1.0f));
  net.SetCalibrationCapture(false);
}

// Without interior calibration no consumer qualifies, so the plan must stay
// inert and the staged int8 path runs exactly as before.
TEST(DataflowPlanTest, PlanInertWithoutCalibration) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  net.SetPrecision(Precision::kInt8);
  net.Forward(RandomTensor(config.InputShape(), 81, 0.0f, 1.0f));
  EXPECT_EQ(net.RequantLinkCount(), 0u);
}

// With calibration the plan must engage (conv1 plus every fire module feeds
// a calibrated int8 consumer) — and disengage again when capture mode
// resumes, which re-plans on the next forward.
TEST(DataflowPlanTest, PlanEngagesWithCalibrationAndYieldsToCapture) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);
  Tensor input = RandomTensor(config.InputShape(), 82, 0.0f, 1.0f);

  net.Forward(input);
  EXPECT_GE(net.RequantLinkCount(), 2u) << "calibrated net did not form requant links";

  net.SetCalibrationCapture(true);
  net.Forward(input);
  EXPECT_EQ(net.RequantLinkCount(), 0u) << "capture mode must run float forwards";
  net.SetCalibrationCapture(false);
}

// Float-staged int8 oracle for a planned network: the per-layer walk
// Network::Forward runs when the plan holds no links, with the same kernel
// plans the zero-float forward uses.
Tensor StagedForward(Network& net, const Tensor& input) {
  net.PlanForward(input.shape());
  return net.ForwardUpTo(input, net.LayerCount());
}

// Same oracle on the u8-direct entry: the first conv consumes the codes and
// every later layer runs its float Forward.
Tensor StagedForwardQuantized(Network& net, const QuantizedTensorView& input) {
  net.PlanForward(input.shape);
  Tensor current = net.layer(0).ForwardQuantized(input);
  for (size_t i = 1; i < net.LayerCount(); ++i) {
    current = net.layer(i).Forward(current);
  }
  return current;
}

// The headline contract: the zero-float plan produces BIT-identical logits
// to the float-staged int8 forward. Every link in the chain is exact — the
// requant store equals float store + QuantizeActivations, ReLU/MaxPool
// commute with the monotone quantization map, and the fire module's
// quantized squeeze hop reproduces the staged expand-side quantization.
TEST(DataflowPlanTest, ZeroFloatPlanBitIdenticalToStagedInt8) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  for (int trial = 0; trial < 4; ++trial) {
    Tensor input = RandomTensor(config.InputShape(), 90 + static_cast<uint64_t>(trial),
                                0.0f, 1.0f);
    Tensor staged = StagedForward(net, input);
    Tensor zero_float = net.Forward(input);
    ASSERT_GE(net.RequantLinkCount(), 2u);

    ASSERT_TRUE(staged.shape() == zero_float.shape());
    for (int64_t i = 0; i < staged.size(); ++i) {
      ASSERT_EQ(staged[i], zero_float[i]) << "logit " << i << " diverged on trial " << trial;
    }
  }
}

// Same identity through the u8-direct entry (codes in from preprocessing):
// ForwardQuantized under the plan matches the staged u8-entry walk, bitwise.
TEST(DataflowPlanTest, QuantizedEntryBitIdenticalToStagedInt8) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  float lo = 0.0f;
  float hi = 1.0f;
  ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  Tensor input = RandomTensor(config.InputShape(), 95, 0.0f, 1.0f);
  std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
  QuantizeActivations(input.data(), input.size(), quant, codes.data());
  QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};

  Tensor staged = StagedForwardQuantized(net, view);
  Tensor zero_float = net.ForwardQuantized(view);
  ASSERT_GE(net.RequantLinkCount(), 2u);

  ASSERT_TRUE(staged.shape() == zero_float.shape());
  for (int64_t i = 0; i < staged.size(); ++i) {
    ASSERT_EQ(staged[i], zero_float[i]) << "logit " << i;
  }
}

// The planner folds conv1's ReLU into conv1's requant store (kBiasRelu).
// With a zero point of 0 that fold is the identity — the requant clamp
// already maps every negative value to code 0 — so this case loads a
// trailer whose consumer range (fire1's input) has a negative min: the
// consumer's zero point lands mid-range, and a missing ReLU would leave
// codes below it. Both entries must still match the staged walk bitwise.
TEST(DataflowPlanTest, FoldedReluBitIdenticalWithNonZeroZeroPoint) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  std::vector<ActivationCalibration> entries = net.CollectCalibration();
  // Slot 0 is conv1's input; slot 1 is fire1's squeeze input, the range
  // conv1 -> relu -> maxpool emits under.
  ASSERT_GT(entries.size(), 2u);
  ASSERT_GT(entries[1].max_value, 0.0f);
  entries[1].min_value = -entries[1].max_value;
  // The last slot is GlobalAvgPool's: a trailer-supplied GAP range arms
  // GAP-on-codes, which averages in code space and is not bit-identical to
  // the staged walk (its own accuracy guard covers it), so leave it out.
  entries.back().valid = false;
  ASSERT_TRUE(net.LoadCalibration(entries));
  ASSERT_NE(ComputeActivationQuant(entries[1].min_value, entries[1].max_value).zero_point, 0);
  net.SetPrecision(Precision::kInt8);

  for (int trial = 0; trial < 3; ++trial) {
    Tensor input = RandomTensor(config.InputShape(), 110 + static_cast<uint64_t>(trial),
                                0.0f, 1.0f);
    Tensor staged = StagedForward(net, input);
    Tensor zero_float = net.Forward(input);
    ASSERT_GE(net.RequantLinkCount(), 2u);
    ASSERT_TRUE(staged.shape() == zero_float.shape());
    for (int64_t i = 0; i < staged.size(); ++i) {
      ASSERT_EQ(staged[i], zero_float[i]) << "float entry, logit " << i << ", trial " << trial;
    }

    float lo = 0.0f;
    float hi = 1.0f;
    ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
    const ActivationQuant quant = ComputeActivationQuant(lo, hi);
    std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
    QuantizeActivations(input.data(), input.size(), quant, codes.data());
    const QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};
    Tensor staged_u8 = StagedForwardQuantized(net, view);
    Tensor zero_float_u8 = net.ForwardQuantized(view);
    for (int64_t i = 0; i < staged_u8.size(); ++i) {
      ASSERT_EQ(staged_u8[i], zero_float_u8[i]) << "u8 entry, logit " << i << ", trial " << trial;
    }
  }
}

// ReLU has no code pass: it links only by folding into the emitter directly
// before it. In conv -> maxpool -> relu -> conv -> relu -> conv the first
// ReLU is not adjacent to an emitter, so conv_a runs unlinked (float) and
// only conv_b -> relu -> conv_c links. Both entries still match the staged
// walk bitwise.
TEST(DataflowPlanTest, NonAdjacentReluEndsTheChain) {
  const TensorShape shape{2, 12, 10, 3};
  Rng rng(63);
  Network net;
  net.Add<Conv2D>(3, 8, 3, 1, 1, rng, "conv_a");
  net.Add<MaxPool2D>(2, 2);
  net.Add<Relu>();
  net.Add<Conv2D>(8, 8, 1, 1, 0, rng, "conv_b");
  net.Add<Relu>();
  net.Add<Conv2D>(8, 4, 1, 1, 0, rng, "conv_c");
  net.SetTrainingMode(false);
  Calibrate(net, shape);
  net.SetPrecision(Precision::kInt8);

  const Tensor input = RandomTensor(shape, 120, 0.0f, 1.0f);
  const Tensor staged = StagedForward(net, input);
  const Tensor planned = net.Forward(input);
  EXPECT_EQ(net.RequantLinkCount(), 1u) << "the planner linked through a non-adjacent ReLU";
  ASSERT_TRUE(staged.shape() == planned.shape());
  for (int64_t i = 0; i < staged.size(); ++i) {
    ASSERT_EQ(staged[i], planned[i]) << "float entry, output " << i;
  }

  float lo = 0.0f;
  float hi = 1.0f;
  ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
  QuantizeActivations(input.data(), input.size(), quant, codes.data());
  const QuantizedTensorView view{codes.data(), shape, quant.scale, quant.zero_point};
  const Tensor staged_u8 = StagedForwardQuantized(net, view);
  const Tensor planned_u8 = net.ForwardQuantized(view);
  EXPECT_EQ(net.RequantLinkCount(), 1u);
  for (int64_t i = 0; i < staged_u8.size(); ++i) {
    ASSERT_EQ(staged_u8[i], planned_u8[i]) << "u8 entry, output " << i;
  }
}

// A fire links only through its quantized squeeze hop, which needs both
// expand ranges. A trailer that drops fire3's two expand slots leaves fire3
// neither consuming nor emitting codes: the plan loses the link into fire3
// and fire3's own, fire3 runs its float Forward, and both entries still
// match the staged walk bitwise.
TEST(DataflowPlanTest, PartialTrailerLeavesFireUnlinkedAndBitIdentical) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  std::vector<ActivationCalibration> entries = net.CollectCalibration();
  // GAP-on-codes is not bit-identical to the staged walk (see
  // FoldedReluBitIdenticalWithNonZeroZeroPoint), so its slot stays out of
  // both trailers.
  entries.back().valid = false;
  ASSERT_TRUE(net.LoadCalibration(entries));
  net.SetPrecision(Precision::kInt8);
  const Tensor probe = RandomTensor(config.InputShape(), 130, 0.0f, 1.0f);
  net.Forward(probe);
  const size_t full_links = net.RequantLinkCount();
  ASSERT_GE(full_links, 2u);

  // Slots: conv1 (0), then squeeze / expand1x1 / expand3x3 per fire, so
  // fire3's expands are slots 8 and 9.
  ASSERT_GT(entries.size(), 10u);
  ASSERT_TRUE(entries[8].valid && entries[9].valid);
  entries[8].valid = false;
  entries[9].valid = false;
  ASSERT_TRUE(net.LoadCalibration(entries));

  for (int trial = 0; trial < 2; ++trial) {
    const Tensor input = RandomTensor(config.InputShape(), 131 + static_cast<uint64_t>(trial),
                                      0.0f, 1.0f);
    const Tensor staged = StagedForward(net, input);
    const Tensor planned = net.Forward(input);
    EXPECT_EQ(net.RequantLinkCount(), full_links - 2);
    ASSERT_TRUE(staged.shape() == planned.shape());
    for (int64_t i = 0; i < staged.size(); ++i) {
      ASSERT_EQ(staged[i], planned[i]) << "float entry, logit " << i << ", trial " << trial;
    }

    float lo = 0.0f;
    float hi = 1.0f;
    ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
    const ActivationQuant quant = ComputeActivationQuant(lo, hi);
    std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
    QuantizeActivations(input.data(), input.size(), quant, codes.data());
    const QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};
    const Tensor staged_u8 = StagedForwardQuantized(net, view);
    const Tensor planned_u8 = net.ForwardQuantized(view);
    EXPECT_EQ(net.RequantLinkCount(), full_links - 2);
    for (int64_t i = 0; i < staged_u8.size(); ++i) {
      ASSERT_EQ(staged_u8[i], planned_u8[i]) << "u8 entry, logit " << i << ", trial " << trial;
    }
  }
}

// Counter proof of the zero-float claim: in steady state a planned
// ForwardQuantized constructs only the two tail tensors past the last code
// consumer (conv_final's output and the global-average-pool logits — a few
// dozen floats), grows no arena, and grows no code buffer. No feature-map
// float tensor and no heap allocation exist between codes-in and
// logits-out.
TEST(DataflowPlanTest, SteadyStateAllocatesNoFloatActivationTensor) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  float lo = 0.0f;
  float hi = 1.0f;
  ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  Tensor input = RandomTensor(config.InputShape(), 97, 0.0f, 1.0f);
  std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
  QuantizeActivations(input.data(), input.size(), quant, codes.data());
  QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};

  // Warm up: plan, size the code buffers, pack the weights, grow the arena.
  net.ForwardQuantized(view);
  net.ForwardQuantized(view);
  ASSERT_GE(net.RequantLinkCount(), 2u);

  const size_t arena_before = LocalArena().CapacityFloats();
  const size_t code_capacity_before = net.CodeBufferCapacity();
  const TensorAllocStats before = GetTensorAllocStats();
  Tensor logits = net.ForwardQuantized(view);
  const TensorAllocStats after = GetTensorAllocStats();

  EXPECT_EQ(LocalArena().CapacityFloats(), arena_before) << "steady-state forward grew the arena";
  EXPECT_EQ(net.CodeBufferCapacity(), code_capacity_before)
      << "steady-state forward grew the code buffers";
  // conv_final's output + the GAP logits; anything more means a float
  // activation tensor existed on the code path.
  EXPECT_LE(after.constructions - before.constructions, 2u);
  const uint64_t tail_elements =
      static_cast<uint64_t>(net.OutputShape(input.shape()).Elements()) +
      static_cast<uint64_t>(logits.size()) * 16;  // conv_final map is tiny vs any feature map
  EXPECT_LE(after.elements - before.elements, tail_elements + 64)
      << "a float activation tensor was allocated between codes and logits";
}

// The inference pool changes which thread computes each row, never the
// arithmetic: the calibrated paper-profile u8-direct forward gives the same
// logits, bit for bit, on the calling thread alone, under a 1-worker pool
// and under a 3-worker pool that fans out every conv, fire and code
// max-pool.
TEST(DataflowPlanTest, PaperProfileLogitsIdenticalAcrossInferencePools) {
  const PercivalNetConfig config = PaperProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  float lo = 0.0f;
  float hi = 1.0f;
  ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  Tensor input = RandomTensor(config.InputShape(), 98, 0.0f, 1.0f);
  std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
  QuantizeActivations(input.data(), input.size(), quant, codes.data());
  const QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};

  ASSERT_EQ(InferenceThreadPool(), nullptr);
  const Tensor single = net.ForwardQuantized(view);
  ASSERT_GE(net.RequantLinkCount(), 2u);
  for (const int threads : {1, 3}) {
    ScopedInferencePool pool(threads);
    const Tensor pooled = net.ForwardQuantized(view);
    ASSERT_TRUE(pooled.shape() == single.shape());
    for (int64_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(pooled[i], single[i]) << threads << "-worker pool, logit " << i;
    }
  }
}

// -------------------------------------------------------- accuracy guard --

// The 64-image float-vs-int8 accuracy guard, re-run with the zero-float
// plan active: quantized decisions must still agree with float >= 99% and
// every logit stays inside the tolerance — i.e. the dataflow plan changes
// WHERE quantization happens (in the epilogue), never WHAT it computes.
TEST(RequantAccuracyGuardTest, TopOneAgreementWithZeroFloatPlanActive) {
  const PercivalNetConfig config = TestProfile();
  Network float_net = BuildPercivalNet(config);
  Network int8_net = BuildPercivalNet(config);  // same init_seed -> same weights
  float_net.SetTrainingMode(false);
  int8_net.SetTrainingMode(false);

  const int kBatch = 64;
  Rng rng(123);
  std::vector<Bitmap> images;
  images.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    if (i % 2 == 0) {
      AdImageOptions options;
      images.push_back(GenerateAdImage(rng, options));
    } else {
      ContentImageOptions options;
      images.push_back(GenerateContentImage(rng, options));
    }
  }

  Tensor batch(kBatch, config.input_size, config.input_size, config.input_channels);
  for (int i = 0; i < kBatch; ++i) {
    BitmapToTensorInto(images[static_cast<size_t>(i)], config.input_size,
                       config.input_channels, batch.SampleData(i));
  }

  // Calibrate on the real batch, then flip to int8 with the plan engaged.
  int8_net.SetCalibrationCapture(true);
  int8_net.Forward(batch);
  int8_net.SetCalibrationCapture(false);
  int8_net.SetPrecision(Precision::kInt8);

  Tensor float_logits = float_net.Forward(batch);
  Tensor int8_logits = int8_net.Forward(batch);
  ASSERT_GE(int8_net.RequantLinkCount(), 2u) << "guard must run with the plan active";
  ASSERT_TRUE(float_logits.shape() == int8_logits.shape());

  int agree = 0;
  float worst_logit_diff = 0.0f;
  for (int i = 0; i < kBatch; ++i) {
    if (float_logits.ArgMaxInSample(i) == int8_logits.ArgMaxInSample(i)) {
      ++agree;
    }
    for (int c = 0; c < config.classes; ++c) {
      worst_logit_diff = std::max(
          worst_logit_diff, std::abs(float_logits.at(i, 0, 0, c) - int8_logits.at(i, 0, 0, c)));
    }
  }
  const double agreement = static_cast<double>(agree) / kBatch;
  EXPECT_GE(agreement, 0.99) << "zero-float plan flipped " << (kBatch - agree) << " of "
                             << kBatch << " top-1 decisions";
  EXPECT_LE(worst_logit_diff, 0.05f) << "zero-float logits drifted past the guard tolerance";
  (void)MaxAbsDiff;
}

// GAP-on-codes guard: when the link is enabled the final conv's requantized
// store feeds GlobalAvgPool directly as codes — one more requant link, no
// float activation tensor before pooling. The average moves into code
// space, so logits are NOT bit-identical to the staged path; this 64-image
// >= 99% top-1 agreement guard is the CI gate the link rides on. Only
// trailer-supplied GAP ranges link: a live-captured range stays staged, and
// a LoadCalibration round trip (what a PCVW v2 trailer load does) arms it.
TEST(RequantAccuracyGuardTest, TopOneAgreementWithGapOnCodes) {
  const PercivalNetConfig config = TestProfile();
  Network float_net = BuildPercivalNet(config);
  Network int8_net = BuildPercivalNet(config);  // same init_seed -> same weights
  float_net.SetTrainingMode(false);
  int8_net.SetTrainingMode(false);

  const int kBatch = 64;
  Rng rng(321);
  std::vector<Bitmap> images;
  images.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    if (i % 2 == 0) {
      AdImageOptions options;
      images.push_back(GenerateAdImage(rng, options));
    } else {
      ContentImageOptions options;
      images.push_back(GenerateContentImage(rng, options));
    }
  }
  Tensor batch(kBatch, config.input_size, config.input_size, config.input_channels);
  for (int i = 0; i < kBatch; ++i) {
    BitmapToTensorInto(images[static_cast<size_t>(i)], config.input_size,
                       config.input_channels, batch.SampleData(i));
  }

  // Calibration also captures GAP's input range — the slot the GAP link
  // needs to derive conv_final's emit quantization.
  int8_net.SetCalibrationCapture(true);
  int8_net.Forward(batch);
  int8_net.SetCalibrationCapture(false);
  int8_net.SetPrecision(Precision::kInt8);

  int8_net.Forward(batch);
  const size_t links_without_gap = int8_net.RequantLinkCount();

  // Round-tripping the captured entries through LoadCalibration arms the
  // link; LoadCalibration invalidates the plan, so the forward re-plans.
  ASSERT_TRUE(int8_net.LoadCalibration(int8_net.CollectCalibration()));
  Tensor float_logits = float_net.Forward(batch);
  Tensor int8_logits = int8_net.Forward(batch);
  const size_t links_with_gap = int8_net.RequantLinkCount();

  ASSERT_GT(links_with_gap, links_without_gap)
      << "a trailer-supplied GAP range did not add the conv_final -> global_avgpool link";
  ASSERT_TRUE(float_logits.shape() == int8_logits.shape());

  int agree = 0;
  for (int i = 0; i < kBatch; ++i) {
    if (float_logits.ArgMaxInSample(i) == int8_logits.ArgMaxInSample(i)) {
      ++agree;
    }
  }
  const double agreement = static_cast<double>(agree) / kBatch;
  EXPECT_GE(agreement, 0.99) << "GAP-on-codes flipped " << (kBatch - agree) << " of "
                             << kBatch << " top-1 decisions";

  // A range captured live in this process replaces the trailer's and must
  // not link.
  int8_net.SetCalibrationCapture(true);
  int8_net.Forward(batch);
  int8_net.SetCalibrationCapture(false);
  int8_net.Forward(batch);
  EXPECT_EQ(int8_net.RequantLinkCount(), links_without_gap)
      << "a live-captured GAP range linked";
}

}  // namespace
}  // namespace percival
