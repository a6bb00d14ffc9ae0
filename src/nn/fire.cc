#include "src/nn/fire.h"

#include <algorithm>
#include <sstream>

#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {

FireModule::FireModule(int in_channels, int squeeze_channels, int expand_channels, Rng& rng,
                       std::string name)
    : squeeze_channels_(squeeze_channels),
      expand_channels_(expand_channels),
      label_(std::move(name)),
      squeeze_(in_channels, squeeze_channels, 1, 1, 0, rng, label_ + ".squeeze"),
      expand1x1_(squeeze_channels, expand_channels, 1, 1, 0, rng, label_ + ".expand1x1"),
      expand3x3_(squeeze_channels, expand_channels, 3, 1, 1, rng, label_ + ".expand3x3") {}

std::string FireModule::Name() const {
  std::ostringstream out;
  out << label_ << " s" << squeeze_channels_ << " e" << expand_channels_ << "+"
      << expand_channels_;
  return out.str();
}

std::vector<Parameter*> FireModule::Parameters() {
  std::vector<Parameter*> params;
  for (Parameter* p : squeeze_.Parameters()) {
    params.push_back(p);
  }
  for (Parameter* p : expand1x1_.Parameters()) {
    params.push_back(p);
  }
  for (Parameter* p : expand3x3_.Parameters()) {
    params.push_back(p);
  }
  return params;
}

TensorShape FireModule::OutputShape(const TensorShape& input) const {
  // 1x1 stride-1 and padded-3x3 stride-1 convolutions preserve spatial size.
  return TensorShape{input.n, input.h, input.w, out_channels()};
}

int64_t FireModule::ForwardMacs(const TensorShape& input) const {
  TensorShape squeezed{input.n, input.h, input.w, squeeze_channels_};
  return squeeze_.ForwardMacs(input) + expand1x1_.ForwardMacs(squeezed) +
         expand3x3_.ForwardMacs(squeezed);
}

size_t FireModule::ForwardScratchFloats(const TensorShape& input) const {
  // The three convs run sequentially and each resets the arena first, so
  // the requirement is the maximum, not the sum.
  const TensorShape squeezed{input.n, input.h, input.w, squeeze_channels_};
  return std::max({squeeze_.ForwardScratchFloats(input),
                   expand1x1_.ForwardScratchFloats(squeezed),
                   expand3x3_.ForwardScratchFloats(squeezed)});
}

void FireModule::set_use_gemm(bool use_gemm) {
  squeeze_.set_use_gemm(use_gemm);
  expand1x1_.set_use_gemm(use_gemm);
  expand3x3_.set_use_gemm(use_gemm);
}

void FireModule::SetTrainingMode(bool training) {
  training_ = training;
  squeeze_.SetTrainingMode(training);
  expand1x1_.SetTrainingMode(training);
  expand3x3_.SetTrainingMode(training);
  squeeze_relu_.SetTrainingMode(training);
  expand_relu_.SetTrainingMode(training);
}

void FireModule::SetPrecision(Precision precision) {
  squeeze_.SetPrecision(precision);
  expand1x1_.SetPrecision(precision);
  expand3x3_.SetPrecision(precision);
}

void FireModule::PlanKernels(const TensorShape& input) {
  const TensorShape squeezed{input.n, input.h, input.w, squeeze_channels_};
  squeeze_.PlanKernels(input);
  expand1x1_.PlanKernels(squeezed);
  expand3x3_.PlanKernels(squeezed);
}

void FireModule::AppendKernelPlanRows(std::vector<KernelPlanRow>* out) const {
  squeeze_.AppendKernelPlanRows(out);
  expand1x1_.AppendKernelPlanRows(out);
  expand3x3_.AppendKernelPlanRows(out);
}

void FireModule::SetCalibrationCapture(bool capture) {
  squeeze_.SetCalibrationCapture(capture);
  expand1x1_.SetCalibrationCapture(capture);
  expand3x3_.SetCalibrationCapture(capture);
}

void FireModule::AppendCalibration(std::vector<ActivationCalibration>* out) const {
  squeeze_.AppendCalibration(out);
  expand1x1_.AppendCalibration(out);
  expand3x3_.AppendCalibration(out);
}

size_t FireModule::ConsumeCalibration(const ActivationCalibration* entries, size_t count) {
  // Clamp after every child: `count - consumed` is size_t arithmetic, so a
  // child overreporting its take (or any future drift between slot counts)
  // would wrap the remaining count to ~2^64 and hand the next child a wild
  // pointer range. A truncated trailer (count < 3) stops cleanly instead.
  size_t consumed = std::min(squeeze_.ConsumeCalibration(entries, count), count);
  consumed += std::min(expand1x1_.ConsumeCalibration(entries + consumed, count - consumed),
                       count - consumed);
  consumed += std::min(expand3x3_.ConsumeCalibration(entries + consumed, count - consumed),
                       count - consumed);
  return consumed;
}

bool FireModule::AcceptsQuantizedInput() const {
  ActivationQuant hop;
  return use_fused_ && squeeze_.AcceptsQuantizedInput() && expand1x1_.AcceptsQuantizedInput() &&
         expand3x3_.AcceptsQuantizedInput() && QuantizedSqueezeHop(&hop);
}

bool FireModule::QuantizedSqueezeHop(ActivationQuant* hop_quant) const {
  float min1 = 0.0f, max1 = 0.0f, min2 = 0.0f, max2 = 0.0f;
  if (!expand1x1_.InputCalibration(&min1, &max1) ||
      !expand3x3_.InputCalibration(&min2, &max2)) {
    return false;
  }
  if (min1 != min2 || max1 != max2) {
    return false;
  }
  *hop_quant = ComputeActivationQuant(min1, max1);
  return true;
}

QuantizedTensorView FireModule::SqueezeToCodes(const Tensor* float_in,
                                               const QuantizedTensorView* code_in) {
  PCHECK((float_in != nullptr) != (code_in != nullptr));
  PCHECK(AcceptsQuantizedInput()) << Name() << " cannot run quantized";
  ActivationQuant hop;
  QuantizedSqueezeHop(&hop);
  const TensorShape& in_shape = float_in != nullptr ? float_in->shape() : code_in->shape;
  const TensorShape squeezed_shape{in_shape.n, in_shape.h, in_shape.w, squeeze_channels_};
  const int64_t squeezed_stride =
      static_cast<int64_t>(squeezed_shape.h) * squeezed_shape.w * squeeze_channels_;
  squeezed_codes_.resize(static_cast<size_t>(squeezed_shape.Elements()));
  if (float_in != nullptr) {
    squeeze_.ForwardIntoU8(*float_in, GemmEpilogue::kBiasRelu, hop, squeezed_codes_.data(),
                           squeeze_channels_, squeezed_stride);
  } else {
    squeeze_.ForwardQuantizedIntoU8(*code_in, GemmEpilogue::kBiasRelu, hop,
                                    squeezed_codes_.data(), squeeze_channels_, squeezed_stride);
  }
  return QuantizedTensorView{squeezed_codes_.data(), squeezed_shape, hop.scale, hop.zero_point};
}

void FireModule::ExpandToCodes(const QuantizedTensorView& squeezed, float out_scale,
                               int32_t out_zero_point, uint8_t* out) {
  const ActivationQuant out_quant{out_scale, out_zero_point};
  const int64_t ldc = out_channels();
  const int64_t sample_stride = static_cast<int64_t>(squeezed.shape.h) * squeezed.shape.w * ldc;
  expand1x1_.ForwardQuantizedIntoU8(squeezed, GemmEpilogue::kBiasRelu, out_quant, out, ldc,
                                    sample_stride);
  expand3x3_.ForwardQuantizedIntoU8(squeezed, GemmEpilogue::kBiasRelu, out_quant,
                                    out + expand_channels_, ldc, sample_stride);
}

Tensor FireModule::ForwardQuantized(const QuantizedTensorView& input) {
  const QuantizedTensorView squeezed = SqueezeToCodes(nullptr, &input);
  Tensor joined(OutputShape(input.shape));
  const int64_t ldc = out_channels();
  const int64_t sample_stride = static_cast<int64_t>(squeezed.shape.h) * squeezed.shape.w * ldc;
  expand1x1_.ForwardQuantizedInto(squeezed, GemmEpilogue::kBiasRelu, joined.data(), ldc,
                                  sample_stride);
  expand3x3_.ForwardQuantizedInto(squeezed, GemmEpilogue::kBiasRelu,
                                  joined.data() + expand_channels_, ldc, sample_stride);
  return joined;
}

void FireModule::ForwardToCodes(const Tensor& input, float out_scale, int32_t out_zero_point,
                                bool relu, uint8_t* out) {
  (void)relu;
  ExpandToCodes(SqueezeToCodes(&input, nullptr), out_scale, out_zero_point, out);
}

void FireModule::ForwardQuantizedToCodes(const QuantizedTensorView& input, float out_scale,
                                         int32_t out_zero_point, bool relu, uint8_t* out) {
  (void)relu;
  ExpandToCodes(SqueezeToCodes(nullptr, &input), out_scale, out_zero_point, out);
}

Tensor FireModule::Forward(const Tensor& input) {
  if (use_fused_ && squeeze_.use_gemm() && expand1x1_.use_gemm() && expand3x3_.use_gemm()) {
    // Squeeze + ReLU in one GEMM pass; the mask Backward() needs is
    // recovered from the post-activation output (exactly equal to the
    // pre-activation sign mask).
    Tensor squeezed = squeeze_.ForwardFused(input, GemmEpilogue::kBiasRelu);
    squeeze_relu_.SetMaskFromOutput(squeezed);

    // Each expand branch writes relu(conv + bias) straight into its
    // channel-half of the concat tensor: no expand intermediates, no
    // interleave copy, no separate ReLU sweep.
    const TensorShape out_shape = OutputShape(input.shape());
    Tensor joined(out_shape);
    const int64_t ldc = out_shape.c;
    const int64_t sample_stride = static_cast<int64_t>(out_shape.h) * out_shape.w * ldc;
    expand1x1_.ForwardInto(squeezed, GemmEpilogue::kBiasRelu, joined.data(), ldc,
                           sample_stride);
    expand3x3_.ForwardInto(squeezed, GemmEpilogue::kBiasRelu,
                           joined.data() + expand_channels_, ldc, sample_stride);
    expand_relu_.SetMaskFromOutput(joined);
    return joined;
  }
  return ForwardReference(input);
}

Tensor FireModule::ForwardReference(const Tensor& input) {
  Tensor squeezed = squeeze_relu_.Forward(squeeze_.Forward(input));
  Tensor left = expand1x1_.Forward(squeezed);
  Tensor right = expand3x3_.Forward(squeezed);
  PCHECK(left.shape() == right.shape());

  // Concatenate along channels, then apply ReLU over the joined tensor.
  TensorShape out_shape = OutputShape(input.shape());
  Tensor joined(out_shape);
  const int e = expand_channels_;
  const int64_t pixels = static_cast<int64_t>(out_shape.n) * out_shape.h * out_shape.w;
  for (int64_t p = 0; p < pixels; ++p) {
    float* dst = joined.data() + p * 2 * e;
    const float* l = left.data() + p * e;
    const float* r = right.data() + p * e;
    for (int c = 0; c < e; ++c) {
      dst[c] = l[c];
      dst[e + c] = r[c];
    }
  }
  return expand_relu_.Forward(joined);
}

Tensor FireModule::Backward(const Tensor& grad_output) {
  PCHECK(training_) << Name() << " Backward called in eval mode";
  Tensor grad_joined = expand_relu_.Backward(grad_output);

  const int e = expand_channels_;
  const TensorShape& shape = grad_joined.shape();
  Tensor grad_left(shape.n, shape.h, shape.w, e);
  Tensor grad_right(shape.n, shape.h, shape.w, e);
  const int64_t pixels = static_cast<int64_t>(shape.n) * shape.h * shape.w;
  for (int64_t p = 0; p < pixels; ++p) {
    const float* src = grad_joined.data() + p * 2 * e;
    float* l = grad_left.data() + p * e;
    float* r = grad_right.data() + p * e;
    for (int c = 0; c < e; ++c) {
      l[c] = src[c];
      r[c] = src[e + c];
    }
  }

  Tensor grad_squeezed = expand1x1_.Backward(grad_left);
  grad_squeezed.Add(expand3x3_.Backward(grad_right));
  return squeeze_.Backward(squeeze_relu_.Backward(grad_squeezed));
}

}  // namespace percival
