// Tests for the PCVW weight serialization, v2 quantized format, and the
// hardened deserializer: v1->v2 round trips whose reloaded int8 forward is
// bit-identical to the pack-time-quantized path, the >=3.5x artifact-size
// win, fuzz-ish corruption coverage (truncations at every prefix length,
// hostile length fields, bad versions/counts/scales), and the atomicity
// guarantee that a failed load leaves the destination network untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/classifier.h"
#include "src/core/model.h"
#include "src/core/model_zoo.h"
#include "src/nn/conv.h"
#include "src/nn/fire.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/serialize.h"

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

// The test-profile PERCIVAL net: every parameter kind the serializer
// handles (conv weights, biases, nested fire-module convs) at unit-test
// size.
Network ProfileNet(uint64_t seed) {
  PercivalNetConfig config = TestProfile();
  config.init_seed = seed;
  return BuildPercivalNet(config);
}

// Captures a bitwise snapshot of all parameter values + versions.
struct NetSnapshot {
  std::vector<std::vector<float>> values;
  std::vector<uint64_t> versions;
};

NetSnapshot Snapshot(Network& net) {
  NetSnapshot snap;
  for (Parameter* p : net.Parameters()) {
    snap.values.emplace_back(p->value.data(), p->value.data() + p->value.size());
    snap.versions.push_back(p->version);
  }
  return snap;
}

void ExpectUnchanged(Network& net, const NetSnapshot& snap) {
  std::vector<Parameter*> params = net.Parameters();
  ASSERT_EQ(params.size(), snap.values.size());
  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->version, snap.versions[i]) << params[i]->name;
    ASSERT_EQ(0, std::memcmp(params[i]->value.data(), snap.values[i].data(),
                             sizeof(float) * snap.values[i].size()))
        << params[i]->name << " mutated by a failed load";
  }
}

// ------------------------------------------------------- v2 round trips --

// The acceptance line: a v2 artifact reloaded into a fresh network must run
// int8 inference bit-identical to the network that wrote it (whose int8
// panels were quantized from the original floats at pack time) — the
// serializer uses the same QuantizeWeightRow and the loader injects the
// codes straight into the pack cache.
TEST(SerializeV2Test, ReloadedInt8ForwardBitIdenticalToPackTimePath) {
  Network writer = ProfileNet(1);
  const std::vector<uint8_t> bytes = SerializeWeightsInt8(writer);

  Network reader = ProfileNet(999);  // different init: the load must matter
  ASSERT_TRUE(DeserializeWeights(reader, bytes));

  writer.SetTrainingMode(false);
  reader.SetTrainingMode(false);
  writer.SetPrecision(Precision::kInt8);
  reader.SetPrecision(Precision::kInt8);

  const Tensor input = RandomTensor(TestProfile().InputShape(2), 7, 0.0f, 1.0f);
  Tensor from_writer = writer.Forward(input);
  Tensor from_reader = reader.Forward(input);
  EXPECT_EQ(MaxAbsDiff(from_writer, from_reader), 0.0f)
      << "v2 reload is not bit-identical to the pack-time-quantized path";

  // Same guarantee through the scalar oracle (SetGemmForceScalar parity).
  SetGemmForceScalar(true);
  Tensor scalar_writer = writer.Forward(input);
  Tensor scalar_reader = reader.Forward(input);
  SetGemmForceScalar(false);
  EXPECT_EQ(MaxAbsDiff(scalar_writer, scalar_reader), 0.0f);
}

// The float view of a v2 load is the dequantized weights: every conv
// weight parameter carries a fresh payload whose scale * code reproduces
// value[] exactly, and biases stay float-exact.
TEST(SerializeV2Test, FloatViewIsDequantizedCodes) {
  Network writer = ProfileNet(2);
  const std::vector<uint8_t> bytes = SerializeWeightsInt8(writer);
  Network reader = ProfileNet(998);
  ASSERT_TRUE(DeserializeWeights(reader, bytes));

  std::vector<Parameter*> writer_params = writer.Parameters();
  std::vector<Parameter*> reader_params = reader.Parameters();
  ASSERT_EQ(writer_params.size(), reader_params.size());
  for (size_t i = 0; i < reader_params.size(); ++i) {
    Parameter* p = reader_params[i];
    const bool is_weight = p->name.size() > 7 &&
                           p->name.compare(p->name.size() - 7, 7, ".weight") == 0;
    if (!is_weight) {
      // Bias / non-conv records are raw float: bitwise round trip.
      ASSERT_EQ(0, std::memcmp(p->value.data(), writer_params[i]->value.data(),
                               sizeof(float) * static_cast<size_t>(p->value.size())))
          << p->name;
      continue;
    }
    ASSERT_NE(p->quantized, nullptr) << p->name;
    ASSERT_EQ(p->quantized->version, p->version) << p->name;
    const int channels = p->value.shape().n;
    const int k = static_cast<int>(p->value.size() / channels);
    ASSERT_EQ(p->quantized->codes.size(), static_cast<size_t>(p->value.size()));
    ASSERT_EQ(p->quantized->scales.size(), static_cast<size_t>(channels));
    for (int ch = 0; ch < channels; ++ch) {
      for (int kk = 0; kk < k; ++kk) {
        const int64_t idx = static_cast<int64_t>(ch) * k + kk;
        ASSERT_EQ(p->value[idx],
                  p->quantized->scales[static_cast<size_t>(ch)] *
                      static_cast<float>(p->quantized->codes[static_cast<size_t>(idx)]))
            << p->name << " element " << idx;
      }
    }
  }
}

// Serialize float -> reload -> quantize -> serialize v2 -> reload: the full
// v1->v2 pipeline the deployment story ships, ending in the same
// bit-identical int8 forward.
TEST(SerializeV2Test, V1ToV2PipelineRoundTrip) {
  Network original = ProfileNet(3);
  const std::vector<uint8_t> v1 = SerializeWeights(original);

  Network checkpoint = ProfileNet(997);
  ASSERT_TRUE(DeserializeWeights(checkpoint, v1));
  const std::vector<uint8_t> v2 = SerializeWeightsInt8(checkpoint);

  Network deployed = ProfileNet(996);
  ASSERT_TRUE(DeserializeWeights(deployed, v2));

  original.SetTrainingMode(false);
  deployed.SetTrainingMode(false);
  original.SetPrecision(Precision::kInt8);
  deployed.SetPrecision(Precision::kInt8);
  const Tensor input = RandomTensor(TestProfile().InputShape(), 8, 0.0f, 1.0f);
  EXPECT_EQ(MaxAbsDiff(original.Forward(input), deployed.Forward(input)), 0.0f);
}

// The deployment artifact must be >= 3.5x smaller than the float
// checkpoint for the experiment-profile model (int8 codes + one scale per
// channel vs 4 bytes per weight; biases stay float in both).
TEST(SerializeV2Test, ArtifactAtLeast3p5xSmallerThanV1) {
  PercivalNetConfig config = ExperimentProfile();
  Network net = BuildPercivalNet(config);
  const double v1_bytes = static_cast<double>(SerializeWeights(net).size());
  const double v2_bytes = static_cast<double>(SerializeWeightsInt8(net).size());
  EXPECT_GE(v1_bytes / v2_bytes, 3.5)
      << "v1 " << v1_bytes << " bytes, v2 " << v2_bytes << " bytes";
}

// Mutating a parameter after a v2 load strands the pre-quantized payload
// (version mismatch) and the pack cache falls back to requantizing the
// current floats — stale injected codes must never survive an update.
TEST(SerializeV2Test, PayloadGoesStaleOnMutation) {
  Rng rng(41);
  Network net;
  Conv2D& conv = net.Add<Conv2D>(3, 8, 3, 1, 1, rng, "c1");
  Network donor;
  Rng donor_rng(42);
  donor.Add<Conv2D>(3, 8, 3, 1, 1, donor_rng, "c1");
  ASSERT_TRUE(DeserializeWeights(net, SerializeWeightsInt8(donor)));
  Parameter& weights = conv.weights();
  ASSERT_NE(weights.quantized, nullptr);
  ASSERT_EQ(weights.quantized->version, weights.version);

  net.SetPrecision(Precision::kInt8);
  const Tensor input = RandomTensor(TensorShape{1, 6, 6, 3}, 43);
  Tensor before = net.Forward(input);

  Tensor new_weights = RandomTensor(weights.value.shape(), 44);
  Tensor new_bias = RandomTensor(conv.bias().value.shape(), 45);
  conv.SetWeights(new_weights, new_bias);
  EXPECT_NE(weights.quantized->version, weights.version);
  Tensor after = net.Forward(input);
  EXPECT_GT(MaxAbsDiff(before, after), 1e-3f)
      << "stale pre-quantized payload survived SetWeights";
}

// ------------------------------------------------------- corruption fuzz --

// Every proper prefix of a valid file must be rejected without crashing or
// reading out of bounds — this is the regression net for the
// `pos_ + size > bytes_.size()` overflow rewrite plus the staging commit.
TEST(SerializeCorruptionTest, EveryTruncationRejectedCleanly) {
  Network donor = ProfileNet(4);
  for (const std::vector<uint8_t>& bytes :
       {SerializeWeights(donor), SerializeWeightsInt8(donor)}) {
    Network victim = ProfileNet(995);
    const NetSnapshot snap = Snapshot(victim);
    // Dense coverage of the header + first record, coarse beyond.
    std::vector<size_t> lengths;
    for (size_t len = 0; len < std::min<size_t>(bytes.size(), 256); ++len) {
      lengths.push_back(len);
    }
    for (size_t len = 256; len < bytes.size(); len += 509) {  // prime stride
      lengths.push_back(len);
    }
    lengths.push_back(bytes.size() - 1);
    for (size_t len : lengths) {
      std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + len);
      ASSERT_FALSE(DeserializeWeights(victim, truncated)) << "length " << len;
    }
    ExpectUnchanged(victim, snap);
  }
}

// A hostile string length near SIZE_MAX used to wrap `pos_ + size` and read
// out of bounds; it must simply be rejected.
TEST(SerializeCorruptionTest, OversizedStringLengthRejected) {
  Network donor = ProfileNet(5);
  std::vector<uint8_t> bytes = SerializeWeights(donor);
  // v1 layout: magic(4) version(4) count(4), then the first name length.
  const uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));
  Network victim = ProfileNet(994);
  const NetSnapshot snap = Snapshot(victim);
  EXPECT_FALSE(DeserializeWeights(victim, bytes));
  ExpectUnchanged(victim, snap);
}

TEST(SerializeCorruptionTest, WrongMagicVersionCountRejected) {
  Network donor = ProfileNet(6);
  const std::vector<uint8_t> good = SerializeWeights(donor);
  Network victim = ProfileNet(993);
  const NetSnapshot snap = Snapshot(victim);

  std::vector<uint8_t> bad = good;
  bad[0] = 'X';  // magic
  EXPECT_FALSE(DeserializeWeights(victim, bad));

  bad = good;
  const uint32_t version3 = 3;  // unknown version
  std::memcpy(bad.data() + 4, &version3, sizeof(version3));
  EXPECT_FALSE(DeserializeWeights(victim, bad));

  bad = good;
  uint32_t count = 0;
  std::memcpy(&count, bad.data() + 8, sizeof(count));
  ++count;  // parameter-count mismatch
  std::memcpy(bad.data() + 8, &count, sizeof(count));
  EXPECT_FALSE(DeserializeWeights(victim, bad));

  ExpectUnchanged(victim, snap);  // every rejection left the net untouched
  EXPECT_TRUE(DeserializeWeights(victim, good));  // the original still loads
}

// Hostile v2 metadata: a single-conv net whose record offsets are
// computable, so each field can be corrupted surgically. Record geometry
// is derived from the destination network (v2 carries none), so the
// attack surface is the header fields, the manifest hash, the kind bytes,
// and the scale/code payloads.
TEST(SerializeCorruptionTest, HostileV2RecordsRejected) {
  Rng rng(51);
  Network donor;
  donor.Add<Conv2D>(2, 4, 1, 1, 0, rng, "c1");
  const std::vector<uint8_t> good = SerializeWeightsInt8(donor);
  // Offsets: magic(4) version(4) weight_max(4) count(4) hash(8) = 24;
  // then record 1 ("c1.weight"): kind(1) @24, 4 float scales @25,
  // 4x2 codes @41; record 2 ("c1.bias"): kind @49, 4 floats @50.
  const size_t kWeightMaxOffset = 8;
  const size_t kHashOffset = 16;
  const size_t kKindOffset = 24;
  const size_t kScalesOffset = 25;
  ASSERT_EQ(good.size(), 66u) << "v2 layout changed; update the offsets above";

  Rng check_rng(52);
  Network victim;
  victim.Add<Conv2D>(2, 4, 1, 1, 0, check_rng, "c1");
  const NetSnapshot snap = Snapshot(victim);

  std::vector<uint8_t> bad = good;
  bad[kHashOffset] ^= 0xFF;  // wrong architecture manifest
  EXPECT_FALSE(DeserializeWeights(victim, bad)) << "corrupt manifest hash accepted";

  bad = good;
  bad[kKindOffset] = 7;  // unknown record kind
  EXPECT_FALSE(DeserializeWeights(victim, bad)) << "unknown record kind accepted";

  bad = good;
  bad[kKindOffset + 25] = 1;  // int8 kind on the bias record
  EXPECT_FALSE(DeserializeWeights(victim, bad)) << "quantized bias record accepted";

  bad = good;
  const float negative_scale = -1.0f;
  std::memcpy(bad.data() + kScalesOffset, &negative_scale, sizeof(negative_scale));
  EXPECT_FALSE(DeserializeWeights(victim, bad)) << "negative scale accepted";

  bad = good;
  const uint32_t wild_weight_max = 255;  // past int8 entirely
  std::memcpy(bad.data() + kWeightMaxOffset, &wild_weight_max, sizeof(wild_weight_max));
  EXPECT_FALSE(DeserializeWeights(victim, bad)) << "weight_max > 127 accepted";

  bad = good;
  const uint32_t zero = 0;
  std::memcpy(bad.data() + kWeightMaxOffset, &zero, sizeof(zero));
  EXPECT_FALSE(DeserializeWeights(victim, bad)) << "weight_max == 0 accepted";

  ExpectUnchanged(victim, snap);
  EXPECT_TRUE(DeserializeWeights(victim, good));
}

// ----------------------------------------------------------- atomicity --

// A record that fails mid-stream (here: the final record truncated) must
// leave every parameter untouched — the old reader had already overwritten
// the earlier parameters by then, leaving a half-loaded network that was
// indistinguishable from a good one.
TEST(SerializeAtomicityTest, MidStreamFailureLeavesAllWeightsUntouched) {
  Network donor = ProfileNet(7);
  for (std::vector<uint8_t> bytes :
       {SerializeWeights(donor), SerializeWeightsInt8(donor)}) {
    bytes.resize(bytes.size() - 3);  // clip inside the LAST parameter record
    Network victim = ProfileNet(992);
    victim.SetTrainingMode(false);
    const Tensor input = RandomTensor(TestProfile().InputShape(), 9, 0.0f, 1.0f);
    const Tensor before = victim.Forward(input);
    const NetSnapshot snap = Snapshot(victim);

    ASSERT_FALSE(DeserializeWeights(victim, bytes));
    ExpectUnchanged(victim, snap);
    EXPECT_EQ(MaxAbsDiff(before, victim.Forward(input)), 0.0f)
        << "failed load changed the network's forward";
  }
}

// ------------------------------------------------- zoo + classifier glue --

TEST(SerializeZooTest, ZooLoadsQuantizedArtifactWithoutRetraining) {
  const std::string dir = ::testing::TempDir() + "/pcvw_zoo_test";
  ModelZoo zoo(dir);
  zoo.Evict("quantized");

  PercivalNetConfig config = TestProfile();
  Network trained = BuildPercivalNet(config);  // stands in for a trained net
  ASSERT_FALSE(zoo.SaveQuantized("quantized", trained).empty());

  bool train_called = false;
  PercivalNetConfig fresh = config;
  fresh.init_seed = 991;  // GetOrTrain must load, not fall back to this init
  Network loaded = zoo.GetOrTrain("quantized", fresh, [&](Network&) { train_called = true; });
  EXPECT_FALSE(train_called) << "zoo retrained despite a v2 artifact on disk";

  trained.SetTrainingMode(false);
  loaded.SetTrainingMode(false);
  trained.SetPrecision(Precision::kInt8);
  loaded.SetPrecision(Precision::kInt8);
  const Tensor input = RandomTensor(config.InputShape(), 10, 0.0f, 1.0f);
  EXPECT_EQ(MaxAbsDiff(trained.Forward(input), loaded.Forward(input)), 0.0f);
  zoo.Evict("quantized");
}

TEST(SerializeClassifierTest, LoadWeightsPicksPrecisionFromFormat) {
  const std::string dir = ::testing::TempDir();
  PercivalNetConfig config = TestProfile();
  Network donor = BuildPercivalNet(config);
  const std::string v1_path = dir + "/classifier_v1.pcvw";
  const std::string v2_path = dir + "/classifier_v2.int8.pcvw";
  ASSERT_TRUE(SaveWeightsToFile(donor, v1_path));
  ASSERT_TRUE(SaveWeightsToFileInt8(donor, v2_path));

  PercivalNetConfig fresh = config;
  fresh.init_seed = 990;
  AdClassifier classifier(BuildPercivalNet(fresh), fresh);
  EXPECT_TRUE(classifier.precision() == Precision::kFloat32);

  ASSERT_TRUE(classifier.LoadWeights(v2_path));
  EXPECT_TRUE(classifier.precision() == Precision::kInt8);

  ASSERT_TRUE(classifier.LoadWeights(v1_path));
  EXPECT_TRUE(classifier.precision() == Precision::kFloat32);

  EXPECT_FALSE(classifier.LoadWeights(dir + "/does_not_exist.pcvw"));
  EXPECT_TRUE(classifier.precision() == Precision::kFloat32);
}

// ------------------------------------------------- calibration trailer --

// A v2 artifact written after a calibration batch carries the activation
// ranges; loading it restores them (deployment skips the per-forward
// MinMaxRange pass), and the calibrated int8 forward is bit-identical
// between writer and reader.
TEST(SerializeCalibrationTest, TrailerRoundTripRestoresRangesAndForward) {
  Network writer = ProfileNet(3);
  writer.SetTrainingMode(false);
  const Tensor batch = RandomTensor(TestProfile().InputShape(4), 11, 0.0f, 1.0f);

  // Calibration pass: float forwards under capture record every conv's
  // observed input range.
  writer.SetCalibrationCapture(true);
  writer.Forward(batch);
  writer.SetCalibrationCapture(false);
  const std::vector<ActivationCalibration> written = writer.CollectCalibration();
  ASSERT_EQ(written.size(), writer.CalibrationSlots());
  for (const ActivationCalibration& entry : written) {
    ASSERT_TRUE(entry.valid) << "capture pass left a conv uncalibrated";
  }

  const std::vector<uint8_t> with_trailer = SerializeWeightsInt8(writer);
  Network reader = ProfileNet(997);
  ASSERT_TRUE(DeserializeWeights(reader, with_trailer));
  reader.SetTrainingMode(false);
  const std::vector<ActivationCalibration> loaded = reader.CollectCalibration();
  ASSERT_EQ(loaded.size(), written.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    ASSERT_TRUE(loaded[i].valid);
    ASSERT_EQ(loaded[i].min_value, written[i].min_value);
    ASSERT_EQ(loaded[i].max_value, written[i].max_value);
  }

  writer.SetPrecision(Precision::kInt8);
  reader.SetPrecision(Precision::kInt8);
  // The reader's trailer-supplied GAP range links GAP-on-codes while the
  // writer's live-captured one would not; feed the writer its own collected
  // entries (the deployment situation: both sides load from a trailer) so
  // both run the same plan and stay comparable.
  ASSERT_TRUE(writer.LoadCalibration(written));
  const Tensor input = RandomTensor(TestProfile().InputShape(), 12, 0.0f, 1.0f);
  EXPECT_EQ(MaxAbsDiff(writer.Forward(input), reader.Forward(input)), 0.0f)
      << "calibrated v2 reload is not bit-identical";
}

// Without a capture pass the artifact has no trailer (and still loads — the
// pre-trailer v2 format), and a calibrated load actually changes the int8
// quantization (proof the per-forward range scan is being skipped).
TEST(SerializeCalibrationTest, TrailerIsOptionalAndActuallyUsed) {
  Network writer = ProfileNet(5);
  const std::vector<uint8_t> plain = SerializeWeightsInt8(writer);
  Network reader = ProfileNet(996);
  ASSERT_TRUE(DeserializeWeights(reader, plain));
  for (const ActivationCalibration& entry : reader.CollectCalibration()) {
    EXPECT_FALSE(entry.valid) << "trailer-less v2 load invented a calibration";
  }

  // A deliberately wrong calibration range must change the quantized
  // output: if the forward still scanned the input per-forward, the range
  // would be identical in both runs and so would the codes.
  Rng rng(61);
  Conv2D conv(3, 8, 3, 1, 1, rng);
  conv.SetPrecision(Precision::kInt8);
  const Tensor input = RandomTensor(TensorShape{1, 8, 8, 3}, 62, 0.0f, 1.0f);
  Tensor scanned = conv.Forward(input);
  conv.SetInputCalibration(0.0f, 4.0f);  // 4x the real range -> coarser codes
  Tensor calibrated = conv.Forward(input);
  EXPECT_GT(MaxAbsDiff(scanned, calibrated), 0.0f)
      << "calibration was ignored: the forward still derives its range by scanning";

  // Capture restarts fresh and accumulates the union of batch ranges.
  conv.SetPrecision(Precision::kFloat32);
  conv.SetCalibrationCapture(true);
  conv.Forward(RandomTensor(TensorShape{1, 8, 8, 3}, 63, -0.5f, 0.5f));
  conv.Forward(RandomTensor(TensorShape{1, 8, 8, 3}, 64, 0.0f, 2.0f));
  conv.SetCalibrationCapture(false);
  float lo = 0.0f;
  float hi = 0.0f;
  ASSERT_TRUE(conv.InputCalibration(&lo, &hi));
  EXPECT_LT(lo, -0.4f);
  EXPECT_GT(hi, 1.5f);
}

// Loading a trailer-less artifact (v2 or v1) over a previously calibrated
// network must CLEAR the old ranges: stale calibrations would quantize the
// new weights' activations against the old model's distribution.
TEST(SerializeCalibrationTest, TrailerlessLoadClearsStaleCalibration) {
  Network calibrated_writer = ProfileNet(7);
  calibrated_writer.SetTrainingMode(false);
  calibrated_writer.SetCalibrationCapture(true);
  calibrated_writer.Forward(RandomTensor(TestProfile().InputShape(), 14, 0.0f, 1.0f));
  calibrated_writer.SetCalibrationCapture(false);
  const std::vector<uint8_t> with_trailer = SerializeWeightsInt8(calibrated_writer);

  Network target = ProfileNet(994);
  ASSERT_TRUE(DeserializeWeights(target, with_trailer));
  for (const ActivationCalibration& entry : target.CollectCalibration()) {
    ASSERT_TRUE(entry.valid);
  }

  Network plain_writer = ProfileNet(8);
  ASSERT_TRUE(DeserializeWeights(target, SerializeWeightsInt8(plain_writer)));
  for (const ActivationCalibration& entry : target.CollectCalibration()) {
    EXPECT_FALSE(entry.valid) << "trailer-less v2 load kept a stale calibration";
  }

  ASSERT_TRUE(DeserializeWeights(target, with_trailer));
  ASSERT_TRUE(DeserializeWeights(target, SerializeWeights(plain_writer)));
  for (const ActivationCalibration& entry : target.CollectCalibration()) {
    EXPECT_FALSE(entry.valid) << "v1 load kept a stale calibration";
  }

  // The public LoadCalibration API rejects an under-sized vector outright —
  // accepting it would "succeed" while leaving later layers untouched.
  const std::vector<ActivationCalibration> too_short{{0.0f, 1.0f, true}};
  EXPECT_FALSE(target.LoadCalibration(too_short));
}

// Hostile trailers: wrong tag, wrong count, truncation, non-finite or
// inverted ranges, and trailing garbage all reject atomically.
TEST(SerializeCalibrationTest, HostileTrailersRejected) {
  Network writer = ProfileNet(6);
  writer.SetTrainingMode(false);
  writer.SetCalibrationCapture(true);
  writer.Forward(RandomTensor(TestProfile().InputShape(), 13, 0.0f, 1.0f));
  writer.SetCalibrationCapture(false);
  const std::vector<uint8_t> good = SerializeWeightsInt8(writer);
  Network uncalibrated = ProfileNet(6);
  const std::vector<uint8_t> plain = SerializeWeightsInt8(uncalibrated);
  ASSERT_GT(good.size(), plain.size());
  const size_t trailer_at = plain.size();

  Network target = ProfileNet(995);
  const NetSnapshot snap = Snapshot(target);
  auto expect_rejected = [&](std::vector<uint8_t> bytes, const char* what) {
    EXPECT_FALSE(DeserializeWeights(target, bytes)) << what;
    ExpectUnchanged(target, snap);
  };

  {
    std::vector<uint8_t> bad = good;
    bad[trailer_at] = 0x7F;  // unknown trailer tag
    expect_rejected(std::move(bad), "unknown tag");
  }
  {
    std::vector<uint8_t> bad = good;
    bad[trailer_at + 1] ^= 0xFF;  // count mismatch
    expect_rejected(std::move(bad), "count mismatch");
  }
  for (size_t cut = trailer_at + 1; cut < good.size(); cut += 3) {
    std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
    expect_rejected(std::move(bad), "truncated trailer");
  }
  {
    std::vector<uint8_t> bad = good;
    const float nan_value = std::nanf("");
    std::memcpy(bad.data() + trailer_at + 1 + sizeof(uint32_t), &nan_value,
                sizeof(nan_value));
    expect_rejected(std::move(bad), "non-finite range");
  }
  {
    std::vector<uint8_t> bad = good;
    // min > max: swap in an inverted pair for the first entry.
    const float lo = 2.0f;
    const float hi = -1.0f;
    std::memcpy(bad.data() + trailer_at + 1 + sizeof(uint32_t), &lo, sizeof(lo));
    std::memcpy(bad.data() + trailer_at + 1 + sizeof(uint32_t) + sizeof(float), &hi,
                sizeof(hi));
    expect_rejected(std::move(bad), "inverted range");
  }
  {
    std::vector<uint8_t> bad = good;
    bad.push_back(0);  // trailing garbage after a valid trailer
    expect_rejected(std::move(bad), "trailing garbage");
  }

  // The unmodified trailer still loads into the same target.
  EXPECT_TRUE(DeserializeWeights(target, good));
}

// Regression: FireModule::ConsumeCalibration with fewer entries than its
// three inner convs expect. The squeeze conv consumes the whole short run,
// and the remaining count for the expand convs is computed in size_t
// arithmetic — before the clamp, `count - consumed` underflowed to ~2^64
// and handed the expand convs a giant bogus entry span. The module must
// consume at most `count` entries and stop cleanly.
TEST(SerializeCalibrationTest, FireTruncatedTrailerConsumesAtMostCount) {
  Rng rng(31);
  FireModule fire(8, 4, 8, rng);

  const ActivationCalibration entries[3] = {
      {0.0f, 1.0f, true}, {0.0f, 2.0f, true}, {0.0f, 3.0f, true}};
  for (size_t count = 0; count <= 3; ++count) {
    FireModule probe(8, 4, 8, rng);
    const size_t consumed = probe.ConsumeCalibration(entries, count);
    EXPECT_LE(consumed, count) << "count=" << count;
  }

  // A partial run applies exactly the prefix: one entry calibrates the
  // squeeze conv only, and the module-level input calibration (the
  // squeeze's) reflects it.
  ASSERT_EQ(fire.ConsumeCalibration(entries, 1), 1u);
  float lo = -1.0f;
  float hi = -1.0f;
  ASSERT_TRUE(fire.InputCalibration(&lo, &hi));
  EXPECT_EQ(lo, 0.0f);
  EXPECT_EQ(hi, 1.0f);
}

}  // namespace
}  // namespace percival
