#include "src/core/model_zoo.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/base/logging.h"
#include "src/nn/serialize.h"

namespace percival {

namespace {

std::string DefaultDirectory() {
  const char* env = std::getenv("PERCIVAL_MODEL_DIR");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
  return "percival_model_cache";
}

}  // namespace

ModelZoo::ModelZoo() : ModelZoo(DefaultDirectory()) {}

ModelZoo::ModelZoo(std::string directory) : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
}

std::string ModelZoo::CheckpointPath(const std::string& name) const {
  return directory_ + "/" + name + ".pcvw";
}

std::string ModelZoo::QuantizedPath(const std::string& name) const {
  return directory_ + "/" + name + ".int8.pcvw";
}

namespace {

// Loads `path` into `net`, separating "no file" (expected cache miss) from
// "file exists but failed to parse" (corruption — a defined, logged failure
// mode: the caller falls through to the next source or retrains, it never
// serves a half-loaded network because DeserializeWeights is atomic).
bool LoadCached(Network& net, const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return false;
  }
  if (LoadWeightsFromFile(net, path)) {
    return true;
  }
  LogLine("model zoo: CORRUPT cached artifact at " + path +
          " (parse rejected); ignoring it and falling back");
  return false;
}

}  // namespace

Network ModelZoo::GetOrTrain(const std::string& name, const PercivalNetConfig& config,
                             const std::function<void(Network&)>& train) {
  Network net = BuildPercivalNet(config);
  // DeserializeWeights sniffs the PCVW version, so whichever format sits at
  // the checkpoint path loads; a deployment cache holding only the small
  // int8 artifact is also accepted.
  const std::string path = CheckpointPath(name);
  if (LoadCached(net, path)) {
    LogLine("model zoo: loaded '" + name + "' from " + path);
    return net;
  }
  const std::string quantized_path = QuantizedPath(name);
  if (LoadCached(net, quantized_path)) {
    LogLine("model zoo: loaded int8 artifact '" + name + "' from " + quantized_path);
    return net;
  }
  LogLine("model zoo: training '" + name + "' (no usable cache at " + path + ")");
  train(net);
  if (!SaveWeightsToFile(net, path)) {
    LogLine("model zoo: warning, could not save '" + name + "' to " + path);
  }
  return net;
}

std::string ModelZoo::SaveQuantized(const std::string& name, Network& net) {
  const std::string path = QuantizedPath(name);
  if (!SaveWeightsToFileInt8(net, path)) {
    LogLine("model zoo: warning, could not save int8 artifact '" + name + "' to " + path);
    return std::string();
  }
  return path;
}

void ModelZoo::Evict(const std::string& name) {
  std::remove(CheckpointPath(name).c_str());
  std::remove(QuantizedPath(name).c_str());
}

}  // namespace percival
