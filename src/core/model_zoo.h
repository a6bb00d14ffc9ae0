// ModelZoo: train-once disk cache for trained networks.
//
// Benches and examples share trained models; the first caller trains and
// saves, later callers load. Keys are (name, profile) pairs and files live
// under a cache directory (default: "percival_model_cache" in the working
// directory, overridable via the PERCIVAL_MODEL_DIR environment variable).
#ifndef PERCIVAL_SRC_CORE_MODEL_ZOO_H_
#define PERCIVAL_SRC_CORE_MODEL_ZOO_H_

#include <functional>
#include <string>

#include "src/core/model.h"
#include "src/nn/network.h"

namespace percival {

class ModelZoo {
 public:
  // Uses PERCIVAL_MODEL_DIR or the default cache directory.
  ModelZoo();
  explicit ModelZoo(std::string directory);

  // Returns a network built from `config`, with weights loaded from cache
  // when a file for `name` exists; otherwise invokes `train` (which
  // receives the freshly built network) and saves the result. Cached files
  // may be either PCVW format: the float v1 checkpoint is preferred, and a
  // host shipping only the ~4x-smaller int8 v2 artifact (see SaveQuantized)
  // loads that transparently instead.
  Network GetOrTrain(const std::string& name, const PercivalNetConfig& config,
                     const std::function<void(Network&)>& train);

  // Writes the int8 v2 deployment artifact for an already trained/loaded
  // network next to the float checkpoint (<name>.int8.pcvw). Returns the
  // path written, or an empty string on failure.
  std::string SaveQuantized(const std::string& name, Network& net);

  // Deletes a cached entry, both the float checkpoint and the quantized
  // artifact (tests).
  void Evict(const std::string& name);

  // Artifact locations for `name`. Public so deployment wrappers can point
  // AdClassifier::LoadWeights (and its retry/backoff variant) at a zoo
  // entry, and so the serving robustness suite can corrupt an artifact at
  // its real path instead of guessing the layout.
  std::string CheckpointPath(const std::string& name) const;
  std::string QuantizedPath(const std::string& name) const;

  const std::string& directory() const { return directory_; }

 private:
  std::string directory_;
};

}  // namespace percival

#endif  // PERCIVAL_SRC_CORE_MODEL_ZOO_H_
