// Test helpers for canary and lifecycle scenarios: constant-weight models
// and a label-separable tuple stream on which their quality is known.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/linear_models.h"
#include "storage/tuple.h"
#include "util/rng.h"

namespace corgipile {

/// A logistic model with every weight set to `w`: on MakeSeparableTuples,
/// w > 0 classifies perfectly (low loss) and w < 0 inverts every label
/// (high loss). Distinct |w| values double as version fingerprints.
inline std::unique_ptr<Model> MakeWeightModel(uint32_t dim, double w) {
  auto model = std::make_unique<LogisticRegression>(dim);
  model->params().assign(model->num_params(), w);
  return model;
}

/// Separable stream: label = sign of the (nonzero) mean feature value.
inline std::vector<Tuple> MakeSeparableTuples(uint64_t n, uint32_t dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double sign = rng.NextBool() ? 1.0 : -1.0;
    std::vector<float> values(dim);
    for (float& v : values) {
      v = static_cast<float>(sign * (0.5 + rng.NextDouble()));
    }
    out.push_back(MakeDenseTuple(i, sign, std::move(values)));
  }
  return out;
}

}  // namespace corgipile
