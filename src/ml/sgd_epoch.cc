#include "ml/sgd_epoch.h"

#include <algorithm>

namespace corgipile {

SgdEpochLoop::SgdEpochLoop(Model* model, uint32_t batch_size,
                           OptimizerKind optimizer, uint32_t exec_batch_tuples)
    : model_(model), batch_size_(batch_size), batch_(exec_batch_tuples) {
  if (batch_size_ > 1 || optimizer != OptimizerKind::kSgd) {
    opt_ = MakeOptimizer(optimizer);
    opt_->Reset(model_->num_params());
    grad_.assign(model_->num_params(), 0.0);
  }
}

void SgdEpochLoop::Consume(double lr, Totals* totals) {
  totals->seen += batch_.size();
  if (opt_ == nullptr) {
    model_->BatchGradientStep(batch_, lr, &totals->loss_sum);
    return;
  }
  size_t i = 0;
  while (i < batch_.size()) {
    const size_t take =
        std::min<size_t>(batch_.size() - i, batch_size_ - in_batch_);
    model_->BatchAccumulateGrad(batch_, i, i + take, &grad_,
                                &totals->loss_sum);
    i += take;
    in_batch_ += static_cast<uint32_t>(take);
    if (in_batch_ == batch_size_) Flush(lr);
  }
}

void SgdEpochLoop::Flush(double lr) {
  if (in_batch_ == 0) return;
  const double inv = 1.0 / static_cast<double>(in_batch_);
  for (double& g : grad_) g *= inv;
  opt_->Apply(&model_->params(), grad_, lr);
  std::fill(grad_.begin(), grad_.end(), 0.0);
  in_batch_ = 0;
}

}  // namespace corgipile
