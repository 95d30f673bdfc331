#include "serving/routing_policy.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace turbo::serving {

double BacklogModel::ready_at(size_t i, double now) const {
  TT_CHECK_LT(i, backlog_until_.size());
  return std::max(backlog_until_[i], now);
}

size_t BacklogModel::pick(double now) const {
  TT_CHECK(!backlog_until_.empty());
  size_t best = 0;
  double best_ready = std::numeric_limits<double>::max();
  for (size_t i = 0; i < backlog_until_.size(); ++i) {
    const double ready = ready_at(i, now);
    if (ready < best_ready) {
      best_ready = ready;
      best = i;
    }
  }
  return best;
}

void BacklogModel::charge(size_t i, double now, double exec) {
  TT_CHECK_LT(i, backlog_until_.size());
  TT_CHECK_GE(exec, 0.0);
  backlog_until_[i] = ready_at(i, now) + exec;
}

double BacklogModel::outstanding(size_t i, double now) const {
  return ready_at(i, now) - now;
}

}  // namespace turbo::serving
