#ifndef MSOPDS_CORE_LOSSES_H_
#define MSOPDS_CORE_LOSSES_H_

#include "tensor/ops.h"

namespace msopds {

/// Comprehensive Attack loss (paper Eq. (5)):
///   (1/|U_TA|) sum_u sum_c SELU(R(u, i_c) - R(u, i_t))       (promote)
/// or with the difference reversed when `demote` is true (the opponents'
/// objective: push the target below its competitors).
///
/// `target_predictions` is [A] (one entry per audience user);
/// `compete_predictions` is [A*C] in user-major order (all competitor
/// predictions of audience user 0 first, then user 1, ...).
Variable ComprehensiveLossFromPredictions(const Variable& target_predictions,
                                          const Variable& compete_predictions,
                                          int64_t num_compete, bool demote);

}  // namespace msopds

#endif  // MSOPDS_CORE_LOSSES_H_
