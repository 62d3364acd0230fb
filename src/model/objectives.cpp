#include "model/objectives.h"

namespace iaas {

Evaluation Evaluator::evaluate(const Placement& placement) {
  state_.rebuild(placement.genes());
  Evaluation out;
  out.objectives = state_.objectives();
  out.violations = state_.violation_report();
  return out;
}

ObjectiveVector Evaluator::objectives(const Placement& placement) {
  state_.rebuild(placement.genes());
  return state_.objectives();
}

}  // namespace iaas
