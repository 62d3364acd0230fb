#include "algo/cp_allocator.h"

#include "common/stopwatch.h"

namespace iaas {

AllocationResult CpAllocator::allocate(const Instance& instance,
                                       std::uint64_t /*seed*/) {
  Stopwatch timer;
  CpSolver solver(instance, solver_options_);
  Placement placement = solver.solve(&last_stats_);
  return finalize(instance, name(), std::move(placement),
                  timer.elapsed_seconds(), 0, objective_options_);
}

}  // namespace iaas
