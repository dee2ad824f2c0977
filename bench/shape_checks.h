#ifndef STMAKER_BENCH_SHAPE_CHECKS_H_
#define STMAKER_BENCH_SHAPE_CHECKS_H_

// Verdict bookkeeping for the paper-figure benches. Each bench prints its
// "shape checks" (the paper's qualitative claims) with OK/VIOLATED text;
// wrapping each condition in a ShapeChecks call also counts it, and
// ExitCode() turns any violation into a non-zero exit, so the `paper_shape`
// ctest fails when a change flattens a claimed shape.

#include <cstdio>

namespace stmaker {

class ShapeChecks {
 public:
  /// Records one verdict and returns it unchanged.
  bool operator()(bool holds) {
    ++checked_;
    if (!holds) ++violated_;
    return holds;
  }

  /// Prints the tally; 0 when every check held, 1 otherwise.
  int ExitCode() const {
    std::printf("shape checks: %d of %d held\n", checked_ - violated_,
                checked_);
    return violated_ == 0 ? 0 : 1;
  }

 private:
  int checked_ = 0;
  int violated_ = 0;
};

}  // namespace stmaker

#endif  // STMAKER_BENCH_SHAPE_CHECKS_H_
