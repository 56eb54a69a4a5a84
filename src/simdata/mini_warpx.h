#pragma once

// MiniWarpX: a scalar FDTD wave solver standing in for WarpX's
// electromagnetic stepping (paper §IV-B, Figs. 16/17). A driven wave packet
// propagates along z on a uniform grid; each step's Ez field feeds the
// adaptive-data (ROI) compression path, the same way the paper uses WarpX
// for uniform-grid in-situ experiments.

#include "grid/field.h"

namespace mrc::sim {

class MiniWarpX {
 public:
  struct Params {
    Dim3 dims{128, 128, 1024};
    std::uint64_t seed = 11;
    double courant = 0.5;   ///< c*dt/dx, < 1/sqrt(3) for 3-D stability
    int source_period = 24; ///< driving period in steps
  };

  explicit MiniWarpX(const Params& p);

  /// Advances the wave equation one time step (leapfrog).
  void step();

  [[nodiscard]] const FieldF& ez() const { return cur_; }
  [[nodiscard]] int current_step() const { return step_; }

 private:
  static constexpr index_t kSourceZ = 4;  ///< plane the driven source feeds

  Params params_;
  FieldF prev_, cur_, next_;
  int step_ = 0;
};

}  // namespace mrc::sim
