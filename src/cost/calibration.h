#pragma once

#include <vector>

#include "cost/units.h"
#include "hw/machine.h"

namespace uqp {

/// Options for the calibration procedure.
struct CalibrationOptions {
  /// Sizes of the calibration relations (tuples). Several sizes, each
  /// repeated, provide the i.i.d. samples of each cost unit (paper §3.1,
  /// Example 3: "we can use different R's here").
  std::vector<double> tuple_counts = {20000, 50000, 100000, 200000};
  int repetitions_per_size = 8;
  /// Page density assumed by the disk-resident calibration queries.
  double rows_per_page = 40.0;
};

/// Calibration result: the fitted Gaussians plus the raw per-unit samples.
struct CalibrationReport {
  CostUnits units;
  std::vector<double> samples[kNumCostUnits];
};

/// The paper's calibration framework, extended from point estimates to
/// full distributions (§3.1). Five dedicated calibration query profiles
/// isolate the cost units one at a time:
///
///   1. in-memory SELECT *           -> c_t   (nt = N)
///   2. in-memory aggregation        -> c_o   (nt = N, no = 2N)
///   3. in-memory index traversal    -> c_i   (nt = N, ni = N)
///   4. cold sequential scan         -> c_s   (ns = P, nt = N, no = N)
///   5. cold unclustered index scan  -> c_r   (nr = N, nt = N, ni = N)
///
/// Each profile is executed repeatedly on the machine; the unit value is
/// solved per run by subtracting the already-calibrated units, and the
/// observed values are treated as i.i.d. samples of the unit's
/// distribution: mean and sample variance give N(mu, sigma^2).
class Calibrator {
 public:
  explicit Calibrator(SimulatedMachine* machine) : machine_(machine) {}

  CalibrationReport CalibrateWithReport(
      const CalibrationOptions& options = CalibrationOptions()) {
    return CalibrateWithReportAt(1, options);
  }

  /// Concurrency-aware calibration (paper §8 future work): runs the same
  /// calibration queries while `concurrency` queries share the machine,
  /// so the fitted N(mu, sigma^2) per unit absorbs the interference —
  /// "viewing the interference between queries as changing the
  /// distribution of the c's". Feed the result to a PredictionPipeline to
  /// predict running times at that multiprogramming level.
  CalibrationReport CalibrateWithReportAt(
      int concurrency, const CalibrationOptions& options = CalibrationOptions());

  CostUnits Calibrate(const CalibrationOptions& options = CalibrationOptions()) {
    return CalibrateWithReport(options).units;
  }

  CostUnits CalibrateAt(int concurrency,
                        const CalibrationOptions& options = CalibrationOptions()) {
    return CalibrateWithReportAt(concurrency, options).units;
  }

 private:
  SimulatedMachine* machine_;
};

}  // namespace uqp
