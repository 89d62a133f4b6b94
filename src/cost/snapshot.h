#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cost/units.h"

namespace uqp {

/// One immutable, epoch-stamped calibration artifact: the five cost-unit
/// distributions plus the metadata of the fit that produced them.
///
/// Calibration used to be construction-time state baked into every
/// pipeline stage; it is now a first-class versioned value. Exactly one
/// snapshot is "current" per pipeline at any instant, resolved once per
/// prediction via one load of the pipeline's snapshot cell, so
///   - a prediction never mixes units from two epochs (it sees one
///     snapshot object for its whole stage-3 combination, and records it
///     in Prediction::calibration),
///   - publishing a new snapshot is a pointer swap — no pipeline rebuild,
///     no service restart, and no invalidation of the unit-independent
///     stage-1/2 artifacts (see PredictionService::PublishCalibration),
///   - epochs are strictly monotone per owner, so an epoch number alone
///     identifies a snapshot (equal epoch implies same units).
struct CalibrationSnapshot {
  /// Strictly increasing per publishing owner; the initial offline
  /// calibration is epoch 1 (0 is reserved for "no calibration").
  uint64_t epoch = 0;
  CostUnits units;

  // ----- fit metadata -----
  /// Where the units came from: "offline" for the construction-time fit,
  /// "drift" for a feedback-triggered recalibration, or caller-supplied.
  std::string source;
  /// Feedback reports observed when this snapshot was published (0 for
  /// the offline fit) — ties a drift recalibration back to the point in
  /// the observed-runtime stream that triggered it.
  uint64_t reports_at_publish = 0;
};

/// Snapshots are shared, immutable and swapped atomically.
using CalibrationPtr = std::shared_ptr<const CalibrationSnapshot>;

/// Builds an immutable snapshot. Epoch numbering is the publisher's job
/// (PredictionService::PublishCalibration increments under its own lock).
CalibrationPtr MakeCalibrationSnapshot(CostUnits units, uint64_t epoch,
                                       std::string source,
                                       uint64_t reports_at_publish = 0);

/// Canonical byte serialization (doubles by bit pattern): two snapshots
/// serialize equal iff their units are bit-identical. The feedback
/// determinism tests compare recalibrated snapshots across thread counts
/// with this.
std::string CalibrationSnapshotBytes(const CalibrationSnapshot& snapshot);

}  // namespace uqp
