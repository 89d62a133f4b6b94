#include "cost/snapshot.h"

#include <cstring>
#include <utility>

namespace uqp {

namespace {

void AppendSnapshotDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

}  // namespace

CalibrationPtr MakeCalibrationSnapshot(CostUnits units, uint64_t epoch,
                                       std::string source,
                                       uint64_t reports_at_publish) {
  auto snapshot = std::make_shared<CalibrationSnapshot>();
  snapshot->epoch = epoch;
  snapshot->units = units;
  snapshot->source = std::move(source);
  snapshot->reports_at_publish = reports_at_publish;
  return snapshot;
}

std::string CalibrationSnapshotBytes(const CalibrationSnapshot& snapshot) {
  std::string bytes;
  bytes.reserve(8 + 16 * kNumCostUnits);
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((snapshot.epoch >> (8 * i)) & 0xff));
  }
  for (int u = 0; u < kNumCostUnits; ++u) {
    AppendSnapshotDouble(&bytes, snapshot.units.Get(u).mean);
    AppendSnapshotDouble(&bytes, snapshot.units.Get(u).variance);
  }
  return bytes;
}

}  // namespace uqp
