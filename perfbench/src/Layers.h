//===- perfbench/src/Layers.h - The traced run ------------------*- C++ -*-===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Workloads.h"

namespace pb {

/// Runs workload \p W's traced legs and layer probes for about \p Seconds
/// and prints every per-layer metric, with the operations attempted and
/// failed, as one JSON line. Returns the process exit code.
int runTraced(Workload W, uint64_t Seed, double Seconds);

} // namespace pb

#endif // PERFBENCH_LAYERS_H
