// JSON readers for trace files: the inverse of the streaming writers in
// io/trace_stream, generated from the same field schema
// (sim/window_schema.h, common/telemetry.h).  Lives in io (not common)
// because iaas_common cannot depend on the Json layer.
#pragma once

#include <vector>

#include "common/telemetry.h"
#include "io/json.h"
#include "sim/simulator.h"

namespace iaas {

// Rebuild a RunTrace from {"label", "seed", "columns", "rows"} — rows
// are arrays in RunTrace::columns() order.  Shape errors (missing keys,
// short rows, unknown columns) throw std::runtime_error.  Seeds and
// counters are integer lexemes, so the full 64-bit range round-trips
// exactly.
telemetry::RunTrace trace_from_json(const Json& json);

// One simulator horizon from {"windows": [...]}: every WindowMetrics
// column including fault events, the optional blocks, the degrade level
// (by name) and the nested allocator trace.  Exact inverse of
// write_sim_trace_json — parse -> re-emit is byte-identical, which is
// how archived runs are validated.
std::vector<WindowMetrics> sim_trace_from_json(const Json& json);

}  // namespace iaas
