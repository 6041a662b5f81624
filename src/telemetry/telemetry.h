// Telemetry entry points: process-global registry/recorder singletons and the
// compile-out gate used by instrumentation sites.
//
// One switch (DESIGN.md §9): building with -DOAF_TELEMETRY_OFF (CMake option
// OAF_TELEMETRY=OFF) removes every OAF_TEL(...) call site from the binary.
// The telemetry *types* still compile either way, so tests and tools that
// use the API directly keep working. Compiled in, everything is live: the
// trace ring records every event, and counters/gauges count.
#pragma once

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

#if defined(OAF_TELEMETRY_OFF)
#define OAF_TELEMETRY_COMPILED 0
#else
#define OAF_TELEMETRY_COMPILED 1
#endif

#if OAF_TELEMETRY_COMPILED
/// Wrap an instrumentation statement so it vanishes when telemetry is
/// compiled out: OAF_TEL(counter_->inc());
#define OAF_TEL(expr)   \
  do {                  \
    expr;               \
  } while (0)
#else
#define OAF_TEL(expr) \
  do {                \
  } while (0)
#endif

namespace oaf::telemetry {

/// Process-global metrics registry. Components resolve their handles once
/// (construction time) and cache the returned pointers.
MetricsRegistry& metrics();

/// Process-global trace ring, always recording (kTraceRingSlots events). The
/// only production TraceRecorder: exports, the flight dump and anomaly
/// capture all read it.
TraceRecorder& tracer();

/// Null-safe counter bump for cached handles that may be absent when
/// telemetry is compiled out or a component skipped registration.
inline void bump(Counter* c, u64 n = 1) {
  if (c != nullptr) c->inc(n);
}

}  // namespace oaf::telemetry
