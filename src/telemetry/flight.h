// Flight recorder: on a crash, a TermReq or escalation-ladder exhaustion,
// write a snapshot of the always-on trace ring (tracer()) to a postmortem
// JSON file. The recorder owns no events: its history is the ring's last
// kTraceRingSlots events of any kind — spans, the resilience ladder's
// deadline/abort/demote/reconnect instants, TermReqs, overload and multipath
// instants — so the last moments before a crash are reconstructible.
//
// Lifecycle:
//   1. Process start: flight() exists, dumping DISARMED — unit tests that
//      exercise abort paths don't litter the filesystem.
//   2. Tools call flight().install({...}) to arm dumping (and optionally
//      hook fatal signals: SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL).
//   3. On a fatal signal, a received/sent TermReq, or escalation-ladder
//      exhaustion, dump_now(reason) writes oaf_flight_<pid>.json — the ring
//      snapshot (Chrome trace form) plus a full metrics snapshot — then the
//      signal is re-raised with default disposition so the exit status is
//      preserved.
//
// dump_now() from a signal handler is deliberately best-effort: it
// allocates and calls stdio, which is not async-signal-safe. That is the
// standard flight-recorder trade-off — the alternative is no data at all —
// and a recursion guard makes a crash-inside-dump terminate instead of
// looping.
#pragma once

#include <string>

#include "telemetry/telemetry.h"

namespace oaf::telemetry {

struct FlightOptions {
  std::string dir = ".";       ///< directory for oaf_flight_<pid>.json
  bool fatal_signals = true;   ///< install SIGSEGV/SIGABRT/... handlers
};

class FlightRecorder {
 public:
  /// Dumps snapshot `ring`; the process-global recorder reads tracer().
  explicit FlightRecorder(const TraceRecorder& ring = tracer())
      : ring_(ring) {}

  /// Arm dumping (and optionally fatal-signal hooks). Idempotent; the
  /// first caller wins the signal-handler installation.
  void install(const FlightOptions& opts);
  [[nodiscard]] bool armed() const { return armed_; }

  /// Write the postmortem file if armed. Returns the path written, or an
  /// empty string when disarmed, re-entered, or on I/O failure.
  std::string dump_now(const char* reason);

 private:
  const TraceRecorder& ring_;
  std::string dir_ = ".";
  bool armed_ = false;
  std::atomic<bool> dumping_{false};
};

/// Process-global flight recorder over tracer() (dump disarmed until
/// install()).
FlightRecorder& flight();

}  // namespace oaf::telemetry
