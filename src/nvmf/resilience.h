// Connection-resilience policy and counters.
//
// The paper's adaptive fabric assumes a healthy channel; production NVMe-oF
// does not get that luxury. ReconnectPolicy bounds how hard an initiator
// fights to keep an association alive (reconnect attempts, exponential
// backoff with deterministic jitter, per-command replay budget, keep-alive
// cadence), and ResilienceCounters makes every recovery action observable
// so benches and tests can assert "recovered" rather than "didn't crash".
// Each counter is one row of OAF_RESILIENCE_EVENTS, which also names the
// event's registry counter and trace instant.
#pragma once

#include <iterator>

#include "common/types.h"

namespace oaf::nvmf {

/// Governs initiator-side recovery. The default (max_attempts == 0) keeps
/// the legacy behaviour: any transport fault tears the association down and
/// fails everything outstanding.
struct ReconnectPolicy {
  /// Reconnect attempts per outage; 0 disables recovery entirely.
  u32 max_attempts = 0;
  DurNs initial_backoff_ns = 1'000'000;    ///< 1 ms before the first retry
  DurNs max_backoff_ns = 1'000'000'000;    ///< backoff ceiling (1 s)
  double backoff_multiplier = 2.0;
  /// Jitter as a fraction of the backoff, drawn from a deterministic
  /// seeded stream so recovery schedules replay bit-identically.
  double jitter_frac = 0.1;
  u64 jitter_seed = 1;
  /// Replay budget per command across the connection lifetime. A command
  /// that out-lives this many attempts fails with kDataTransferError.
  u32 max_command_retries = 3;
  /// How long a reconnect handshake may wait for ICResp before the attempt
  /// is counted as failed and the next backoff starts.
  DurNs handshake_timeout_ns = 50'000'000;
  /// Keep-alive ping cadence; 0 disables pings (and therefore host-side
  /// dead-peer detection). Timing-plane tests must drive the clock with
  /// run_until() when this is non-zero — the tick re-arms itself.
  DurNs keepalive_interval_ns = 0;
  /// Consecutive unanswered keep-alives before the host declares the peer
  /// dead and starts a reconnect.
  u32 keepalive_miss_limit = 3;
  /// KATO advertised to the target in ICReq; 0 = use the target default.
  u64 kato_ns = 0;

  [[nodiscard]] bool enabled() const { return max_attempts > 0; }
};

/// Command-lifetime escalation ladder: what a per-command deadline expiry
/// does. Disabled by default (abort_budget == 0), which keeps the legacy
/// semantics — a deadline expiry goes straight to connection recovery (or
/// teardown without a ReconnectPolicy). When enabled, the rungs are:
///   deadline expires  -> send an NVMe Abort for the stuck command
///   abort times out   -> retry, up to abort_budget aborts per command;
///                        after demote_after_failed_aborts consecutive
///                        failures on a shm data path, demote_shm()
///   budget exhausted  -> the control path itself is dead: hand off to the
///                        PR-1 reconnect machine (recover()).
struct EscalationPolicy {
  /// Aborts attempted per stuck command before falling back to recovery;
  /// 0 disables the ladder entirely (legacy timeout -> recover()).
  u32 abort_budget = 0;
  /// Deadline for each Abort command itself; 0 = reuse command_timeout_ns.
  DurNs abort_timeout_ns = 0;
  /// Consecutive abort timeouts (across commands) that demote the shm data
  /// path — aborts ride the control channel, so if they fail while shm is
  /// up, the fast path is the prime suspect.
  u32 demote_after_failed_aborts = 2;

  [[nodiscard]] bool enabled() const { return abort_budget > 0; }
};

/// The initiator's resilience events, declared once. Each row generates a
/// ResilienceCounters field, its registry counter (name and HELP), the trace
/// instant the event writes (category and name), and oaf_perf's --json key
/// (the field name) and table label:
///   X(field, metric, help, trace_cat, trace_name, label)
/// A nullptr metric or trace name means another layer owns that record:
/// af::AfEndpoint counts and traces shm demotions and fenced peer
/// misbehavior once for both engines.
#define OAF_RESILIENCE_EVENTS(X)                                               \
  X(reconnects, "oaf_initiator_reconnects_total",                              \
    "Successful association re-establishments", "resilience", "reconnected",   \
    "reconnects")                                                              \
  X(reconnect_failures, "oaf_initiator_reconnect_failures_total",              \
    "Reconnect dial/handshake attempts that failed", "resilience",             \
    "reconnect_failed", "reconnect failures")                                  \
  X(commands_retried, "oaf_initiator_commands_retried_total",                  \
    "Commands replayed after faults", "resilience", "retry",                   \
    "commands retried")                                                        \
  X(keepalive_sent, "oaf_initiator_keepalive_sent_total",                      \
    "Keep-alive PDUs sent", "resilience", "keepalive_sent", "keepalives sent") \
  X(keepalive_misses, "oaf_initiator_keepalive_misses_total",                  \
    "Keep-alive intervals with no peer traffic", "resilience",                 \
    "keepalive_miss", "keepalive misses")                                      \
  X(shm_demotions, nullptr, nullptr, nullptr, nullptr, "shm demotions")        \
  X(digest_errors, "oaf_initiator_digest_errors_total",                        \
    "Data digest mismatches detected", "resilience", "digest_error",           \
    "digest errors")                                                           \
  X(deadlines_expired, "oaf_initiator_deadlines_expired_total",                \
    "Per-command deadlines that expired", "resilience", "deadline_expired",    \
    "deadlines expired")                                                       \
  X(aborts_sent, "oaf_initiator_aborts_sent_total", "NVMe Aborts sent",        \
    "resilience", "abort_sent", "aborts sent")                                 \
  X(aborts_succeeded, "oaf_initiator_aborts_succeeded_total",                  \
    "NVMe Aborts acknowledged by the target", "resilience", "abort_succeeded", \
    "aborts succeeded")                                                        \
  X(aborts_failed, "oaf_initiator_aborts_failed_total",                        \
    "NVMe Aborts that timed out", "resilience", "abort_failed",                \
    "aborts failed")                                                           \
  X(commands_aborted, "oaf_initiator_commands_aborted_total",                  \
    "Commands completed as aborted", "resilience", "aborted",                  \
    "commands aborted")                                                        \
  X(peer_misbehavior, nullptr, nullptr, nullptr, nullptr, "peer misbehavior")  \
  X(ana_changes, "oaf_initiator_ana_changes_total",                            \
    "ANA path-state transitions applied", "multipath", "ana_change",           \
    "ana changes")                                                             \
  X(queue_full_received, "oaf_initiator_queue_full_total",                     \
    "kQueueFull backpressure completions received", "overload",                \
    "queue_full_received", "queue-full received")                              \
  X(queue_full_retries, nullptr, nullptr, "overload", "queue_full_backoff",    \
    "queue-full retries")                                                      \
  X(admission_rejects, "oaf_initiator_admission_rejects_total",                \
    "Handshakes the target answered with admitted=false", "overload",          \
    "admission_rejected", "admission rejects")

/// Recovery activity, exported by initiator stats and printed by
/// tools/oaf_perf. One u64 per OAF_RESILIENCE_EVENTS row.
struct ResilienceCounters {
#define OAF_X(field, ...) u64 field = 0;
  OAF_RESILIENCE_EVENTS(OAF_X)
#undef OAF_X
};

/// Names one OAF_RESILIENCE_EVENTS row.
enum class ResilienceEvent : u8 {
#define OAF_X(field, ...) field,
  OAF_RESILIENCE_EVENTS(OAF_X)
#undef OAF_X
};

struct ResilienceEventInfo {
  u64 ResilienceCounters::*field;
  const char* key;         ///< --json key: the field name
  const char* metric;      ///< registry counter name, or nullptr
  const char* help;        ///< registry HELP string
  const char* trace_cat;   ///< category of the trace instant
  const char* trace_name;  ///< name of the trace instant, or nullptr
  const char* label;       ///< oaf_perf table row
};

/// The table, indexed by ResilienceEvent.
inline constexpr ResilienceEventInfo kResilienceEvents[] = {
#define OAF_X(field, metric, help, cat, name, label) \
  {&ResilienceCounters::field, #field, metric, help, cat, name, label},
    OAF_RESILIENCE_EVENTS(OAF_X)
#undef OAF_X
};
inline constexpr size_t kResilienceEventCount = std::size(kResilienceEvents);

}  // namespace oaf::nvmf
