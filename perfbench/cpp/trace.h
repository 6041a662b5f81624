// Outside-in layer tracing for the traced build (pb_traced).
//
// Each wrapper sits on an interface the engines are reached through —
// Executor, net::MsgChannel (and the Handler it installs), ssd::Device,
// net::Copier and nvmf::IoSession — and records one span per call: kind,
// start, end, the span that caused it, and the wire cid it concerns. Spans
// live in one preallocated array per process and are written out when the
// run ends; the load generator then joins both processes' spans on the
// shared CLOCK_MONOTONIC axis and breaks each I/O's latency down by layer.
// Untraced runs construct none of this.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/executor.h"
#include "net/channel.h"
#include "net/copier.h"
#include "nvmf/io_session.h"
#include "ssd/device.h"

namespace pb::trace {

using oaf::Executor;

/// Counted by the operator new replacement in alloc_hook.cpp, except on a
/// thread while `g_alloc_quiet` is set (the wrappers' own closures).
extern std::atomic<u64> g_allocs;
extern std::atomic<u64> g_alloc_bytes;
extern thread_local bool g_alloc_quiet;

enum class Kind : u8 {
  kSession,    ///< IoSession data call (nvmf, initiator submit)
  kZcBegin,    ///< IoSession::zero_copy_write_begin (af)
  kSend,       ///< MsgChannel::send (net: encode + syscall)
  kHandle,     ///< installed Handler: engine work per received PDU (nvmf)
  kTask,       ///< one executor task (sim)
  kWait,       ///< post -> task start (sim queue wait; not on a thread)
  kDevSubmit,  ///< Device::submit_* (ssd)
  kDevWait,    ///< device submit -> completion callback (not on a thread)
  kDevDone,    ///< device completion callback: target engine (nvmf)
  kCopy,       ///< Copier::copy (af)
};

struct Span {
  i64 t0 = 0;
  i64 t1 = 0;       ///< 0 while open
  u32 parent = 0;   ///< id (index + 1) of the causing span, 0 = none
  u32 io = 0;       ///< load-generator I/O index + 1, 0 = unknown
  u32 cid = 0;      ///< wire cid + 1, 0 = none
  u32 bytes = 0;    ///< payload bytes (copies)
  Kind kind = Kind::kTask;
  u8 thread = 0;    ///< recording thread; 255 for waits
  u8 pad[6] = {};
};

/// Counters sampled at the measured window's edges.
struct Marks {
  i64 t = 0;
  u64 wire_bytes = 0;
  u64 allocs = 0;
  u64 alloc_bytes = 0;
  u64 tel_events = 0;
  std::array<u64, 3> msgs{};  ///< PDUs on the wire by op: other, read, write
};

class Tracer {
 public:
  /// `count_msgs`: classify PDUs by the op of their cid (initiator side,
  /// which sees both directions of the one connection).
  Tracer(size_t capacity, bool count_msgs);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Executor& executor(Executor& inner);
  std::unique_ptr<oaf::net::MsgChannel> channel(
      std::unique_ptr<oaf::net::MsgChannel> inner);
  oaf::net::Copier& copier(oaf::net::Copier& inner);
  oaf::ssd::Device& device(oaf::ssd::Device& inner);
  oaf::nvmf::IoSession& session(oaf::nvmf::IoSession& inner);

  /// The next IoSession call belongs to load-generator I/O `index`.
  void set_io(u64 index) { next_io_ = static_cast<u32>(index + 1); }

  Marks mark();
  void set_window(bool on) { window_.store(on, std::memory_order_relaxed); }

  // --- recording (used by the wrappers) ------------------------------------
  /// Open a span on the calling thread under its innermost open span.
  u32 open(Kind k, u32 cid, u32 io);
  u32 open_under(Kind k, u32 cid, u32 io, u32 parent);
  void close(u32 id);
  void set_bytes(u32 id, u64 bytes);
  /// Record a finished span that no thread runs (a wait).
  u32 add(Kind k, i64 t0, i64 t1, u32 cid, u32 parent);
  /// Innermost open span on the calling thread (0 = none).
  static u32 current();
  void note_pdu(const oaf::pdu::Pdu& p);

  [[nodiscard]] std::vector<Span> spans() const;
  /// First time a span was dropped because the array was full (0 = never).
  [[nodiscard]] i64 full_at() const { return full_at_.load(); }

  bool write(const std::string& path, const Marks& begin, const Marks& end) const;
  struct Dump {
    std::vector<Span> spans;
    i64 full_at = 0;
    Marks begin, end;
  };
  static bool read(const std::string& path, Dump& out);

 private:
  class ExecutorW;
  class ChannelW;
  class CopierW;
  class DeviceW;
  class SessionW;

  u32 claim();

  std::vector<Span> spans_;
  std::atomic<u64> next_{0};
  std::atomic<i64> full_at_{0};
  std::atomic<bool> window_{false};
  const bool count_msgs_;
  u32 next_io_ = 0;
  std::array<u8, 65536> cid_op_{};
  std::array<std::atomic<u64>, 3> msgs_{};
  std::atomic<oaf::net::MsgChannel*> wire_{nullptr};
  std::unique_ptr<ExecutorW> exec_;
  std::unique_ptr<CopierW> copier_;
  std::unique_ptr<DeviceW> device_;
  std::unique_ptr<SessionW> session_;
};

struct SideStats {
  Marks begin, end;
  Usage usage_begin, usage_end;
  i64 full_at = 0;
};

/// Per-layer metrics (README.md) from both processes' spans. `ios` are the
/// measured-window I/Os counted by the closed loop.
std::map<std::string, double> analyze(const std::vector<Span>& ini,
                                      const std::vector<Span>& tgt,
                                      const std::vector<IoRec>& recs,
                                      const SideStats& ini_s,
                                      const SideStats& tgt_s, u64 ios,
                                      u64 reads, u64 writes, u64 retries,
                                      u64 zc_refused);

}  // namespace pb::trace
