// Load generator: one process, one connection, one closed loop.
//
// It launches the target host, builds the client from the types oaf_perf
// uses (net::tcp_connect, nvmf::NvmfInitiator, af::AfConfig::oaf()) and
// drives it through nvmf::IoSession at a fixed queue depth: every I/O waits
// for a completion before the next is submitted, as an HPC rank does. Offsets
// and payload stamps come from the seed; every read and, after the timed
// phase, the whole write half are checked against the stamps.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "host.h"
#include "net/copier.h"
#include "net/tcp_channel.h"
#include "nvmf/initiator.h"
#include "sim/real_executor.h"
#ifdef PB_TRACED
#include "trace.h"
#endif

extern char** environ;

namespace pb {

namespace {

using oaf::nvmf::IoSession;

/// Warm-up before the measured window.
constexpr double kWarmupS = 1.0;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 61;
/// Result records and the target host's span dump, under the working
/// directory.
constexpr const char* kOutDir = ".bench_out";

struct LoadOptions {
  const Workload* w = nullptr;
  u64 seed = 1;
  double seconds = 10;
  /// Self-test faults. Verifier: flip | unwritten | lost-write; guards:
  /// wrong-path (present the other locality token) | demote (drop shm).
  std::string fault;
};

/// The running target host, so that die() can stop it too.
pid_t g_host_pid = -1;

/// Give up without unwinding (reactor and reader threads may still run),
/// after stopping the target host and waiting for it.
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "pb load: %s\n", what);
  std::fflush(stderr);
  if (g_host_pid > 0) {
    ::kill(g_host_pid, SIGKILL);
    int st = 0;
    ::waitpid(g_host_pid, &st, 0);
  }
  std::_Exit(1);
}

// --- target host process ----------------------------------------------------

class HostProc {
 public:
  HostProc() = default;
  HostProc(const HostProc&) = delete;
  HostProc& operator=(const HostProc&) = delete;
  ~HostProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int st = 0;
      ::waitpid(pid_, &st, 0);
      g_host_pid = -1;
    }
    if (in_ >= 0) ::close(in_);
    if (out_ >= 0) ::close(out_);
  }

  bool spawn(const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) return false;
    if (::pipe2(from_child, O_CLOEXEC) != 0) return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&fa, from_child[1], 1);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, "/proc/self/exe", &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
    if (rc != 0) pid_ = -1;
    g_host_pid = pid_;
    return rc == 0;
  }

  /// Next line from the host's stdout; "" on EOF or after `timeout_ms`.
  std::string line(int timeout_ms) {
    const i64 deadline = now_ns() + static_cast<i64>(timeout_ms) * 1'000'000;
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return out;
      }
      const i64 left = (deadline - now_ns()) / 1'000'000;
      if (left <= 0) return "";
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Send a command and wait for its "ok" echo.
  void command(const std::string& cmd) {
    const std::string msg = cmd + "\n";
    if (::write(in_, msg.data(), msg.size()) != static_cast<ssize_t>(msg.size()) ||
        line(60'000) != "ok " + cmd) {
      die(("target host did not acknowledge '" + cmd + "'").c_str());
    }
  }

  /// Send quit; return the host's stats line and reap it.
  std::string quit() {
    const std::string msg = "quit\n";
    if (::write(in_, msg.data(), msg.size()) < 0) return "";
    std::string stats = line(30'000);
    int st = 0;
    if (pid_ > 0 && ::waitpid(pid_, &st, 0) == pid_) pid_ = g_host_pid = -1;
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) return "";
    return stats;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buf_;
};

// --- closed loop --------------------------------------------------------------

/// All loop state lives on the initiator's reactor thread.
class Loop {
 public:
  enum Op : u8 { kRead = 1, kWrite = 2 };
  static constexpr i64 kSliceNs = 1'000'000'000;
  /// The measured window in 1 s slices; the last one takes the remainder.
  static size_t slices(i64 t_begin, i64 t_end) {
    return static_cast<size_t>(std::max<i64>(1, (t_end - t_begin + kSliceNs / 2) / kSliceNs));
  }

  Loop(IoSession& s, const Workload& w, u64 seed, bool record)
      : s_(s), w_(w), seed_(seed), record_(record) {
    half_blocks_ = w.working_set / 2 / kStampBytes;
    io_blocks_ = w.io_bytes / kStampBytes;
    versions_.assign(half_blocks_, 0);
    busy_.assign(half_blocks_, 0);
    rng_ = seed ^ 0x243f6a8885a308d3ULL;
    for (const char* c = w.name; *c != '\0'; ++c) rng_ = rng_ * 131 + static_cast<u8>(*c);
    bufs_.resize(w.qd);
    for (u32 i = 0; i < w.qd; ++i) {
      bufs_[i].assign(w.io_bytes, 0);
      free_.push_back(i);
    }
  }

  /// Closed loop until `t_end`; samples I/Os completing in [t_begin, t_end].
  void run(i64 t_begin, i64 t_end, std::function<void()> done) {
    t_begin_ = t_begin;
    t_end_ = t_end;
    for (int op = 0; op < 3; ++op) {
      lat_[op].assign(slices(t_begin, t_end), {});
      bytes_[op].assign(slices(t_begin, t_end), 0);
    }
    done_ = std::move(done);
    pump();
  }

  /// Read the whole write half back and check every block's last stamp.
  void read_back(std::function<void()> done) {
    readback_ = true;
    cursor_ = 0;
    done_ = std::move(done);
    pump();
  }

  /// First block of the write half that a write landed in (self-test).
  [[nodiscard]] std::optional<u64> written_block() const {
    for (u64 i = 0; i < half_blocks_; ++i) {
      if (versions_[i] != 0) return half_blocks_ + i;
    }
    return std::nullopt;
  }

  void set_io_hook(std::function<void(u64)> h) { io_hook_ = std::move(h); }

  /// Measured window, cut into 1 s slices: latency samples (ns) and
  /// payload bytes completed, by op then slice.
  std::vector<std::vector<u32>> lat_[3];
  std::vector<u64> bytes_[3];
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 mismatched_ = 0;
  u64 zc_refused_ = 0;
  std::vector<IoRec> recs_;

 private:
  struct Io {
    Op op;
    u64 block;  ///< first 4 KiB block
    u64 blocks;
  };

  u64 rand() {
    u64 z = (rng_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  [[nodiscard]] bool stopped() const {
    return readback_ ? cursor_ >= half_blocks_ : now_ns() >= t_end_;
  }

  Io next() {
    if (readback_) {
      const u64 n = std::min(io_blocks_, half_blocks_ - cursor_);
      Io io{kRead, half_blocks_ + cursor_, n};
      cursor_ += n;
      return io;
    }
    const bool read = static_cast<double>(rand() >> 11) * 0x1.0p-53 < w_.read_frac;
    const u64 off = rand() % (half_blocks_ - io_blocks_ + 1);
    return read ? Io{kRead, off, io_blocks_} : Io{kWrite, half_blocks_ + off, io_blocks_};
  }

  [[nodiscard]] bool conflicts(const Io& io) const {
    for (u64 b = 0; b < io.blocks; ++b) {
      if (busy_[io.block - half_blocks_ + b] != 0) return true;
    }
    return false;
  }

  void pump() {
    if (pumping_) return;
    pumping_ = true;
    for (;;) {
      if (parked_) {
        if (stopped()) {
          parked_.reset();
          continue;
        }
        if (conflicts(*parked_)) break;
        const Io io = *parked_;
        parked_.reset();
        submit(io);
        continue;
      }
      if (stopped() || inflight_ >= w_.qd) break;
      const Io io = next();
      if (io.op == kWrite && conflicts(io)) {
        // No two in-flight writes overlap: wait for the older one.
        parked_ = io;
        continue;
      }
      submit(io);
    }
    pumping_ = false;
    if (inflight_ == 0 && stopped() && done_) {
      auto d = std::move(done_);
      done_ = nullptr;
      d();
    }
  }

  /// Every 4 KiB block must hold the stamp of its last acknowledged write,
  /// the prefill stamp (read half), or zeros if never written.
  bool verify(const u8* data, const Io& io) const {
    for (u64 b = 0; b < io.blocks; ++b) {
      const u64 blk = io.block + b;
      const u8* p = data + b * kStampBytes;
      bool ok = false;
      if (blk < half_blocks_) {
        ok = check_stamp(p, seed_, blk, 0);
      } else {
        const u32 v = versions_[blk - half_blocks_];
        ok = v == 0 ? is_zero_block(p) : check_stamp(p, seed_, blk, v);
      }
      if (!ok) return false;
    }
    return true;
  }

  void submit(const Io& io) {
    const u64 len = io.blocks * kStampBytes;
    const u64 slba = io.block * (kStampBytes / kLbaBytes);
    u32 version = 0;
    if (io.op == kWrite) {
      version = ++write_seq_;
      for (u64 b = 0; b < io.blocks; ++b) busy_[io.block - half_blocks_ + b] = 1;
    }
    ++attempted_;
    ++inflight_;
    const u64 idx = recs_.size();
    if (record_) recs_.push_back({});
    if (io_hook_) io_hook_(idx);

    if (io.op == kRead && w_.shm) {
      const i64 t0 = now_ns();
      s_.zero_copy_read(1, slba, len,
                        [this, io, t0, idx](oaf::Result<IoSession::ReadView> v,
                                            IoSession::IoResult r) mutable {
                          const i64 t1 = now_ns();
                          bool ok = r.ok() && v.is_ok();
                          bool match = true;
                          if (ok) {
                            const IoSession::ReadView& view = v.value();
                            match = view.data.size() >= io.blocks * kStampBytes &&
                                    verify(view.data.data(), io);
                            if (view.release) view.release();
                          }
                          finish(io, 0, {t0, t1}, ok, match, r.cpl.cid, idx);
                        });
      return;
    }
    if (io.op == kRead) {
      const u32 slot = take_buf();
      const i64 t0 = now_ns();
      s_.read(1, slba, std::span<u8>(bufs_[slot].data(), len),
              [this, io, t0, idx, slot](IoSession::IoResult r) {
                const i64 t1 = now_ns();
                const bool match = !r.ok() || verify(bufs_[slot].data(), io);
                free_.push_back(slot);
                finish(io, 0, {t0, t1}, r.ok(), match, r.cpl.cid, idx);
              });
      return;
    }
    // A write's clock starts at its first IoSession call, which on shm is
    // zero_copy_write_begin; the stamp fill between that and the submit is
    // the application producing its data and is left out.
    IoRec rec;
    rec.t0 = now_ns();
    std::optional<IoSession::WriteTicket> zc;
    if (w_.shm) {
      if (auto ticket = s_.zero_copy_write_begin(len)) {
        zc = ticket.value();
      } else {
        ++zc_refused_;  // no shm buffer: fall back to the staged write
      }
    }
    const u32 slot = zc ? 0 : take_buf();
    u8* dst = zc ? zc->buffer.data() : bufs_[slot].data();
    rec.fill0 = now_ns();
    for (u64 b = 0; b < io.blocks; ++b) {
      fill_stamp(dst + b * kStampBytes, seed_, io.block + b, version);
    }
    rec.fill1 = now_ns();
    auto done = [this, io, version, rec, idx, slot, staged = !zc,
                 zc_cid = zc ? zc->cid : u16{0}](IoSession::IoResult r) {
      IoRec t = rec;
      t.t1 = now_ns();
      if (staged) free_.push_back(slot);
      finish(io, version, t, r.ok(), true, staged ? r.cpl.cid : zc_cid, idx);
    };
    if (zc) {
      s_.zero_copy_write(*zc, 1, slba, len, std::move(done));
    } else {
      s_.write(1, slba, std::span<const u8>(dst, len), std::move(done));
    }
  }

  u32 take_buf() {
    const u32 slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// `rec` carries the I/O's times; the rest of it is filled in here.
  void finish(const Io& io, u32 version, IoRec rec, bool ok, bool match,
              u16 cid, u64 idx) {
    --inflight_;
    if (!ok || !match) ++failed_;
    if (!match) ++mismatched_;
    if (io.op == kWrite) {
      for (u64 b = 0; b < io.blocks; ++b) {
        const u64 i = io.block - half_blocks_ + b;
        busy_[i] = 0;
        if (ok) versions_[i] = version;
      }
    }
    if (!readback_ && rec.t1 >= t_begin_ && rec.t1 <= t_end_) {
      const size_t k = std::min(static_cast<size_t>((rec.t1 - t_begin_) / kSliceNs),
                                lat_[io.op].size() - 1);
      const i64 lat = rec.t1 - rec.t0 - (rec.fill1 - rec.fill0);
      lat_[io.op][k].push_back(static_cast<u32>(std::min<i64>(lat, UINT32_MAX)));
      bytes_[io.op][k] += io.blocks * kStampBytes;
    }
    if (record_) {
      rec.cid = cid;
      rec.op = static_cast<u8>(io.op);
      rec.ok = ok && match;
      recs_[idx] = rec;
    }
    pump();
  }

  IoSession& s_;
  const Workload& w_;
  const u64 seed_;
  const bool record_;
  u64 half_blocks_ = 0;
  u64 io_blocks_ = 0;
  std::vector<u32> versions_;
  std::vector<u8> busy_;
  u32 write_seq_ = 0;
  u64 rng_ = 0;
  std::vector<std::vector<u8>> bufs_;
  std::vector<u32> free_;
  u32 inflight_ = 0;
  std::optional<Io> parked_;
  bool pumping_ = false;
  bool readback_ = false;
  u64 cursor_ = 0;
  i64 t_begin_ = 0;
  i64 t_end_ = 0;
  std::function<void()> done_;
  std::function<void(u64)> io_hook_;
};

// --- one session: target host + connected initiator ---------------------------

#ifdef PB_TRACED
using Tracer = trace::Tracer;
#else
struct Tracer {};  // untraced build: no layer wrappers
#endif

struct Session {
  std::unique_ptr<HostProc> host;
  std::unique_ptr<oaf::sim::RealExecutor> exec;
  std::unique_ptr<oaf::net::InlineCopier> copier;
  std::unique_ptr<oaf::af::ShmBroker> broker;
  std::unique_ptr<oaf::net::MsgChannel> channel;
  std::unique_ptr<oaf::nvmf::NvmfInitiator> ini;
  IoSession* session = nullptr;  ///< what the loop calls
};

struct Placement {
  std::vector<int> tgt;
  std::vector<int> load;
};

/// Target host on the first half of the CPUs this process may use, load
/// generator on the second; each process gets a reactor and a socket reader.
Placement place(const std::vector<int>& cpus) {
  Placement p;
  if (cpus.size() < 2) {
    p.tgt = p.load = cpus;
    return p;
  }
  const size_t half = cpus.size() / 2;
  p.tgt.assign(cpus.begin(), cpus.begin() + static_cast<std::ptrdiff_t>(half));
  p.load.assign(cpus.begin() + static_cast<std::ptrdiff_t>(half), cpus.end());
  return p;
}

template <typename T>
T wait_for(std::future<T>& f, int seconds, const char* what) {
  if (f.wait_for(std::chrono::seconds(seconds)) != std::future_status::ready) die(what);
  return f.get();
}

/// Launch the target host, connect, and identify. Returns ns from launch
/// to the completed identify (setup_s).
i64 setup(Session& s, const LoadOptions& o, const Placement& pl,
          const std::string& conn, const std::string& trace_out,
          [[maybe_unused]] Tracer* tracer) {
  const Workload& w = *o.w;
  const i64 t0 = now_ns();
  s.host = std::make_unique<HostProc>();
  std::vector<std::string> args = {
      "pb", "host",
      "--cpus", cpus_str(pl.tgt),
      "--capacity", std::to_string(w.working_set),
      "--seed", std::to_string(o.seed),
      "--conn", conn};
  if (o.fault == "flip" || o.fault == "unwritten") {
    args.insert(args.end(), {"--fault", o.fault});
  }
  if (!trace_out.empty()) args.insert(args.end(), {"--trace-out", trace_out});
  if (!s.host->spawn(args)) die("cannot launch the target host");
  const std::string port_line = s.host->line(30'000);
  if (port_line.rfind("port ", 0) != 0) die("target host reported no port");
  const auto port = static_cast<oaf::u16>(std::atoi(port_line.c_str() + 5));

  s.exec = std::make_unique<oaf::sim::RealExecutor>();
  s.copier = std::make_unique<oaf::net::InlineCopier>();
  const bool co_located = w.shm != (o.fault == "wrong-path");
  s.broker = std::make_unique<oaf::af::ShmBroker>(
      co_located ? kHostToken : kRemoteToken, oaf::af::ShmBroker::Backing::kPosixShm);
  oaf::Executor* ex = s.exec.get();
  oaf::net::Copier* copier = s.copier.get();
#ifdef PB_TRACED
  if (tracer != nullptr) {
    ex = &tracer->executor(*s.exec);
    copier = &tracer->copier(*s.copier);
  }
#endif
  auto ch = oaf::net::tcp_connect("127.0.0.1", port, *ex);
  if (!ch) die(("connect: " + ch.status().to_string()).c_str());
  s.channel = std::move(ch).take();
#ifdef PB_TRACED
  if (tracer != nullptr) s.channel = tracer->channel(std::move(s.channel));
#endif

  oaf::af::AfConfig cfg = oaf::af::AfConfig::oaf();
  cfg.shm_slot_bytes = std::max<u64>(w.io_bytes, 4 * kKiB);
  cfg.shm_slots = w.qd;
  oaf::nvmf::InitiatorOptions iopts;
  iopts.af = cfg;
  iopts.queue_depth = w.qd;
  iopts.connection_name = conn;
  s.ini = std::make_unique<oaf::nvmf::NvmfInitiator>(*ex, *s.channel, *copier,
                                                      *s.broker, iopts);
  s.session = s.ini.get();
#ifdef PB_TRACED
  if (tracer != nullptr) s.session = &tracer->session(*s.ini);
#endif

  std::promise<oaf::Status> connected;
  auto connected_f = connected.get_future();
  s.exec->post([&] {
    s.ini->connect([&](oaf::Status st) { connected.set_value(std::move(st)); });
  });
  const oaf::Status st = wait_for(connected_f, 30, "connect timed out");
  if (!st) die(("handshake: " + st.to_string()).c_str());
  std::promise<u64> identified;
  auto identified_f = identified.get_future();
  s.exec->post([&] {
    s.session->identify(1, [&](oaf::Result<std::pair<oaf::u32, oaf::u64>> r) {
      identified.set_value(r ? r.value().second : 0);
    });
  });
  if (wait_for(identified_f, 30, "identify timed out") != w.working_set / kLbaBytes) {
    die("identify returned the wrong namespace size");
  }
  return now_ns() - t0;
}

/// Hang up and stop the target host; returns its stats line.
std::string teardown(Session& s) {
  run_on(*s.exec, [&] { s.ini.reset(); });
  s.channel.reset();  // joins its reader thread
  s.exec.reset();
  std::string stats = s.host->quit();
  s.host.reset();
  if (stats.rfind("stats ", 0) != 0) die("target host exited without stats");
  return stats.substr(6);
}

double json_number(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

void sleep_until_ns(i64 t) {
  const i64 d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

}  // namespace

int load_main(int argc, char** argv) {
  LoadOptions o;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.w = find_workload(v);
      if (o.w == nullptr) die(("unknown workload " + v).c_str());
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--fault") {
      o.fault = v;
    } else {
      die(("unknown argument " + k).c_str());
    }
  }
  if (o.w == nullptr || o.seconds <= 0) die("--workload and --seconds > 0 are required");
  if (!o.fault.empty() && o.fault != "flip" && o.fault != "unwritten" &&
      o.fault != "lost-write" && o.fault != "wrong-path" && o.fault != "demote") {
    die("--fault must be flip, unwritten, lost-write, wrong-path or demote");
  }
  const Workload& w = *o.w;
  const std::vector<int> allowed = allowed_cpus();
  const Placement pl = place(allowed);
  if (!pin_to(pl.load)) die("cannot pin the load generator");
  ::mkdir(kOutDir, 0755);
  const std::string conn = "pb" + std::to_string(::getpid());

  std::unique_ptr<Tracer> tracer;
  std::string host_trace;
#ifdef PB_TRACED
  tracer = std::make_unique<Tracer>(kSpanCapacity, true);
  host_trace = std::string(kOutDir) + "/host_spans_" + std::to_string(::getpid()) + ".bin";
#endif

  // Set up several times; the last session is the one measured.
  std::vector<double> setup_s;
  Session s;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) (void)teardown(s);
    const bool last = k + 1 == kSetups;
    setup_s.push_back(
        static_cast<double>(setup(s, o, pl, conn + "_" + std::to_string(k),
                                  last ? host_trace : "", tracer.get())) / 1e9);
  }

  // Data-path guard: the negotiated path must be the workload's.
  bool shm = false;
  bool zc = false;
  run_on(*s.exec, [&] {
    shm = s.ini->shm_active();
    zc = s.ini->supports_zero_copy();
  });
  if (shm != w.shm || zc != w.shm) {
    std::fprintf(stderr, "pb load: invalid run: negotiated %s%s, workload %s names %s\n",
                 shm ? "shm" : "tcp", zc ? " (zero-copy)" : "", w.name,
                 w.shm ? "shm zero-copy" : "tcp");
    return 1;
  }

  s.host->command("prefill");
  Loop d(*s.session, w, o.seed, tracer != nullptr);
#ifdef PB_TRACED
  d.set_io_hook([t = tracer.get()](u64 i) { t->set_io(i); });
#endif
  const i64 t_begin = now_ns() + static_cast<i64>(kWarmupS * 1e9);
  const i64 t_end = t_begin + static_cast<i64>(o.seconds * 1e9);
  std::promise<void> ran;
  auto ran_f = ran.get_future();
  s.exec->post([&] { d.run(t_begin, t_end, [&] { ran.set_value(); }); });
  sleep_until_ns(t_begin);
  const Usage u_begin = usage_now();
  // Hypervisor steal on our CPUs at every slice edge.
  std::vector<u64> steal = {steal_ticks(allowed)};
#ifdef PB_TRACED
  const trace::Marks m_begin = tracer->mark();
  tracer->set_window(true);
#endif
  s.host->command("begin");
  if (o.fault == "demote") {
    s.exec->post([&] { s.ini->demote_shm("perfbench self-test"); });
  }
  const size_t slices = Loop::slices(t_begin, t_end);
  for (size_t k = 1; k <= slices; ++k) {
    sleep_until_ns(k == slices ? t_end : t_begin + static_cast<i64>(k) * Loop::kSliceNs);
    steal.push_back(steal_ticks(allowed));
  }
  const Usage u_end = usage_now();
#ifdef PB_TRACED
  tracer->set_window(false);
  const trace::Marks m_end = tracer->mark();
#endif
  s.host->command("end");
  wait_for(ran_f, 60, "in-flight I/Os did not drain");

  if (o.fault == "lost-write") {
    std::optional<u64> block;
    run_on(*s.exec, [&] { block = d.written_block(); });
    if (block) s.host->command("revert " + std::to_string(*block));
  }
  std::promise<void> checked;
  auto checked_f = checked.get_future();
  s.exec->post([&] { d.read_back([&] { checked.set_value(); }); });
  wait_for(checked_f, 120, "write-half read-back did not finish");

  // Resilience guard: a run that reconnected, demoted, aborted or retried
  // did not measure the path it names.
  oaf::nvmf::ResilienceCounters rc;
  run_on(*s.exec, [&] {
    rc = s.ini->resilience();
    shm = s.ini->shm_active();
  });
  const u64 retries = rc.commands_retried + rc.queue_full_retries;
  const bool resilient_ok = rc.reconnects == 0 && rc.shm_demotions == 0 &&
                            rc.aborts_sent == 0 && rc.commands_aborted == 0 &&
                            rc.queue_full_received == 0 && retries == 0 &&
                            shm == w.shm;
  const std::string host_stats = teardown(s);

  // --- results --------------------------------------------------------------
  const double window_s = static_cast<double>(t_end - t_begin) / 1e9;
  u64 reads = 0;
  u64 writes = 0;
  for (const auto& v : d.lat_[Loop::kRead]) reads += v.size();
  for (const auto& v : d.lat_[Loop::kWrite]) writes += v.size();
  // Each timing is the median over the 1 s slices of the window, so one
  // disturbed second cannot move a run's figure. Only the quarter of the
  // slices in which the hypervisor stole least from our CPUs counts (with
  // every slice tied with it): in the others the host's other tenants set
  // the figure, not the program.
  std::vector<u64> stolen;
  for (size_t k = 0; k < slices; ++k) stolen.push_back(steal[k + 1] - steal[k]);
  std::vector<u64> sorted_stolen = stolen;
  std::sort(sorted_stolen.begin(), sorted_stolen.end());
  const u64 steal_cut = sorted_stolen[(slices + 3) / 4 - 1];
  std::vector<size_t> kept;
  for (size_t k = 0; k < slices; ++k) {
    if (stolen[k] <= steal_cut) kept.push_back(k);
  }
  auto kept_samples = [&](int op) {
    u64 n = 0;
    for (size_t k : kept) n += d.lat_[op][k].size();
    return n;
  };
  auto slice_pct = [&](int op, double q) {
    std::vector<double> per;
    for (size_t k : kept) {
      if (!d.lat_[op][k].empty()) per.push_back(pct_us(d.lat_[op][k], q));
    }
    return median(per);
  };
  auto slice_mib_s = [&](int op) {
    std::vector<double> per;
    for (size_t k : kept) {
      const i64 from = t_begin + static_cast<i64>(k) * Loop::kSliceNs;
      const i64 to = k + 1 == slices ? t_end : from + Loop::kSliceNs;
      per.push_back(static_cast<double>(d.bytes_[op][k]) / kMiB /
                    (static_cast<double>(to - from) / 1e9));
    }
    return median(per);
  };
  const double setup_med = median(setup_s);

  struct Metric {
    const char* name;
    double value;
    const char* unit;
    u64 samples;
  };
  const std::vector<Metric> e2e = {
      {"setup_s", setup_med, "s", setup_s.size()},
      {"read_p50_us", slice_pct(Loop::kRead, 0.50), "us", kept_samples(Loop::kRead)},
      {"read_p99_us", slice_pct(Loop::kRead, 0.99), "us", kept_samples(Loop::kRead)},
      {"write_p50_us", slice_pct(Loop::kWrite, 0.50), "us", kept_samples(Loop::kWrite)},
      {"write_p99_us", slice_pct(Loop::kWrite, 0.99), "us", kept_samples(Loop::kWrite)},
      {"read_mib_s", slice_mib_s(Loop::kRead), "MiB/s", kept_samples(Loop::kRead)},
      {"write_mib_s", slice_mib_s(Loop::kWrite), "MiB/s", kept_samples(Loop::kWrite)},
      {"failed_frac",
       static_cast<double>(d.failed_) / static_cast<double>(std::max<u64>(d.attempted_, 1)),
       "fraction", d.attempted_},
      {"peak_rss_mib", peak_rss_mib() + json_number(host_stats, "peak_rss_mib"), "MiB", 2},
  };

  std::string out = "{";
  char num[64];
  auto add = [&](const std::string& key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += quoted(key) + ": " + value;
  };
  auto fmt = [&](double v) {
    std::snprintf(num, sizeof(num), "%.10g", v);
    return std::string(num);
  };
  const bool correct = d.failed_ == 0 && resilient_ok;
  add("workload", quoted(w.name));
  add("seed", std::to_string(o.seed));
  add("traced", tracer ? "true" : "false");
  add("correct", correct ? "true" : "false");
  add("attempted", std::to_string(d.attempted_));
  add("failed", std::to_string(d.failed_));
  add("mismatched", std::to_string(d.mismatched_));
  add("window_s", fmt(window_s));
  std::string setups;
  for (double v : setup_s) setups += (setups.empty() ? "" : ", ") + fmt(v);
  add("setup_samples_s", "[" + setups + "]");
  std::string metrics = "{";
  for (const Metric& m : e2e) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += quoted(m.name) + ": {\"value\": " + fmt(m.value) + ", \"unit\": " +
               quoted(m.unit) + ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  add("metrics", metrics + "}");
  std::string layers = "{";
#ifdef PB_TRACED
  trace::Tracer::Dump host_dump;
  if (!trace::Tracer::read(host_trace, host_dump)) die("cannot read the target host's spans");
  std::remove(host_trace.c_str());
  trace::SideStats ini_s;
  ini_s.begin = m_begin;
  ini_s.end = m_end;
  ini_s.usage_begin = u_begin;
  ini_s.usage_end = u_end;
  ini_s.full_at = tracer->full_at();
  trace::SideStats tgt_s;
  tgt_s.begin = host_dump.begin;
  tgt_s.end = host_dump.end;
  tgt_s.usage_end.cpu_us = static_cast<i64>(json_number(host_stats, "cpu_us"));
  tgt_s.usage_end.csw = static_cast<i64>(json_number(host_stats, "csw"));
  tgt_s.full_at = host_dump.full_at;
  const auto lm = trace::analyze(tracer->spans(), host_dump.spans, d.recs_, ini_s,
                                 tgt_s, reads + writes, reads, writes, retries,
                                 d.zc_refused_);
  for (const auto& [name, value] : lm) {
    if (layers.size() > 1) layers += ", ";
    layers += quoted(name) + ": " + fmt(value);
  }
#else
  (void)u_begin;
  (void)u_end;
#endif
  add("layers", layers + "}");
  add("guard",
      "{\"data_path\": " + quoted(shm ? "shm" : "tcp") +
          ", \"zero_copy\": " + (zc ? "true" : "false") +
          ", \"reconnects\": " + std::to_string(rc.reconnects) +
          ", \"shm_demotions\": " + std::to_string(rc.shm_demotions) +
          ", \"aborts_sent\": " + std::to_string(rc.aborts_sent) +
          ", \"commands_aborted\": " + std::to_string(rc.commands_aborted) +
          ", \"queue_full_received\": " + std::to_string(rc.queue_full_received) +
          ", \"retries\": " + std::to_string(retries) +
          ", \"zc_refused\": " + std::to_string(d.zc_refused_) +
          ", \"ok\": " + (resilient_ok ? "true" : "false") + "}");
  add("env",
      "{\"cpu_model\": " + quoted(cpu_model()) +
          ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
          ", \"target_cpus\": " + quoted(cpus_str(pl.tgt)) +
          ", \"load_cpus\": " + quoted(cpus_str(pl.load)) +
          ", \"build_type\": " + quoted(PB_BUILD_TYPE) +
          ", \"seed\": " + std::to_string(o.seed) +
          ", \"steal_frac\": " +
          fmt(static_cast<double>(steal.back() - steal.front()) /
              static_cast<double>(::sysconf(_SC_CLK_TCK)) / window_s /
              static_cast<double>(std::max<size_t>(allowed.size(), 1))) +
          ", \"slices\": " + std::to_string(slices) +
          ", \"slices_kept\": " + std::to_string(kept.size()) +
          ", \"slice_steal_ticks\": [" + [&] {
            std::string l;
            for (u64 v : stolen) l += (l.empty() ? "" : ", ") + std::to_string(v);
            return l;
          }() + "]" +
          ", \"network\": \"loopback\"}");
  out += "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  if (!resilient_ok) {
    std::fprintf(stderr, "pb load: invalid run: resilience counters moved or data path changed\n");
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace pb
