#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "telemetry/anomaly.h"

namespace pb::trace {

namespace oaf_pdu = oaf::pdu;
using oaf::DurNs;
using oaf::TimeNs;

namespace {

thread_local std::vector<u32> t_stack;
thread_local int t_thread = -1;
std::atomic<int> g_threads{0};

u8 thread_no() {
  if (t_thread < 0) t_thread = g_threads.fetch_add(1);
  return static_cast<u8>(std::min(t_thread, 254));
}

/// Wire cid + 1 of a PDU that belongs to a command, 0 otherwise.
u32 cid_of(const oaf_pdu::Pdu& p) {
  if (const auto* c = p.as<oaf_pdu::CapsuleCmd>()) return c->cmd.cid + 1u;
  if (const auto* r = p.as<oaf_pdu::CapsuleResp>()) return r->cpl.cid + 1u;
  if (const auto* r = p.as<oaf_pdu::R2T>()) return r->cid + 1u;
  if (const auto* h = p.as<oaf_pdu::H2CData>()) return h->cid + 1u;
  if (const auto* c = p.as<oaf_pdu::C2HData>()) return c->cid + 1u;
  return 0;
}

}  // namespace

thread_local bool g_alloc_quiet = false;

/// Keeps the wrappers' own closures out of the allocation counts.
struct Quiet {
  Quiet() { g_alloc_quiet = true; }
  ~Quiet() { g_alloc_quiet = false; }
  Quiet(const Quiet&) = delete;
  Quiet& operator=(const Quiet&) = delete;
};

// --- wrappers ---------------------------------------------------------------

class Tracer::ExecutorW final : public Executor {
 public:
  ExecutorW(Tracer& t, Executor& inner) : t_(t), inner_(inner) {}

  void post(Fn fn) override { inner_.post(task(now_ns(), std::move(fn))); }

  void schedule_after(DurNs delay, Fn fn) override {
    const DurNs d = std::max<DurNs>(delay, 0);
    inner_.schedule_after(d, task(now_ns() + d, std::move(fn)));
  }

  [[nodiscard]] TimeNs now() const override { return inner_.now(); }

 private:
  Fn task(i64 ready, Fn fn) {
    Quiet q;
    return [this, ready, cause = current(), fn = std::move(fn)] {
      const i64 start = now_ns();
      const u32 wait =
          t_.add(Kind::kWait, ready, std::max(ready, start), 0, cause);
      const u32 id = t_.open_under(Kind::kTask, 0, 0, wait);
      fn();
      t_.close(id);
    };
  }

  Tracer& t_;
  Executor& inner_;
};

class Tracer::ChannelW final : public oaf::net::MsgChannel {
 public:
  ChannelW(Tracer& t, std::unique_ptr<MsgChannel> inner)
      : t_(t), inner_(std::move(inner)) {}

  void send(oaf_pdu::Pdu pdu) override {
    t_.note_pdu(pdu);
    const u32 id = t_.open(Kind::kSend, cid_of(pdu), 0);
    inner_->send(std::move(pdu));
    t_.close(id);
  }

  void set_handler(Handler handler) override {
    Quiet q;
    inner_->set_handler([this, h = std::move(handler)](oaf_pdu::Pdu p) {
      t_.note_pdu(p);
      const u32 id = t_.open(Kind::kHandle, cid_of(p), 0);
      h(std::move(p));
      t_.close(id);
    });
  }

  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] Executor& executor() override { return inner_->executor(); }
  [[nodiscard]] u64 bytes_sent() const override { return inner_->bytes_sent(); }
  [[nodiscard]] u64 pdus_sent() const override { return inner_->pdus_sent(); }

 private:
  Tracer& t_;
  std::unique_ptr<MsgChannel> inner_;
};

class Tracer::CopierW final : public oaf::net::Copier {
 public:
  CopierW(Tracer& t, Copier& inner) : t_(t), inner_(inner) {}

  void copy(std::span<const u8> src, std::span<u8> dst, Done done) override {
    const u32 id = t_.open(Kind::kCopy, 0, 0);
    t_.set_bytes(id, src.size());
    Done wrapped;
    {
      Quiet q;
      // The copy ends where its continuation starts; what the continuation
      // does belongs to whoever asked for the copy.
      wrapped = [this, id, done = std::move(done)] {
        t_.close(id);
        done();
      };
    }
    inner_.copy(src, dst, std::move(wrapped));
    t_.close(id);
  }

  void charge(u64 bytes, Done done) override {
    inner_.charge(bytes, std::move(done));
  }

 private:
  Tracer& t_;
  Copier& inner_;
};

class Tracer::DeviceW final : public oaf::ssd::Device {
 public:
  DeviceW(Tracer& t, Device& inner) : t_(t), inner_(inner) {}

  void submit_write(const oaf_pdu::NvmeCmd& cmd, std::span<const u8> data,
                    Completion done) override {
    const u32 id = t_.open(Kind::kDevSubmit, cmd.cid + 1u, 0);
    inner_.submit_write(cmd, data, wrap(cmd.cid, std::move(done)));
    t_.close(id);
  }

  void submit_read(const oaf_pdu::NvmeCmd& cmd, std::span<u8> out,
                   Completion done) override {
    const u32 id = t_.open(Kind::kDevSubmit, cmd.cid + 1u, 0);
    inner_.submit_read(cmd, out, wrap(cmd.cid, std::move(done)));
    t_.close(id);
  }

  void submit_other(const oaf_pdu::NvmeCmd& cmd, Completion done) override {
    inner_.submit_other(cmd, std::move(done));
  }

  [[nodiscard]] u32 block_size() const override { return inner_.block_size(); }
  [[nodiscard]] u64 num_blocks() const override { return inner_.num_blocks(); }

 private:
  Completion wrap(u16 cid, Completion done) {
    Quiet q;
    return [this, cid, submitted = now_ns(), done = std::move(done)](
               oaf_pdu::NvmeCpl cpl, DurNs io_time) mutable {
      t_.add(Kind::kDevWait, submitted, now_ns(), cid + 1u, 0);
      const u32 id = t_.open(Kind::kDevDone, cid + 1u, 0);
      std::move(done)(cpl, io_time);
      t_.close(id);
    };
  }

  Tracer& t_;
  Device& inner_;
};

class Tracer::SessionW final : public oaf::nvmf::IoSession {
 public:
  SessionW(Tracer& t, IoSession& inner) : t_(t), inner_(inner) {}

  void write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) override {
    const u32 id = t_.open(Kind::kSession, 0, t_.next_io_);
    inner_.write(nsid, slba, data, std::move(cb));
    t_.close(id);
  }
  void read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) override {
    const u32 id = t_.open(Kind::kSession, 0, t_.next_io_);
    inner_.read(nsid, slba, out, std::move(cb));
    t_.close(id);
  }
  void flush(u32 nsid, IoCb cb) override { inner_.flush(nsid, std::move(cb)); }
  void identify(u32 nsid, IdentifyCb cb) override {
    inner_.identify(nsid, std::move(cb));
  }
  [[nodiscard]] bool supports_zero_copy() const override {
    return inner_.supports_zero_copy();
  }
  oaf::Result<WriteTicket> zero_copy_write_begin(u64 len) override {
    const u32 id = t_.open(Kind::kZcBegin, 0, t_.next_io_);
    auto r = inner_.zero_copy_write_begin(len);
    t_.close(id);
    return r;
  }
  void zero_copy_write(const WriteTicket& ticket, u32 nsid, u64 slba, u64 len,
                       IoCb cb) override {
    const u32 id = t_.open(Kind::kSession, 0, t_.next_io_);
    inner_.zero_copy_write(ticket, nsid, slba, len, std::move(cb));
    t_.close(id);
  }
  void zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) override {
    const u32 id = t_.open(Kind::kSession, 0, t_.next_io_);
    inner_.zero_copy_read(nsid, slba, len, std::move(cb));
    t_.close(id);
  }
  [[nodiscard]] bool congested() const override { return inner_.congested(); }

 private:
  Tracer& t_;
  IoSession& inner_;
};

// --- recorder ---------------------------------------------------------------

Tracer::Tracer(size_t capacity, bool count_msgs)
    : spans_(capacity), count_msgs_(count_msgs) {}

Tracer::~Tracer() = default;

Executor& Tracer::executor(Executor& inner) {
  exec_ = std::make_unique<ExecutorW>(*this, inner);
  return *exec_;
}

std::unique_ptr<oaf::net::MsgChannel> Tracer::channel(
    std::unique_ptr<oaf::net::MsgChannel> inner) {
  wire_.store(inner.get());
  return std::make_unique<ChannelW>(*this, std::move(inner));
}

oaf::net::Copier& Tracer::copier(oaf::net::Copier& inner) {
  copier_ = std::make_unique<CopierW>(*this, inner);
  return *copier_;
}

oaf::ssd::Device& Tracer::device(oaf::ssd::Device& inner) {
  device_ = std::make_unique<DeviceW>(*this, inner);
  return *device_;
}

oaf::nvmf::IoSession& Tracer::session(oaf::nvmf::IoSession& inner) {
  session_ = std::make_unique<SessionW>(*this, inner);
  return *session_;
}

u32 Tracer::claim() {
  const u64 i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) {
    i64 none = 0;
    full_at_.compare_exchange_strong(none, now_ns());
    return 0;
  }
  return static_cast<u32>(i + 1);
}

u32 Tracer::open_under(Kind k, u32 cid, u32 io, u32 parent) {
  const u32 id = claim();
  if (id == 0) return 0;
  Span& s = spans_[id - 1];
  s.kind = k;
  s.cid = cid;
  s.io = io;
  s.parent = parent;
  s.thread = thread_no();
  s.t0 = now_ns();
  t_stack.push_back(id);
  return id;
}

u32 Tracer::open(Kind k, u32 cid, u32 io) {
  return open_under(k, cid, io, current());
}

void Tracer::close(u32 id) {
  if (id == 0 || spans_[id - 1].t1 != 0) return;
  spans_[id - 1].t1 = now_ns();
  const auto it = std::find(t_stack.rbegin(), t_stack.rend(), id);
  if (it != t_stack.rend()) t_stack.erase(std::next(it).base());
}

void Tracer::set_bytes(u32 id, u64 bytes) {
  if (id != 0) spans_[id - 1].bytes = static_cast<u32>(bytes);
}

u32 Tracer::add(Kind k, i64 t0, i64 t1, u32 cid, u32 parent) {
  const u32 id = claim();
  if (id == 0) return 0;
  Span& s = spans_[id - 1];
  s.kind = k;
  s.cid = cid;
  s.parent = parent;
  s.thread = 255;
  s.t0 = t0;
  s.t1 = std::max(t0, t1);
  return id;
}

u32 Tracer::current() { return t_stack.empty() ? 0 : t_stack.back(); }

void Tracer::note_pdu(const oaf_pdu::Pdu& p) {
  if (!count_msgs_) return;
  const u32 cid = cid_of(p);
  if (const auto* c = p.as<oaf_pdu::CapsuleCmd>()) {
    cid_op_[c->cmd.cid] = c->cmd.is_read() ? 1 : c->cmd.is_write() ? 2 : 0;
  }
  if (window_.load(std::memory_order_relaxed)) {
    msgs_[cid == 0 ? 0 : cid_op_[cid - 1]].fetch_add(1, std::memory_order_relaxed);
  }
}

Marks Tracer::mark() {
  Marks m;
  m.t = now_ns();
  if (auto* w = wire_.load()) m.wire_bytes = w->bytes_sent();
  m.allocs = g_allocs.load();
  m.alloc_bytes = g_alloc_bytes.load();
  auto& ring = oaf::telemetry::anomaly().ring();
  m.tel_events = ring.size() + ring.dropped();
  for (size_t i = 0; i < msgs_.size(); ++i) m.msgs[i] = msgs_[i].load();
  return m;
}

std::vector<Span> Tracer::spans() const {
  const u64 n = std::min<u64>(next_.load(), spans_.size());
  return {spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(n)};
}

namespace {
constexpr u64 kDumpMagic = 0x31766e6170736270ULL;  // "pbspanv1"
}

bool Tracer::write(const std::string& path, const Marks& begin,
                   const Marks& end) const {
  const std::vector<Span> s = spans();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const u64 n = s.size();
  const i64 full = full_at();
  bool ok = std::fwrite(&kDumpMagic, sizeof(kDumpMagic), 1, f) == 1 &&
            std::fwrite(&n, sizeof(n), 1, f) == 1 &&
            std::fwrite(&full, sizeof(full), 1, f) == 1 &&
            std::fwrite(&begin, sizeof(begin), 1, f) == 1 &&
            std::fwrite(&end, sizeof(end), 1, f) == 1 &&
            (n == 0 || std::fwrite(s.data(), sizeof(Span), n, f) == n);
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

bool Tracer::read(const std::string& path, Dump& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  u64 magic = 0;
  u64 n = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
            magic == kDumpMagic && std::fread(&n, sizeof(n), 1, f) == 1 &&
            std::fread(&out.full_at, sizeof(out.full_at), 1, f) == 1 &&
            std::fread(&out.begin, sizeof(out.begin), 1, f) == 1 &&
            std::fread(&out.end, sizeof(out.end), 1, f) == 1 &&
            n < (u64{1} << 32);
  if (ok) {
    out.spans.resize(n);
    ok = n == 0 || std::fread(out.spans.data(), sizeof(Span), n, f) == n;
  }
  std::fclose(f);
  return ok;
}

// --- analysis ---------------------------------------------------------------

namespace {

enum Layer : u8 { kNvmf, kNet, kSim, kAf, kSsd, kLayers };
constexpr const char* kLayerNames[kLayers] = {"nvmf", "net", "sim", "af", "ssd"};

Layer layer_of(Kind k) {
  switch (k) {
    case Kind::kSession:
    case Kind::kHandle:
    case Kind::kDevDone:
      return kNvmf;
    case Kind::kSend:
      return kNet;
    case Kind::kZcBegin:
    case Kind::kCopy:
      return kAf;
    case Kind::kDevSubmit:
    case Kind::kDevWait:
      return kSsd;
    case Kind::kTask:
    case Kind::kWait:
      return kSim;
  }
  return kSim;
}

struct Iv {
  i64 a;
  i64 b;
};

/// Sort and merge in place; returns the measure of the union.
i64 merge(std::vector<Iv>& v) {
  std::sort(v.begin(), v.end(), [](const Iv& x, const Iv& y) { return x.a < y.a; });
  std::vector<Iv> out;
  for (const Iv& iv : v) {
    if (iv.b <= iv.a) continue;
    if (!out.empty() && iv.a <= out.back().b) {
      out.back().b = std::max(out.back().b, iv.b);
    } else {
      out.push_back(iv);
    }
  }
  v.swap(out);
  i64 m = 0;
  for (const Iv& iv : v) m += iv.b - iv.a;
  return m;
}

/// Measure of a − b for two merged interval lists.
i64 minus(const std::vector<Iv>& a, const std::vector<Iv>& b) {
  i64 m = 0;
  size_t j = 0;
  for (const Iv& x : a) {
    i64 cur = x.a;
    while (j < b.size() && b[j].b <= cur) ++j;
    for (size_t k = j; k < b.size() && b[k].a < x.b; ++k) {
      if (b[k].a > cur) m += b[k].a - cur;
      cur = std::max(cur, b[k].b);
      if (cur >= x.b) break;
    }
    if (cur < x.b) m += x.b - cur;
  }
  return m;
}

struct Mean {
  double sum = 0;
  u64 n = 0;
  void add(double x) {
    sum += x;
    ++n;
  }
  [[nodiscard]] double get() const { return n == 0 ? 0.0 : sum / static_cast<double>(n); }
};

struct Any {
  i64 t0, t1;
  u32 parent, io, cid, bytes;
  Kind kind;
  int thread;  ///< (side << 8) | thread
  int side;
};

}  // namespace

std::map<std::string, double> analyze(const std::vector<Span>& ini,
                                      const std::vector<Span>& tgt,
                                      const std::vector<IoRec>& recs,
                                      const SideStats& ini_s,
                                      const SideStats& tgt_s, u64 ios,
                                      u64 reads, u64 writes, u64 retries,
                                      u64 zc_refused) {
  std::map<std::string, double> m;
  const i64 w0 = ini_s.begin.t;
  i64 wt = ini_s.end.t;
  if (ini_s.full_at != 0) wt = std::min(wt, ini_s.full_at);
  if (tgt_s.full_at != 0) wt = std::min(wt, tgt_s.full_at);

  // One id space: initiator spans first, then target spans.
  const u32 off = static_cast<u32>(ini.size());
  std::vector<Any> all;
  all.reserve(ini.size() + tgt.size());
  for (int side = 0; side < 2; ++side) {
    for (const Span& s : side == 0 ? ini : tgt) {
      const u32 base = side == 0 ? 0 : off;
      all.push_back({s.t0, s.t1, s.parent == 0 ? 0 : s.parent + base, s.io,
                     s.cid, s.bytes, s.kind, (side << 8) | s.thread, side});
    }
  }

  // cid -> I/O indices in submission order.
  std::vector<std::vector<u32>> by_cid(65536);
  for (u32 i = 0; i < recs.size(); ++i) by_cid[recs[i].cid].push_back(i);
  auto find_io = [&](u32 cid1, i64 t) -> i64 {
    const auto& v = by_cid[cid1 - 1];
    auto it = std::upper_bound(v.begin(), v.end(), t, [&](i64 x, u32 idx) {
      return x < recs[idx].t0;
    });
    if (it == v.begin()) return -1;
    const u32 idx = *(it - 1);
    return t <= recs[idx].t1 ? static_cast<i64>(idx) : -1;
  };
  auto own = [&](const Any& s) -> i64 {
    if (s.io != 0) return static_cast<i64>(s.io) - 1;
    if (s.cid != 0) return find_io(s.cid, s.t0);
    return -1;
  };

  // Resolve each span to an I/O: its own tag, else its cause's, else (for
  // deliveries posted by a reader thread) the first tagged descendant.
  const size_t n = all.size();
  std::vector<u32> first_child(n + 1, 0), next_sib(n + 1, 0);
  for (u32 id = static_cast<u32>(n); id >= 1; --id) {
    const u32 p = all[id - 1].parent;
    if (p != 0 && p <= n) {
      next_sib[id] = first_child[p];
      first_child[p] = id;
    }
  }
  std::vector<i64> io_of(n + 1, -1);
  for (u32 id = 1; id <= n; ++id) {
    i64 r = -1;
    u32 j = id;
    for (int depth = 0; j != 0 && depth < 64; ++depth) {
      r = own(all[j - 1]);
      if (r >= 0) break;
      j = all[j - 1].parent;
    }
    if (r < 0) {
      std::vector<u32> todo{id};
      for (size_t k = 0; k < todo.size() && k < 64 && r < 0; ++k) {
        for (u32 c = first_child[todo[k]]; c != 0 && r < 0; c = next_sib[c]) {
          r = own(all[c - 1]);
          todo.push_back(c);
        }
      }
    }
    io_of[id] = r;
  }

  // Analysed I/Os: completed fine inside the traced window.
  std::vector<bool> in_set(recs.size(), false);
  u64 analysed = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const IoRec& r = recs[i];
    if (r.ok && r.t0 >= w0 && r.t1 <= wt) {
      in_set[i] = true;
      ++analysed;
    }
  }

  // Innermost-span segments per thread: a layer's self time.
  struct Seg {
    u32 io;
    i64 a, b;
    u8 layer;  ///< kLayers marks a queue wait
  };
  std::vector<Seg> segs;
  std::map<int, std::vector<u32>> by_thread;
  for (u32 id = 1; id <= n; ++id) {
    const Any& s = all[id - 1];
    if (s.t1 == 0) continue;
    if (s.kind == Kind::kWait) {
      const i64 io = io_of[id];
      if (io >= 0 && in_set[static_cast<size_t>(io)]) {
        segs.push_back({static_cast<u32>(io), s.t0, s.t1, kLayers});
      }
    } else if (s.kind != Kind::kDevWait) {
      by_thread[s.thread].push_back(id);
    }
  }
  auto emit = [&](u32 id, i64 a, i64 b) {
    const i64 io = io_of[id];
    if (b > a && io >= 0 && in_set[static_cast<size_t>(io)]) {
      segs.push_back({static_cast<u32>(io), a, b, layer_of(all[id - 1].kind)});
    }
  };
  for (auto& [thread, ids] : by_thread) {
    std::sort(ids.begin(), ids.end(), [&](u32 x, u32 y) {
      const Any& a = all[x - 1];
      const Any& b = all[y - 1];
      return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
    });
    std::vector<std::pair<u32, i64>> stack;  // (id, end clamped to parent)
    i64 cur = 0;
    for (u32 id : ids) {
      const Any& s = all[id - 1];
      while (!stack.empty() && stack.back().second <= s.t0) {
        emit(stack.back().first, cur, stack.back().second);
        cur = stack.back().second;
        stack.pop_back();
      }
      if (!stack.empty()) emit(stack.back().first, cur, s.t0);
      cur = s.t0;
      const i64 end = stack.empty() ? s.t1 : std::min(s.t1, stack.back().second);
      stack.emplace_back(id, end);
    }
    while (!stack.empty()) {
      emit(stack.back().first, cur, stack.back().second);
      cur = stack.back().second;
      stack.pop_back();
    }
  }

  // Per-I/O breakdown: self time per layer (queue wait counts to sim where
  // no span of the I/O runs), and the part of the I/O no span covers.
  std::sort(segs.begin(), segs.end(), [](const Seg& x, const Seg& y) { return x.io < y.io; });
  double self[kLayers] = {};
  double unattributed = 0, latency = 0;
  size_t k = 0;
  for (u32 i = 0; i < recs.size(); ++i) {
    if (!in_set[i]) continue;
    const i64 a = recs[i].t0;
    const i64 b = recs[i].t1;
    while (k < segs.size() && segs[k].io < i) ++k;
    std::vector<Iv> run, wait, both;
    double io_self[kLayers] = {};
    for (; k < segs.size() && segs[k].io == i; ++k) {
      const i64 x = std::max(a, segs[k].a);
      const i64 y = std::min(b, segs[k].b);
      if (y <= x) continue;
      if (segs[k].layer == kLayers) {
        wait.push_back({x, y});
      } else {
        io_self[segs[k].layer] += static_cast<double>(y - x);
        run.push_back({x, y});
      }
      both.push_back({x, y});
    }
    merge(run);
    merge(wait);
    io_self[kSim] += static_cast<double>(minus(wait, run));
    merge(both);
    // The application's stamp fill is not part of the I/O's latency.
    const std::vector<Iv> fill = {{recs[i].fill0, recs[i].fill1}};
    const double covered = static_cast<double>(minus(both, fill));
    const double lat = static_cast<double>(b - a - (recs[i].fill1 - recs[i].fill0));
    for (int l = 0; l < kLayers; ++l) self[l] += io_self[l];
    unattributed += lat - covered;
    latency += lat;
  }
  const double na = analysed == 0 ? 1.0 : static_cast<double>(analysed);
  for (int l = 0; l < kLayers; ++l) {
    m[std::string(kLayerNames[l]) + ".self_us_per_io"] = self[l] / na / 1e3;
  }
  m["trace.unattributed_us_per_io"] = unattributed / na / 1e3;
  m["trace.io_latency_us"] = latency / na / 1e3;
  m["trace.unattributed_frac"] = latency > 0 ? unattributed / latency : 0.0;
  m["trace.ios_analysed"] = static_cast<double>(analysed);

  // Span statistics over the traced window, per side.
  u64 window_ios = 0;
  for (const IoRec& r : recs) {
    if (r.t1 >= w0 && r.t1 <= wt) ++window_ios;
  }
  const double wio = window_ios == 0 ? 1.0 : static_cast<double>(window_ios);
  const double wlen = static_cast<double>(std::max<i64>(wt - w0, 1));
  const char* side_name[2] = {"ini", "tgt"};
  std::vector<i64> waits[2];
  double task_ns[2] = {};
  u64 tasks[2] = {};
  Mean send[2], handle[2], submit, zc_begin, copy_us, ssd_submit, ssd_wait;
  u64 copies = 0, copy_bytes = 0, write_copies = 0;
  u64 analysed_writes = 0;
  for (u32 i = 0; i < recs.size(); ++i) {
    if (in_set[i] && recs[i].op == 2) ++analysed_writes;
  }
  for (u32 id = 1; id <= n; ++id) {
    const Any& s = all[id - 1];
    if (s.t1 == 0 || s.t0 < w0 || s.t0 > wt) continue;
    const double d = static_cast<double>(s.t1 - s.t0) / 1e3;
    switch (s.kind) {
      case Kind::kWait:
        waits[s.side].push_back(s.t1 - s.t0);
        break;
      case Kind::kTask:
        ++tasks[s.side];
        task_ns[s.side] += static_cast<double>(s.t1 - s.t0);
        break;
      case Kind::kSend:
        send[s.side].add(d);
        break;
      case Kind::kHandle:
        handle[s.side].add(d);
        break;
      case Kind::kSession:
        submit.add(d);
        break;
      case Kind::kZcBegin:
        zc_begin.add(d);
        break;
      case Kind::kCopy: {
        ++copies;
        copy_bytes += s.bytes;
        copy_us.add(d);
        const i64 io = io_of[id];
        if (io >= 0 && in_set[static_cast<size_t>(io)] &&
            recs[static_cast<size_t>(io)].op == 2) {
          ++write_copies;
        }
        break;
      }
      case Kind::kDevSubmit:
        ssd_submit.add(d);
        break;
      case Kind::kDevWait:
        ssd_wait.add(d);
        break;
      case Kind::kDevDone:
        break;
    }
  }
  const SideStats* st[2] = {&ini_s, &tgt_s};
  const double mio = ios == 0 ? 1.0 : static_cast<double>(ios);
  for (int s = 0; s < 2; ++s) {
    const std::string p = std::string("sim.") + side_name[s];
    m[p + ".queue_wait_us_p50"] = pct_us(waits[s], 0.50);
    m[p + ".queue_wait_us_p99"] = pct_us(waits[s], 0.99);
    m[p + ".tasks_per_io"] = static_cast<double>(tasks[s]) / wio;
    m[p + ".busy_frac"] = task_ns[s] / wlen;
    m[p + ".csw_per_io"] =
        static_cast<double>(st[s]->usage_end.csw - st[s]->usage_begin.csw) / mio;
    m[p + ".cpu_us_per_io"] =
        static_cast<double>(st[s]->usage_end.cpu_us - st[s]->usage_begin.cpu_us) / mio;
    m[std::string("net.") + side_name[s] + ".send_us"] = send[s].get();
    m[std::string("nvmf.") + side_name[s] + ".handle_us"] = handle[s].get();
    m[std::string("alloc.") + side_name[s] + ".per_io"] =
        static_cast<double>(st[s]->end.allocs - st[s]->begin.allocs) / mio;
    m[std::string("alloc.") + side_name[s] + ".bytes_per_io"] =
        static_cast<double>(st[s]->end.alloc_bytes - st[s]->begin.alloc_bytes) / mio;
  }
  m["net.wire_bytes_per_io"] =
      static_cast<double>(ini_s.end.wire_bytes - ini_s.begin.wire_bytes +
                          tgt_s.end.wire_bytes - tgt_s.begin.wire_bytes) / mio;
  m["pdu.msgs_per_read"] =
      reads == 0 ? 0.0
                 : static_cast<double>(ini_s.end.msgs[1] - ini_s.begin.msgs[1]) /
                       static_cast<double>(reads);
  m["pdu.msgs_per_write"] =
      writes == 0 ? 0.0
                  : static_cast<double>(ini_s.end.msgs[2] - ini_s.begin.msgs[2]) /
                        static_cast<double>(writes);
  m["nvmf.ini.submit_us"] = submit.get();
  m["telemetry.events_per_io"] =
      static_cast<double>(ini_s.end.tel_events - ini_s.begin.tel_events +
                          tgt_s.end.tel_events - tgt_s.begin.tel_events) / mio;
  m["nvmf.retries_per_io"] = static_cast<double>(retries) / mio;
  m["af.copies_per_io"] = static_cast<double>(copies) / wio;
  m["af.copies_per_write"] =
      analysed_writes == 0 ? 0.0
                           : static_cast<double>(write_copies) /
                                 static_cast<double>(analysed_writes);
  m["af.copy_bytes_per_io"] = static_cast<double>(copy_bytes) / wio;
  m["af.copy_us"] = copy_us.get();
  m["ssd.submit_us"] = ssd_submit.get();
  m["ssd.complete_wait_us"] = ssd_wait.get();
  m["af.zc_begin_us"] = zc_begin.get();
  m["af.zc_refused_per_io"] = static_cast<double>(zc_refused) / mio;
  return m;
}

}  // namespace pb::trace
