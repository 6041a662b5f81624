// Target host: the NVMe-oF target assembled from the same public types
// oaf_target uses, serving one connection on a loopback port. The load
// generator launches it and drives it with one-line commands on stdin:
//   prefill      stamp the read half of the working set (not timed)
//   begin / end  edges of the measured window (rusage, layer counters)
//   revert B     zero 4 KiB block B (verifier self-test: a lost write)
//   quit         wait for the association to close, print stats, exit
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "host.h"
#include "net/copier.h"
#include "net/tcp_channel.h"
#include "nvmf/target_service.h"
#include "sim/real_executor.h"
#include "ssd/real_device.h"
#ifdef PB_TRACED
#include "trace.h"
#endif

namespace pb {

namespace {

struct HostOptions {
  std::vector<int> cpus;
  u64 capacity = 0;
  u64 seed = 1;
  std::string conn;
  std::string fault;  ///< "", "flip" or "unwritten" (self-test only)
  std::string trace_out;
};

/// Stamp the read half (the first half of the namespace) with version 0.
void prefill(oaf::ssd::BlockStore& store, const HostOptions& o) {
  if (o.fault == "unwritten") return;
  constexpr u64 kChunk = 256 * kKiB;
  const u64 read_half = o.capacity / 2;
  std::vector<u8> buf(kChunk);
  for (u64 off = 0; off < read_half; off += kChunk) {
    const u64 len = std::min(kChunk, read_half - off);
    for (u64 b = 0; b < len / kStampBytes; ++b) {
      u8* blk = buf.data() + b * kStampBytes;
      fill_stamp(blk, o.seed, off / kStampBytes + b, 0);
      if (o.fault == "flip") blk[100] ^= 0x01;
    }
    if (!store.write(off / kLbaBytes, std::span<const u8>(buf.data(), len))) {
      std::fprintf(stderr, "pb host: prefill write failed\n");
      std::exit(1);
    }
  }
}

}  // namespace

int host_main(int argc, char** argv) {
  // Never outlive the load generator, even when it dies mid-run.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 1;
  HostOptions o;
  for (int i = 0; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--cpus") {
      o.cpus = parse_cpus(v);
    } else if (k == "--capacity") {
      o.capacity = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--conn") {
      o.conn = v;
    } else if (k == "--fault") {
      o.fault = v;
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else {
      std::fprintf(stderr, "pb host: unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (o.capacity == 0 || o.conn.empty()) {
    std::fprintf(stderr, "pb host: --capacity and --conn required\n");
    return 2;
  }
  if (!o.cpus.empty() && !pin_to(o.cpus)) {
    std::fprintf(stderr, "pb host: cannot pin to %s\n", cpus_str(o.cpus).c_str());
    return 1;
  }

#ifdef PB_TRACED
  std::unique_ptr<trace::Tracer> tracer;
  if (!o.trace_out.empty()) {
    tracer = std::make_unique<trace::Tracer>(kSpanCapacity, false);
  }
#endif
  oaf::sim::RealExecutor exec;
  oaf::net::InlineCopier inline_copier;
  oaf::af::ShmBroker broker(kHostToken, oaf::af::ShmBroker::Backing::kPosixShm);
  oaf::Executor* ex = &exec;
  oaf::net::Copier* copier = &inline_copier;
#ifdef PB_TRACED
  if (tracer) {
    ex = &tracer->executor(exec);
    copier = &tracer->copier(inline_copier);
  }
#endif
  oaf::ssd::RealDevice real_device(*ex, kLbaBytes, o.capacity / kLbaBytes);
  oaf::ssd::Device* device = &real_device;
#ifdef PB_TRACED
  if (tracer) device = &tracer->device(real_device);
#endif
  oaf::ssd::Subsystem subsystem("nqn.2026-07.io.oaf:perfbench");
  if (auto st = subsystem.add_namespace(1, device); !st) {
    std::fprintf(stderr, "pb host: namespace: %s\n", st.to_string().c_str());
    return 1;
  }
  auto listener_res = oaf::net::TcpListener::listen(0);
  if (!listener_res) {
    std::fprintf(stderr, "pb host: listen: %s\n",
                 listener_res.status().to_string().c_str());
    return 1;
  }
  auto listener = std::move(listener_res).take();
  std::printf("port %u\n", listener.port());
  std::fflush(stdout);

  auto accepted = listener.accept(*ex);
  if (!accepted) {
    std::fprintf(stderr, "pb host: accept: %s\n",
                 accepted.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<oaf::net::MsgChannel> channel = std::move(accepted).take();
#ifdef PB_TRACED
  if (tracer) channel = tracer->channel(std::move(channel));
#endif
  oaf::nvmf::TargetServiceOptions sopts;
  sopts.af = oaf::af::AfConfig::oaf();
  auto service = std::make_unique<oaf::nvmf::NvmfTargetService>(
      *ex, *copier, broker, subsystem, sopts);
  // The reader thread already delivers into the reactor, so the connection
  // is built there too, not beside it.
  run_on(exec, [&] { service->accept(std::move(channel), o.conn); });

  Usage u_begin, u_end;
#ifdef PB_TRACED
  trace::Marks m_begin, m_end;
#endif
  std::string line;
  while (std::getline(std::cin, line) && line != "quit") {
    if (line == "prefill") {
      run_on(exec, [&] { prefill(real_device.store(), o); });
    } else if (line == "begin") {
      u_begin = usage_now();
#ifdef PB_TRACED
      if (tracer) {
        m_begin = tracer->mark();
        tracer->set_window(true);
      }
#endif
    } else if (line == "end") {
      u_end = usage_now();
#ifdef PB_TRACED
      if (tracer) {
        tracer->set_window(false);
        m_end = tracer->mark();
      }
#endif
    } else if (line.rfind("revert ", 0) == 0) {
      const u64 block = std::strtoull(line.c_str() + 7, nullptr, 10);
      run_on(exec, [&] {
        std::vector<u8> zeros(kStampBytes, 0);
        (void)real_device.store().write(block * (kStampBytes / kLbaBytes), zeros);
      });
    } else {
      std::fprintf(stderr, "pb host: unknown command %s\n", line.c_str());
      return 2;
    }
    std::printf("ok %s\n", line.c_str());
    std::fflush(stdout);
  }

  // Serve until the load generator has hung up; teardown runs on the
  // reactor, which owns the service's connections.
  u64 commands = 0;
  for (int spin = 0; spin < 2000; ++spin) {
    size_t active = 0;
    run_on(exec, [&] {
      service->reap_expired();
      active = service->active();
      commands = service->commands_served();
    });
    if (active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  run_on(exec, [&] { service.reset(); });

  bool trace_ok = true;
#ifdef PB_TRACED
  if (tracer) trace_ok = tracer->write(o.trace_out, m_begin, m_end);
#endif
  std::printf(
      "stats {\"peak_rss_mib\": %.6f, \"cpu_us\": %lld, \"csw\": %lld, "
      "\"commands\": %llu, \"trace_ok\": %s}\n",
      peak_rss_mib(), static_cast<long long>(u_end.cpu_us - u_begin.cpu_us),
      static_cast<long long>(u_end.csw - u_begin.csw),
      static_cast<unsigned long long>(commands), trace_ok ? "true" : "false");
  std::fflush(stdout);
  return 0;
}

}  // namespace pb
