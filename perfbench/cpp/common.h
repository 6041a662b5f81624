// Shared pieces of the real-plane benchmark: the workload table, the
// seed-derived payload stamps the verifier checks, and small process
// helpers (clock, rusage, peak RSS, CPU pinning).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

constexpr u64 kKiB = 1024;
constexpr u64 kMiB = 1024 * kKiB;
/// Stamp granularity and offset alignment: every 4 KiB block carries its
/// own (seed, block, version) pattern.
constexpr u64 kStampBytes = 4 * kKiB;
/// Logical block size of the benchmark namespace.
constexpr u32 kLbaBytes = 512;
/// Node token of the target host; a load generator that presents the same
/// token is co-located and is granted the shm data path.
constexpr u64 kHostToken = 42;
/// Token a TCP-path load generator presents: a mismatch is the paper's
/// inter-node fallback.
constexpr u64 kRemoteToken = 7;

struct Workload {
  const char* name;
  u32 qd;
  u64 io_bytes;
  double read_frac;
  bool shm;  ///< shm zero-copy data path; false = staged TCP data PDUs
  u64 working_set;
};

/// One load-generator I/O as the closed loop saw it.
struct IoRec {
  i64 t0 = 0;  ///< IoSession call
  i64 t1 = 0;  ///< completion callback entry
  /// Application stamp fill between a zero-copy write's two IoSession calls,
  /// [fill0, fill1] inside [t0, t1]; left out of the latency. 0, 0 = none.
  i64 fill0 = 0;
  i64 fill1 = 0;
  u16 cid = 0;
  u8 op = 0;   ///< 1 read, 2 write
  bool ok = false;
};

/// Nearest-rank percentile `q` of ns samples, in us. Sorts `v`.
template <typename T>
double pct_us(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]) / 1e3;
}

/// nullptr when `name` names no workload.
const Workload* find_workload(std::string_view name);

/// Fill one 4 KiB block with the stamp of (seed, block, version). Version 0
/// is the read half's prefill; writes use versions from 1 up.
void fill_stamp(u8* dst, u64 seed, u64 block, u64 version);
/// True when the 4 KiB block at `src` holds exactly that stamp.
bool check_stamp(const u8* src, u64 seed, u64 block, u64 version);
/// True when the 4 KiB block at `src` is all zeros (never written).
bool is_zero_block(const u8* src);

/// CLOCK_MONOTONIC in ns: shared by both processes on one host, so spans
/// of the target host and the load generator sit on one time axis.
i64 now_ns();

struct Usage {
  i64 cpu_us = 0;  ///< user + system time of the whole process
  i64 csw = 0;     ///< voluntary + involuntary context switches
};
Usage usage_now();
/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib();

/// Ticks the hypervisor ran someone else on `cpus` (/proc/stat steal):
/// recorded with each run, because neighbours on the host move the figures.
u64 steal_ticks(const std::vector<int>& cpus);

std::vector<int> parse_cpus(const std::string& list);
std::string cpus_str(const std::vector<int>& cpus);
/// CPUs this process may run on.
std::vector<int> allowed_cpus();
bool pin_to(const std::vector<int>& cpus);

}  // namespace pb
