#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>

#include "common.h"

namespace pb {

namespace {

// Why these three: each puts a different cost in front (README.md has the
// full metric -> layer -> workload table).
const Workload kWorkloads[] = {
    // Tiny payload at QD1: every fixed per-I/O cost (reactor wake-ups, PDU
    // handling, telemetry events) sits on the blocking path.
    {"qd1-4k-shm", 1, 4 * kKiB, 0.5, true, 256 * kMiB},
    // Payload crosses the socket in data PDUs, writes go through R2T:
    // per-byte codec, framing, copy and allocation work dominates.
    {"qd32-128k-tcp", 32, 128 * kKiB, 0.7, false, 1024 * kMiB},
    // Same mix over the shm ring: the socket carries only capsules.
    {"qd32-128k-shm", 32, 128 * kKiB, 0.7, true, 1024 * kMiB},
};

constexpr u64 kWords = kStampBytes / sizeof(u64);

/// Word i of every stamp is base ^ kPattern[i]: fill and check are then a
/// stream of XORs, so the load generator spends little of its reactor on
/// them.
const std::array<u64, kWords> kPattern = [] {
  std::array<u64, kWords> p{};
  for (u64 i = 0; i < kWords; ++i) p[i] = i * 0xd6e8feb86659fd93ULL;
  return p;
}();

u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

u64 stamp_base(u64 seed, u64 block, u64 version) {
  // Never zero, so a block of zeros can never pass as a stamp.
  return mix(mix(seed ^ 0x5bd1e995ULL) ^ mix(block) ^ (version << 1)) | 1;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void fill_stamp(u8* dst, u64 seed, u64 block, u64 version) {
  const u64 base = stamp_base(seed, block, version);
  for (u64 i = 0; i < kWords; ++i) {
    const u64 w = base ^ kPattern[i];
    std::memcpy(dst + i * sizeof(u64), &w, sizeof(u64));
  }
}

bool check_stamp(const u8* src, u64 seed, u64 block, u64 version) {
  const u64 base = stamp_base(seed, block, version);
  u64 diff = 0;
  for (u64 i = 0; i < kWords; ++i) {
    u64 w = 0;
    std::memcpy(&w, src + i * sizeof(u64), sizeof(u64));
    diff |= w ^ base ^ kPattern[i];
  }
  return diff == 0;
}

bool is_zero_block(const u8* src) {
  u64 acc = 0;
  for (u64 i = 0; i < kWords; ++i) {
    u64 w = 0;
    std::memcpy(&w, src + i * sizeof(u64), sizeof(u64));
    acc |= w;
  }
  return acc == 0;
}

i64 now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<i64>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_us = (static_cast<i64>(ru.ru_utime.tv_sec) + ru.ru_stime.tv_sec) *
                 1'000'000 +
             ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
  u.csw = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

u64 steal_ticks(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  u64 total = 0;
  while (std::getline(in, line)) {
    int cpu = -1;
    unsigned long long v[8] = {};
    if (std::sscanf(line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9 &&
        std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
      total += v[7];
    }
  }
  return total;
}

std::vector<int> parse_cpus(const std::string& list) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    if (end > pos) out.push_back(std::atoi(list.substr(pos, end - pos).c_str()));
    pos = end + 1;
  }
  return out;
}

std::string cpus_str(const std::vector<int>& cpus) {
  std::string s;
  for (int c : cpus) {
    if (!s.empty()) s += ',';
    s += std::to_string(c);
  }
  return s;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace pb
