// Real-time executor: a reactor thread driving the functional plane.
//
// Each protocol endpoint (client, target) owns one RealExecutor in tests and
// examples; channels hand messages across executors with post(), which is the
// only cross-thread entry point (guarded by a mutex + condition variable).
// Timers use the same steady clock that now() reports. Destruction runs
// every task already in the ready queue before the thread exits; pending
// timers, and tasks those last tasks post, are dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "common/executor.h"
#include "telemetry/prof/cost_center.h"
#include "telemetry/prof/reactor_health.h"
#include "telemetry/telemetry.h"

namespace oaf::sim {

class RealExecutor final : public Executor {
 public:
  RealExecutor() : start_(std::chrono::steady_clock::now()) {
    thread_ = std::thread([this] { loop(); });
  }

  ~RealExecutor() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  RealExecutor(const RealExecutor&) = delete;
  RealExecutor& operator=(const RealExecutor&) = delete;

  void post(Fn fn) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(std::move(fn));
    }
    cv_.notify_all();
  }

  void schedule_after(DurNs delay, Fn fn) override {
    if (delay < 0) delay = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      timers_.emplace(clock_now() + delay, std::move(fn));
    }
    cv_.notify_all();
  }

  [[nodiscard]] TimeNs now() const override { return clock_now(); }

  /// Block the *calling* thread until the executor has no ready work and no
  /// due timers (used by tests to quiesce).
  void drain() {
    std::unique_lock<std::mutex> lk(mu_);
    drained_cv_.wait(lk, [this] {
      return ready_.empty() && !running_ &&
             (timers_.empty() || timers_.begin()->first > clock_now());
    });
  }

 private:
  [[nodiscard]] TimeNs clock_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  /// Pop and run the front task with the lock released, feeding the
  /// reactor-health plane.
  void run_front(std::unique_lock<std::mutex>& lk) {
#if OAF_TELEMETRY_COMPILED
    const u64 runq = ready_.size();
#endif
    Fn fn = std::move(ready_.front());
    ready_.pop_front();
    running_ = true;
    lk.unlock();
#if OAF_TELEMETRY_COMPILED
    const TimeNs t0 = clock_now();
#endif
    fn();
#if OAF_TELEMETRY_COMPILED
    // The task may have left a per-I/O cost center stamped; CPU burned
    // between tasks belongs to the reactor itself.
    telemetry::prof::set_cost_center(telemetry::prof::CostCenter::kReactor);
    telemetry::prof::reactor_health().on_task(clock_now() - t0, runq);
#endif
    lk.lock();
    running_ = false;
    drained_cv_.notify_all();
  }

  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      // Move due timers into the ready queue.
      const TimeNs t = clock_now();
      while (!timers_.empty() && timers_.begin()->first <= t) {
        ready_.push_back(std::move(timers_.begin()->second));
        timers_.erase(timers_.begin());
      }
      if (!ready_.empty()) {
        run_front(lk);
        continue;
      }
      drained_cv_.notify_all();
#if OAF_TELEMETRY_COMPILED
      const TimeNs idle0 = clock_now();
#endif
      if (timers_.empty()) {
        cv_.wait(lk);
      } else {
        const auto wake = start_ + std::chrono::nanoseconds(timers_.begin()->first);
        cv_.wait_until(lk, wake);
      }
#if OAF_TELEMETRY_COMPILED
      telemetry::prof::reactor_health().on_idle(clock_now() - idle0);
#endif
    }
    // Stopping: every task posted before the stop still runs, so none is
    // silently lost. What those tasks post in turn is not run.
    for (size_t n = ready_.size(); n > 0; --n) run_front(lk);
  }

  const std::chrono::steady_clock::time_point start_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<Fn> ready_;
  std::multimap<TimeNs, Fn> timers_;
  bool stop_ = false;
  bool running_ = false;
};

}  // namespace oaf::sim
