// Entry points of the benchmark binary's two modes, and what both share.
#pragma once

#include <cstddef>
#include <future>

#include "common/executor.h"

namespace pb {

/// Run `fn` on the reactor behind `ex` and wait for it: engine state may
/// only be touched there.
template <typename F>
void run_on(oaf::Executor& ex, F&& fn) {
  std::promise<void> done;
  ex.post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

/// Spans each traced process keeps; I/Os after the array fills are left
/// out of the breakdown (the window is cut where either side filled up).
constexpr std::size_t kSpanCapacity = 2'000'000;

int host_main(int argc, char** argv);
int load_main(int argc, char** argv);

}  // namespace pb
