#include "sim/simulator.h"

#include <cassert>

namespace wormcast {

void Simulator::dispatch_one() {
  auto [time, action] = queue_.pop();
  assert(time >= now_);
  now_ = time;
  ++dispatched_;
  action();
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) dispatch_one();
}

void Simulator::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_ && queue_.next_time() <= deadline) dispatch_one();
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace wormcast
