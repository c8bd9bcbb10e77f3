#include "sim/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace wormcast {

FaultInjector::FaultInjector(RandomStream rng, FaultConfig config)
    : rng_(std::move(rng)), config_(config) {
  assert(config_.worm_kill_rate >= 0.0 && config_.worm_kill_rate <= 1.0);
  assert(config_.ctrl_loss_rate >= 0.0 && config_.ctrl_loss_rate <= 1.0);
  assert(config_.rx_drop_rate >= 0.0 && config_.rx_drop_rate <= 1.0);
  rearm();
}

void FaultInjector::rearm() {
  armed_ = config_.any() || !all_channels_.empty() || !by_channel_.empty() ||
           !forced_kills_.empty() || forced_ctrl_drops_ > 0 ||
           forced_rx_drops_ > 0;
}

namespace {
// Per-draw-type salts so the same (worm, time) key cannot correlate the
// kill, truncation-length, control-drop, and rx-drop decisions.
constexpr std::uint64_t kKillSalt = 0x4B114ull;
constexpr std::uint64_t kTruncSalt = 0x72C47ull;
constexpr std::uint64_t kCtrlSalt = 0xC7121ull;
constexpr std::uint64_t kRxSalt = 0x52D20ull;
constexpr std::uint64_t kFlapSalt = 0xF1A9ull;

std::uint64_t draw_key(std::uint64_t salt, WormId id, Time now) {
  return salt ^ (id * 0x9e3779b97f4a7c15ULL) ^ static_cast<std::uint64_t>(now);
}
}  // namespace

bool FaultInjector::should_kill_worm(HostId dst, WormId id, Time now) {
  for (auto it = forced_kills_.begin(); it != forced_kills_.end(); ++it) {
    if (it->dst != kNoHost && it->dst != dst) continue;
    forced_kills_.erase(it);
    ++worms_killed_;
    rearm();
    return true;
  }
  if (config_.worm_kill_rate > 0.0 &&
      rng_.keyed_chance(config_.worm_kill_rate, draw_key(kKillSalt, id, now),
                        id, static_cast<std::uint64_t>(now))) {
    ++worms_killed_;
    return true;
  }
  return false;
}

bool FaultInjector::should_drop_control(WormId id, Time now) {
  if (forced_ctrl_drops_ > 0) {
    --forced_ctrl_drops_;
    ++controls_dropped_;
    rearm();
    return true;
  }
  if (config_.ctrl_loss_rate > 0.0 &&
      rng_.keyed_chance(config_.ctrl_loss_rate, draw_key(kCtrlSalt, id, now),
                        id, static_cast<std::uint64_t>(now))) {
    ++controls_dropped_;
    return true;
  }
  return false;
}

std::int64_t FaultInjector::pick_truncation(std::int64_t min_len,
                                            std::int64_t max_len, WormId id,
                                            Time now) {
  assert(min_len >= 1 && min_len <= max_len);
  return rng_.keyed_uniform(min_len, max_len, draw_key(kTruncSalt, id, now),
                            id, static_cast<std::uint64_t>(now));
}

bool FaultInjector::should_drop_rx(WormId id, HostId host, Time now) {
  if (forced_rx_drops_ > 0) {
    --forced_rx_drops_;
    ++rx_dropped_;
    rearm();
    return true;
  }
  if (config_.rx_drop_rate > 0.0 &&
      rng_.keyed_chance(config_.rx_drop_rate, draw_key(kRxSalt, id, now),
                        id ^ static_cast<std::uint64_t>(host),
                        static_cast<std::uint64_t>(now))) {
    ++rx_dropped_;
    return true;
  }
  return false;
}

void FaultInjector::Windows::add(Time from, Time until) {
  // Insert after every window with the same start (windows mostly arrive
  // in start order, so this is usually an append), then redo the running
  // max from the insertion point on.
  auto pos = std::upper_bound(
      windows_.begin(), windows_.end(), from,
      [](Time t, const Window& w) { return t < w.from; });
  pos = windows_.insert(pos, Window{from, until, until});
  for (auto it = pos; it != windows_.end(); ++it)
    it->reach = it == windows_.begin() ? it->until
                                       : std::max(it->until, (it - 1)->reach);
}

bool FaultInjector::Windows::covers(Time now) const {
  const auto after = std::upper_bound(
      windows_.begin(), windows_.end(), now,
      [](Time t, const Window& w) { return t < w.from; });
  return after != windows_.begin() && (after - 1)->reach > now;
}

FaultInjector::Windows& FaultInjector::windows_of(const void* channel) {
  return channel == nullptr ? all_channels_ : by_channel_[channel];
}

void FaultInjector::schedule_outage(const void* channel, Time from, Time until) {
  assert(from < until);
  windows_of(channel).add(from, until);
  rearm();
}

bool FaultInjector::link_down(const void* channel, Time now) const {
  if (all_channels_.covers(now)) return true;
  const auto it = by_channel_.find(channel);
  return it != by_channel_.end() && it->second.covers(now);
}

int FaultInjector::schedule_flaps(const void* channel, Time from, Time horizon,
                                  Time mean_down, Time mean_up,
                                  std::uint64_t key) {
  assert(mean_down >= 2 && mean_up >= 2 && from < horizon);
  int windows = 0;
  Time t = from;
  std::uint64_t i = 0;
  while (t < horizon) {
    // Each interval is keyed by (key, index): the schedule depends only on
    // the injector seed and the caller's key, never on call interleaving.
    const Time down = rng_.keyed_uniform(
        mean_down / 2, mean_down + mean_down / 2,
        draw_key(kFlapSalt, key, static_cast<Time>(2 * i)), key, 2 * i);
    const Time up = rng_.keyed_uniform(
        mean_up / 2, mean_up + mean_up / 2,
        draw_key(kFlapSalt, key, static_cast<Time>(2 * i + 1)), key, 2 * i + 1);
    const Time until = std::min(t + down, horizon);
    if (until > t) {
      windows_of(channel).add(t, until);
      ++windows;
    }
    t = until + up;
    ++i;
  }
  flap_windows_ += windows;
  rearm();
  return windows;
}

void FaultInjector::kill_link(const void* channel) {
  windows_of(channel).add(0, kTimeNever);
  ++links_killed_;
  rearm();
}

void FaultInjector::mark_host_dead(HostId h) { dead_hosts_.insert(h); }

void FaultInjector::force_kill_data(int count, HostId dst) {
  for (int i = 0; i < count; ++i) forced_kills_.push_back(ForcedKill{dst});
  rearm();
}

void FaultInjector::force_drop_control(int count) {
  forced_ctrl_drops_ += count;
  rearm();
}

void FaultInjector::force_drop_rx(int count) {
  forced_rx_drops_ += count;
  rearm();
}

}  // namespace wormcast
