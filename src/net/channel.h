// One direction of a full-duplex link, at byte granularity.
//
// The transmitter end pulls bytes from a ByteFeed (a switch crossbar
// connection or a host adapter's transmit engine) at one byte per
// byte-time while not STOPped. Bytes arrive at the receiver end after the
// link's propagation delay and are handed to an RxSink (a switch input
// port's slack buffer or a host adapter's receive engine). STOP/GO control
// symbols (Figure 1) travel against the data flow with the same propagation
// delay; they are modeled out of band (Myrinet interleaves them in the byte
// stream; the bandwidth cost is negligible).
//
// Burst mode (the simulation hot path): when the transmitter is un-STOPped,
// the worm's fault classification is already decided, and the receiver's
// slack buffer provably cannot cross a STOP/GO threshold, the channel moves
// a whole run of contiguous body bytes in ONE pump event and ONE delivery
// event instead of one pair per byte. A burst taken at time t stands for
// per-byte transmissions at t, t+1, ..., t+n-1; the delivery carries the
// same logical arrival times, and every consumer is rate-limited to one
// byte per byte-time starting at the first arrival, so nothing downstream
// can observe the difference — results are bit-for-bit identical to
// per-byte stepping (the determinism-equivalence suite pins this). Head
// bytes, tail bytes, STOP/GO transitions, and truncation boundaries always
// step per-byte.
#pragma once

#include <cstdint>
#include <memory>

#include "net/worm.h"
#include "sim/fault_injector.h"
#include "sim/fifo_ring.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace wormcast {

/// One byte as granted by a ByteFeed.
struct TxByte {
  bool head = false;               // first byte of a worm on this channel
  bool tail = false;               // last byte of the worm on this channel
  WormPtr worm;                    // set on head only
  std::int64_t wire_len = 0;       // set on head only: bytes on this channel
};

/// Supplies bytes to a Channel's transmitter. Implemented by switch
/// crossbar connections and adapter transmit engines.
class ByteFeed {
 public:
  virtual ~ByteFeed() = default;
  /// True if a byte can be sent right now.
  [[nodiscard]] virtual bool byte_available() const = 0;
  /// Takes the next byte. Called only when byte_available().
  virtual TxByte take_byte() = 0;
  /// Called by the channel after the feed's tail byte has been accepted;
  /// the feed is detached before this call (safe to re-attach a new feed).
  virtual void on_tail_sent() = 0;

  // --- burst extensions (default: per-byte only) -----------------------------

  /// Upper bound on plain body bytes (no head, no tail) the feed can commit
  /// to consecutive sends at now, now+1, ... — bytes it *guarantees* will be
  /// available at those logical times even if some have not logically
  /// arrived yet (contiguous runs arrive at exactly one byte per byte-time,
  /// so one arrived byte plus a physically buffered run is committable in
  /// full). 0 means step per-byte.
  [[nodiscard]] virtual std::int64_t burst_available() const { return 0; }

  /// Takes up to `max` plain body bytes at once (1 <= result <= max).
  /// Called only when burst_available() > 0 with max <= burst_available().
  virtual std::int64_t take_bytes(std::int64_t max) {
    (void)max;
    return 0;  // feeds that never advertise a burst are never asked
  }

  /// When byte_available() is false *only because* physically buffered
  /// bytes have not logically arrived yet, the time at which the next one
  /// does (the channel self-schedules a pump there — no kick will come).
  /// kTimeNever when a kick will announce the next byte instead.
  [[nodiscard]] virtual Time next_byte_time() const { return kTimeNever; }
};

/// Consumes bytes at a Channel's receiver. Implemented by switch input
/// ports and adapter receive engines.
class RxSink {
 public:
  virtual ~RxSink() = default;
  /// First byte of a worm. `wire_len` is the total bytes this channel will
  /// deliver for it (including this one and the trailer). `tail` marks a
  /// single-byte worm — head and trailer in one byte, as a zero-body
  /// interrupt-scheme multicast fragment produces — whose reception is
  /// complete with this call (no on_body follows).
  virtual void on_head(const WormPtr& worm, std::int64_t wire_len,
                       bool tail) = 0;
  /// Every subsequent byte; `tail` marks the last one.
  virtual void on_body(bool tail) = 0;

  // --- burst extensions (default: per-byte only) -----------------------------

  /// How many more bytes the sink can absorb — beyond everything already
  /// in flight toward it — without any possibility of a STOP/GO transition.
  /// The channel never lets (in-flight + burst) exceed this, so a burst
  /// delivery can never move a flow-control signal. 0 disables bursts.
  [[nodiscard]] virtual std::int64_t rx_burst_budget() const { return 0; }

  /// `n` body bytes delivered in one event: the first arrives now, the rest
  /// at logical times now+1 .. now+n-1 (the sink's availability accounting
  /// must respect that). The channel always delivers tails per-byte, so
  /// `tail` is false today; the parameter keeps the signature future-proof.
  virtual void on_body_burst(std::int64_t n, bool tail) {
    for (std::int64_t i = 1; i < n; ++i) on_body(false);
    on_body(tail);
  }
};

/// A directed byte pipe with propagation delay and STOP/GO backpressure.
class Channel {
 public:
  Channel(Simulator& sim, Time delay) : sim_(sim), delay_(delay) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] Time delay() const { return delay_; }

  /// Attaches the transmit-side byte source. The channel pulls from it
  /// until it yields a tail byte, at which point the feed is detached.
  /// Only one feed may be attached at a time.
  void attach_feed(ByteFeed* feed);
  [[nodiscard]] bool feed_attached() const { return feed_ != nullptr; }

  /// Signals that the attached feed may have bytes available again.
  void kick();

  /// Detaches the feed without a tail (a multicast branch releasing a port
  /// on which it has not yet sent anything). Precondition: attached.
  void detach_feed();

  /// Sets the receiver; must be done before any traffic flows.
  void set_sink(RxSink* sink) { sink_ = sink; }

  /// Attaches the experiment's fault injector (null = lossless). Consulted
  /// once per worm head; a worm the injector condemns is truncated (data)
  /// or swallowed whole (control / outage). The feed side is unaffected:
  /// the transmitter still drains its bytes and sees on_tail_sent, exactly
  /// as if a real link had corrupted the worm downstream of it.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Enables/disables the burst fast path (results are identical either
  /// way; per-byte mode exists for the equivalence suite and debugging).
  void set_burst_enabled(bool on) { burst_ = on; }
  [[nodiscard]] bool burst_enabled() const { return burst_; }

  /// Names this channel's trace track: the (node, port) of its transmitter
  /// end. Set once at fabric wiring; purely observational (wormtrace).
  void set_trace_id(std::int32_t node, std::int32_t port) {
    trace_node_ = node;
    trace_port_ = port;
  }

  /// Puts the channel in cross-executor mode (sharded engine): the
  /// transmitter end (feed, pump, send counters) keeps running on `sim_`'s
  /// executor `tx_exec`, while the sink lives on `rx_sim`'s executor
  /// `rx_exec`. Deliveries and STOP/GO signals become timestamped boundary
  /// messages on `bus` instead of same-queue events; burst admission is
  /// gated by a budget republished from the sink at window barriers (see
  /// publish_rx_budget). Precondition: delay() >= the engine's lookahead
  /// window, which is what guarantees every posted message lands strictly
  /// after the window that emitted it. Call once, before traffic flows.
  void set_cross_executor(ShardBus* bus, int tx_exec, int rx_exec,
                          Simulator* rx_sim);
  [[nodiscard]] bool cross_executor() const { return bus_ != nullptr; }

  /// Single-threaded barrier hook: recomputes the burst budget from the
  /// sink's current state minus the bytes committed but not yet landed.
  /// Called once at setup and re-enqueued (via the bus) whenever a
  /// delivery lands, so a quiet channel costs nothing per window.
  void publish_rx_budget();

  /// Receiver-side flow control: schedule a STOP (GO) to take effect at the
  /// transmitter after the propagation delay.
  void signal_stop();
  void signal_go();
  [[nodiscard]] bool tx_stopped() const { return stopped_; }

  /// Bytes *delivered* to the receiver by now (link utilization
  /// accounting). Bytes a fault swallowed do not count — a dead link must
  /// not inflate measured utilization; see bytes_swallowed(). A burst
  /// committed at t counts one byte per logical send time, so reading this
  /// mid-burst matches per-byte stepping exactly.
  [[nodiscard]] std::int64_t bytes_sent() const;

  /// Bytes swallowed by faults (link outages, control drops, the cut
  /// portion of truncated worms) instead of delivered.
  [[nodiscard]] std::int64_t bytes_swallowed() const;

  /// Estimated resident bytes for this channel direction (memory audit):
  /// the object itself plus its in-flight window, which only costs once
  /// the channel has actually carried a byte.
  [[nodiscard]] std::size_t heap_bytes_estimate() const {
    return sizeof(Channel) + in_flight_.heap_bytes_estimate() +
           in_flight_heads_.heap_bytes_estimate();
  }

 private:
  /// One committed run on the wire: a single byte, or a burst of plain
  /// body bytes. Trivially copyable; a head's worm travels separately.
  struct InFlight {
    std::int64_t count = 1;  // >1: a burst of plain body bytes
    bool head = false;
    bool tail = false;
  };
  /// What a head byte carries besides its InFlight entry.
  struct InFlightHead {
    WormPtr worm;
    std::int64_t wire_len = 0;  // bytes this channel delivers for the worm
  };

  /// Per-worm fault classification, decided at the head byte.
  enum class FaultMode : std::uint8_t {
    kNone,      // deliver every byte
    kTruncate,  // deliver fault_pass_left_ bytes, synthesize a tail, swallow
    kSwallow,   // deliver nothing (control loss / link outage)
  };

  void pump();
  void schedule_pump();
  bool try_burst();
  void deliver_front();
  void classify_fault(const TxByte& b);
  /// Cross-executor delivery: the run is carried by value in the posted
  /// closure (no shared ring), landing on the RX executor at send+delay.
  void post_delivery(const InFlight& b, InFlightHead h);
  void deliver_remote(const InFlight& b, const InFlightHead* h);
  /// Hands a landed run to the sink; `h` is set exactly for heads.
  void land(const InFlight& b, const InFlightHead* h);

  // Fields are grouped by size to keep sizeof(Channel) small: the memory
  // audit counts it once per channel direction, busy or idle.
  Simulator& sim_;
  ByteFeed* feed_ = nullptr;
  RxSink* sink_ = nullptr;
  FaultInjector* faults_ = nullptr;
  Time delay_;
  /// Logical send time of the newest committed byte; a burst at t commits
  /// sends through t+n-1, so this can sit in the future.
  Time last_send_ = -1;
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_swallowed_ = 0;
  std::int64_t in_flight_bytes_ = 0;  // delivered-but-not-landed bytes
  std::int64_t fault_pass_left_ = 0;  // kTruncate: bytes still delivered
  /// Classic mode's in-flight window, oldest first: at most delay+1 runs
  /// (one per send tick), plus one InFlightHead per head run among them.
  /// no_unique_address lets the next field use each ring's tail padding.
  [[no_unique_address]] FifoRing<InFlight> in_flight_;
  // Trace track identity (transmitter end) and the current worm's id for
  // head/tail span pairing; maintained only while tracing is enabled.
  std::int32_t trace_node_ = -1;
  [[no_unique_address]] FifoRing<InFlightHead> in_flight_heads_;
  std::int32_t trace_port_ = -1;
  std::uint64_t trace_worm_ = 0;
  FaultMode fault_mode_ = FaultMode::kNone;
  bool stopped_ = false;
  bool burst_ = true;
  bool pump_scheduled_ = false;
  /// True when the newest committed run was swallowed (tells bytes_sent /
  /// bytes_swallowed which counter the not-yet-logically-sent tail of the
  /// run belongs to).
  bool last_run_swallowed_ = false;
  /// Set at the head byte: bursts are legal for this worm (switch-level
  /// multicast worms always step per-byte — the replication engine paces
  /// branches byte-by-byte).
  bool burst_ok_ = false;

  // --- cross-executor mode (sharded engine; null bus_ = classic) ------------
  bool rx_dirty_ = false;           // republish already enqueued (RX thread)
  ShardBus* bus_ = nullptr;
  Simulator* rx_sim_ = nullptr;  // the sink's executor clock
  std::int32_t tx_exec_ = 0;
  std::int32_t rx_exec_ = 0;
  /// Conservative burst budget: sink headroom published at the last
  /// barrier, decremented per committed byte during the window. The
  /// per-byte path also decrements (and may drive it negative — legal:
  /// per-byte flow control works through the delayed STOP/GO signals, not
  /// the budget), so the barrier refresh needs no TX-side scan.
  std::int64_t budget_left_ = 0;
  std::int64_t tx_committed_ = 0;   // TX thread only (+ barriers)
  std::int64_t rx_delivered_ = 0;   // RX thread only (+ barriers)
};

}  // namespace wormcast
