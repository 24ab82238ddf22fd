// The clock seam for the connection-lifecycle deadline subsystem.
//
// Mirrors fault::SysIface and obs::hwprof::CounterSource: production code
// reads time through a virtual ClockSource so every expiry scenario --
// handshake stalls, idle reaps, drain deadlines -- replays deterministically
// under a ScriptedClock in tests, while the runtime default is one vtable
// hop over clock_gettime(CLOCK_MONOTONIC).
//
// All times are nanoseconds on an arbitrary monotonic epoch. Nothing in the
// deadline subsystem ever compares a ClockSource reading against
// std::chrono::steady_clock directly; the two epochs are unrelated.

#ifndef AFFINITY_SRC_TIME_CLOCK_H_
#define AFFINITY_SRC_TIME_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace affinity {
namespace timer {

class ClockSource {
 public:
  virtual ~ClockSource() = default;
  // Monotonic nanoseconds. Thread-safe; called from every reactor.
  virtual uint64_t NowNs() = 0;
  // How long a thread waiting for `deadline_ns` may sleep before it must
  // read this clock again: 0 once the deadline is due.
  virtual uint64_t SleepNs(uint64_t deadline_ns) = 0;
};

// The production clock: steady_clock passthrough. Stateless, so one shared
// instance serves every Runtime.
class MonotonicClock : public ClockSource {
 public:
  uint64_t NowNs() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  // Real time: the sleep may last the whole distance.
  uint64_t SleepNs(uint64_t deadline_ns) override {
    uint64_t now = NowNs();
    return deadline_ns > now ? deadline_ns - now : 0;
  }
  static MonotonicClock* Instance() {
    static MonotonicClock instance;
    return &instance;
  }
};

// The test clock: time moves only when the test says so. Atomic because the
// reactors read it while the test thread advances it (relaxed suffices: a
// reading is merely a sample, never an ordering point).
class ScriptedClock : public ClockSource {
 public:
  static constexpr uint64_t kRereadNs = 1'000'000;

  explicit ScriptedClock(uint64_t start_ns = 0) : now_ns_(start_ns) {}
  uint64_t NowNs() override { return now_ns_.load(std::memory_order_acquire); }
  // Scripted time jumps without any event a sleeper could wake on, so a
  // sleeper re-reads it every millisecond while a deadline is pending.
  uint64_t SleepNs(uint64_t deadline_ns) override {
    return deadline_ns > NowNs() ? kRereadNs : 0;
  }
  void Advance(uint64_t delta_ns) {
    now_ns_.fetch_add(delta_ns, std::memory_order_acq_rel);
  }
  void Set(uint64_t now_ns) { now_ns_.store(now_ns, std::memory_order_release); }

 private:
  std::atomic<uint64_t> now_ns_;
};

}  // namespace timer
}  // namespace affinity

#endif  // AFFINITY_SRC_TIME_CLOCK_H_
