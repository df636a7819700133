// Host speed probe.
//
// On a shared host the speed of multi-precision arithmetic (Paillier,
// Montgomery folds) flips between full and about half speed while
// co-located work runs on the same physical core; the flips come every
// millisecond or so, and the share of slow time drifts over minutes. The
// gateway's other crypto slows with it. The probe times a fixed run of
// 1024-bit Montgomery multiplications (CIOS), the instruction mix that
// slows most. Where it runs:
//   - one user: on the user's own thread between ops, and during them from
//     a signal handler on whichever thread does the op's work
//     (SpeedSampler);
//   - several users: at barriers, while no op is in flight;
//   - a set-up: as an op with one user.
// Every op is kept and reported at the reference speed,
// t * kReferenceProbeUs / probe (at_reference_speed in bench.hpp). The
// probe is written here, not taken from the library, so a change to the
// library cannot move it.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <chrono>
#include <initializer_list>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Receives the probe's result so the loop is not folded away.
inline volatile std::uint64_t probe_sink = 0;

inline double speed_probe_us() {
  constexpr int kLimbs = 16;
  constexpr int kMuls = 64;
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  struct Operands {
    std::array<u64, kLimbs> m{}, a{}, b{};
    u64 m0inv = 0;  // -m^-1 mod 2^64
    Operands() {
      u64 s = 0x9E3779B97F4A7C15ULL;  // splitmix64
      auto next = [&s] {
        u64 z = (s += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
      };
      for (int i = 0; i < kLimbs; ++i) {
        m[i] = next();
        a[i] = next();
        b[i] = next();
      }
      m[0] |= 1;
      m[kLimbs - 1] >>= 2;  // m < R/4 keeps unreduced CIOS outputs bounded
      a[kLimbs - 1] >>= 3;
      b[kLimbs - 1] >>= 3;
      u64 inv = 1;
      for (int i = 0; i < 6; ++i) inv *= 2 - m[0] * inv;  // Newton: m * inv == 1
      m0inv = ~inv + 1;
    }
  };
  static const Operands op;

  std::array<u64, kLimbs> a = op.a;
  const std::int64_t t0 = now_ns();
  for (int k = 0; k < kMuls; ++k) {
    std::array<u64, kLimbs + 2> t{};
    for (int i = 0; i < kLimbs; ++i) {
      u64 c = 0;
      for (int j = 0; j < kLimbs; ++j) {
        const u128 x = static_cast<u128>(a[j]) * op.b[i] + t[j] + c;
        t[j] = static_cast<u64>(x);
        c = static_cast<u64>(x >> 64);
      }
      u128 x = static_cast<u128>(t[kLimbs]) + c;
      t[kLimbs] = static_cast<u64>(x);
      t[kLimbs + 1] = static_cast<u64>(x >> 64);
      const u64 q = t[0] * op.m0inv;
      x = static_cast<u128>(q) * op.m[0] + t[0];
      c = static_cast<u64>(x >> 64);
      for (int j = 1; j < kLimbs; ++j) {
        x = static_cast<u128>(q) * op.m[j] + t[j] + c;
        t[j - 1] = static_cast<u64>(x);
        c = static_cast<u64>(x >> 64);
      }
      x = static_cast<u128>(t[kLimbs]) + c;
      t[kLimbs - 1] = static_cast<u64>(x);
      t[kLimbs] = t[kLimbs + 1] + static_cast<u64>(x >> 64);
    }
    for (int j = 0; j < kLimbs; ++j) a[j] = t[j];
  }
  const std::int64_t t1 = now_ns();
  probe_sink = a[0];
  return static_cast<double>(t1 - t0) / 1e3;
}

/// Probes back to back for `window_ms` and returns the mean probe: the
/// host's speed over the window, for the rarer probe points (barriers)
/// where one probe would scale many ops. The speed flips at a millisecond
/// scale, so one probe there is a coin toss. The samples tile the window,
/// each covering its own duration, so the plain mean is the time-weighted
/// one.
inline double window_probe_us(double window_ms) {
  double sum = 0;
  int n = 0;
  while (sum < window_ms * 1e3) {
    sum += speed_probe_us();
    ++n;
  }
  return sum / n;
}

namespace detail {
struct ProbeSample {
  std::int64_t start_ns = 0, end_ns = 0;
  double probe_us = 0;
  std::atomic<bool> ready{false};
};
inline constexpr std::size_t kMaxSamples = 1 << 16;
inline std::array<ProbeSample, kMaxSamples> g_samples{};
inline std::atomic<std::size_t> g_sample_count{0};

/// Runs on whichever thread of the process the CPU-time timer interrupts;
/// several may run it at once.
inline void on_sample_signal(int) {
  const int saved = errno;
  const std::size_t i = g_sample_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    ProbeSample& s = g_samples[i];
    s.start_ns = now_ns();
    s.probe_us = speed_probe_us();
    s.end_ns = now_ns();
    s.ready.store(true, std::memory_order_release);
  }
  errno = saved;
}
}  // namespace detail

/// What a SpeedSampler saw over an interval.
struct SpeedReading {
  double speed_sum = 0;    // sum of 1 / probe over the samples
  std::size_t samples = 0;
  double sampling_us = 0;  // time the interval spent in the signal handler
};

/// The probe that stands for an interval: the harmonic mean of the samples
/// taken in it and of `around`, probes taken at its ends. Speed is 1 / probe
/// and the samples are evenly spaced in time, so the harmonic mean is the
/// time-weighted one. 0 (no scaling) without any probe.
inline double interval_probe_us(const SpeedReading& r, std::initializer_list<double> around) {
  double speed = r.speed_sum;
  std::size_t n = r.samples;
  for (double p : around) {
    speed += 1 / p;
    ++n;
  }
  return speed > 0 ? static_cast<double>(n) / speed : 0;
}

/// Samples the speed of the cores that run the process's work, for as
/// long as it lives. The host speed can change several times within one op
/// or one set-up, which probes between them cannot see, and part of an op
/// runs on executor workers, on other cores. So a timer on the process's
/// CPU time signals the process every 2 ms of CPU it uses; the kernel hands
/// the signal to a thread that is running, and the handler times one probe
/// there. The samples thus weigh each core by the work it does for the
/// process. The handler costs about 3% of the CPU time; reading() reports
/// it so it can be taken out. One sampler at a time, and only while one op
/// is in flight at once (one user, or a set-up).
class SpeedSampler {
 public:
  SpeedSampler() {
    speed_probe_us();  // initialises the probe's operands outside the handler
    for (auto& s : detail::g_samples) s.ready.store(false, std::memory_order_relaxed);
    detail::g_sample_count.store(0);
    struct sigaction sa {};
    sa.sa_handler = detail::on_sample_signal;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(kSignal, &sa, &saved_);
    sigevent ev{};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = kSignal;
    armed_ = timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer_) == 0;
    if (armed_) {
      itimerspec every{};
      every.it_interval.tv_nsec = 2'000'000;
      every.it_value.tv_nsec = 2'000'000;
      timer_settime(timer_, 0, &every, nullptr);
    }
  }
  ~SpeedSampler() {
    if (armed_) timer_delete(timer_);
    sigaction(kSignal, &saved_, nullptr);  // a late SIGURG is ignored by default
  }
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// The samples that started in [t0, t1), on any thread. Meant for an
  /// interval that just ended: it scans back from the newest sample.
  SpeedReading reading(std::int64_t t0, std::int64_t t1) const {
    constexpr std::int64_t kSlackNs = 1'000'000;  // handlers can finish out of order
    const std::size_t n =
        std::min(detail::g_sample_count.load(std::memory_order_acquire), detail::kMaxSamples);
    SpeedReading r;
    for (std::size_t i = n; i-- > 0;) {
      const auto& s = detail::g_samples[i];
      if (!s.ready.load(std::memory_order_acquire)) continue;
      if (s.start_ns < t0 - kSlackNs) break;
      if (s.start_ns < t0 || s.start_ns >= t1) continue;
      r.speed_sum += 1 / s.probe_us;
      ++r.samples;
      r.sampling_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
    return r;
  }

  /// A probe on the calling thread, taken again if a sample interrupted it.
  double probe_us() const {
    for (;;) {
      const std::size_t n = detail::g_sample_count.load(std::memory_order_acquire);
      const double p = speed_probe_us();
      if (detail::g_sample_count.load(std::memory_order_acquire) == n) return p;
    }
  }

 private:
  static constexpr int kSignal = SIGURG;
  struct sigaction saved_ {};
  timer_t timer_{};
  bool armed_ = false;
};

/// Keeps the idle cores out of deep sleep during a timed phase. An op hands
/// work to the gateway's executor workers, and waking a worker whose core
/// sleeps deeply costs far more on a quiet host than on a busy one: update
/// latencies on fhir-analytics read 0.8 ms or 1.3 ms depending on what the
/// rest of the host did at the time. One thread per core naps 50 us at a
/// time at SCHED_IDLE priority, so no core stays idle long enough to sleep
/// deeply, yet each nap yields the core to any other thread at once. This
/// is the benchmark's stand-in for disabling deep idle states, which a
/// process cannot do.
class KeepCoresAwake {
 public:
  KeepCoresAwake() {
    const unsigned n = std::max(1U, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param none{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &none);
        while (!stop_.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::microseconds(kNapUs));
        }
      });
    }
  }
  ~KeepCoresAwake() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  KeepCoresAwake(const KeepCoresAwake&) = delete;
  KeepCoresAwake& operator=(const KeepCoresAwake&) = delete;

 private:
  static constexpr int kNapUs = 50;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
