#include "net/resilience.hpp"

#include <chrono>
#include <thread>

#include "net/methods.hpp"

namespace datablinder::net {

namespace {
class SystemClock final : public RetryClock {
 public:
  std::uint64_t now_us() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void sleep_us(std::uint64_t us) override {
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
};
}  // namespace

RetryClock& RetryClock::system() {
  static SystemClock clock;
  return clock;
}

RetryPolicy RetryPolicy::standard() {
  RetryPolicy p;
  for (const MethodInfo& m : cloud_methods()) p.retryable_methods.emplace(m.name);
  return p;
}

}  // namespace datablinder::net
