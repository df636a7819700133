#include "net/resilience.hpp"

#include <chrono>
#include <thread>

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
  p.retryable_methods = {
      // Reads: no server-side state change.
      "doc.get", "doc.mget", "doc.list", "det.search", "ope.range", "ope.extreme",
      "ore.range", "mitra.search", "mitrasl.search", "mitrasl.get_counter",
      "sophos.search", "iex.search", "zmf.search", "agg.sum", "admin.storage",
      "admin.index_ops", "admin.digest", "plain.get", "plain.find_eq",
      "plain.find_range", "plain.find_bool", "plain.avg",
      // Updates whose handlers are keyed overwrites (sadd / zadd / hset /
      // dict.put): a byte-identical replay re-writes the same key with the
      // same value, so at-least-once delivery yields exactly-once state.
      "doc.put", "doc.del", "det.insert", "det.remove", "ope.insert", "ope.remove",
      "ore.insert", "ore.remove", "mitra.update", "mitrasl.update", "sophos.update",
      "iex.update", "zmf.update", "agg.insert", "agg.remove", "plain.put",
      "plain.del", "plain.index",
      // Setup methods re-derive the same provisioning from recovered keys.
      "sophos.setup", "zmf.setup", "agg.setup",
      // The deferred-batch envelope only ever carries methods from the
      // update group above.
      "rpc.batch"};
  return p;
}

}  // namespace datablinder::net
