// The reference loop: a fixed miniature event simulation that the suite
// times between the simulator's timed runs, so that the end-to-end rate can
// be stated relative to the host's speed at that moment (README.md,
// "Noise").  It calls nothing in src/, so no change to the library can
// change it: on a given host, its time moves only with the host.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "suite.hpp"

namespace mec::suite {
namespace {

/// The shape of the simulator's per-device record: two cache lines.
struct alignas(64) Device {
  double busy_until = 0.0;
  double work = 0.0;
  std::uint64_t events = 0;
  double pad[13] = {};
};
static_assert(sizeof(Device) == 128);

/// 128 KiB of records and a 16 KiB heap stay in a core's private caches.
/// On a shared host the simulator's speed moved with the core's speed:
/// a 10^3-device loop followed it across processes with correlation 0.88
/// to 0.95, while a 10^5-device loop, which also waits on the shared cache
/// and memory, added noise of its own (README.md, "Noise").
constexpr std::uint32_t kDevices = 1000;

/// splitmix64: a fixed generator, so every call does identical work.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double exponential() {
    return -std::log((static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53);
  }
};

}  // namespace

double reference_loop_seconds(std::uint64_t events) {
  // Untimed set-up: zero-filled records (pages touched) and a full heap.
  std::vector<Device> devices(kDevices);
  SplitMix rng{1};
  using Pending = std::pair<double, std::uint32_t>;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
      queue;
  for (std::uint32_t d = 0; d < kDevices; ++d)
    queue.emplace(rng.exponential(), d);

  // Hold model: pop the earliest event, update its device, schedule the
  // device's next event an exponential increment later.
  const auto t0 = Clock::now();
  for (std::uint64_t e = 0; e < events; ++e) {
    const Pending next = queue.top();
    queue.pop();
    Device& d = devices[next.second];
    const double increment = rng.exponential();
    d.work += increment;
    d.busy_until = std::max(d.busy_until, next.first) + 0.5 * increment;
    ++d.events;
    d.pad[12] = d.busy_until;
    queue.emplace(next.first + increment, next.second);
  }
  const double seconds = seconds_since(t0);

  static volatile double sink = 0.0;
  sink = sink + devices[queue.top().second].work;
  return seconds;
}

}  // namespace mec::suite
