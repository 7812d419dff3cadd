// Known-good fixture for the telemetry-discipline check (analyzed with
// scope_as=src/core/fixture.cpp): sanctioned layering plus one inline
// waiver (the waived finding must be reported as waived, not active).
#include <cstdint>
#include <string_view>
#include <thread>

namespace fixture {

namespace rcf {
struct Rng {
  Rng(std::uint64_t seed, std::uint64_t stream);
  double uniform();
};
}  // namespace rcf

namespace obs {
void telemetry_publish(std::string_view name, std::int64_t seq);
}

double seeded_draw(std::uint64_t seed) {
  rcf::Rng rng(seed, 7);  // counter-based, replayable from the run config
  return rng.uniform();
}

void publish_retry(std::int64_t retry) {
  obs::telemetry_publish("retry", retry);  // sanctioned gated entry point
}

void waived_worker() {
  std::thread t;  // rcf-analyze: allow(telemetry-discipline) fixture: exercises the inline waiver path
  t.join();
}

}  // namespace fixture
