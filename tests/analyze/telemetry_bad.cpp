// Seeded-bad fixture for the telemetry-discipline check (analyzed with
// scope_as=src/core/fixture.cpp): naked threads, ambient randomness,
// wall-clock seeding, and ring or ungated-emit access outside src/obs.
#include <cstdlib>
#include <ctime>
#include <random>
#include <thread>
#include <vector>

namespace fixture {

namespace obs {
struct TelemetryRing;  // BAD(telemetry-discipline)
struct TelemetryEvent {};
void telemetry_emit(TelemetryEvent ev);  // BAD(telemetry-discipline)
}

void naked_thread(std::vector<double>& xs) {
  std::thread worker([&xs] { xs.clear(); });  // BAD(telemetry-discipline)
  worker.join();
}

double ambient_engine() {
  std::mt19937 gen(42);  // BAD(telemetry-discipline)
  return static_cast<double>(gen());
}

void wallclock_seed() {
  std::srand(static_cast<unsigned>(time(nullptr)));  // BAD(telemetry-discipline)
}

int ambient_rand() {
  return rand();  // BAD(telemetry-discipline)
}

void poke_ring(obs::TelemetryRing& ring);  // BAD(telemetry-discipline)

void emit_ungated() {
  obs::telemetry_emit({});  // BAD(telemetry-discipline)
}

}  // namespace fixture
