// Collective-call fingerprints: the unit of comparison of the contract
// checker.
//
// Every collective a checked endpoint issues is summarized as a
// Fingerprint -- operation kind, payload word count, the call site, a
// per-space sequence number, and a rolling FNV-1a hash chaining all of the
// above over the endpoint's history.  Two ranks executing the same SPMD
// schedule produce identical fingerprint streams; the first divergence
// (wrong op, wrong payload, reordered call, skipped call) differs in at
// least the rolling hash, so comparing fingerprints at a rendezvous pins
// the *first* bad collective, not a later symptom.
//
// Sequence spaces: engine collectives (space 0) and AuxScope collectives
// (space 1, the contract checker's own epoch exchanges) are tracked with
// independent sequence counters and rolling hashes, so auxiliary traffic
// can never alias or perturb the engine schedule it is checking -- a rank
// issuing an aux collective while another issues an engine collective is
// itself a contract violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <source_location>
#include <string>

namespace rcf::check {

enum class CollectiveKind : std::uint8_t {
  kAllreduceSum,
  // A nonblocking post fingerprints as a distinct kind: a rank posting an
  // iallreduce while another issues the blocking form is a schedule
  // divergence (the overlap structure differs), not an equivalence.
  kIallreduceSum,
};

[[nodiscard]] const char* to_string(CollectiveKind kind);

/// FNV-1a over `n` bytes, chained from `h`.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = kFnvOffset);

/// One collective call as seen by a single rank endpoint.
struct Fingerprint {
  CollectiveKind kind = CollectiveKind::kAllreduceSum;
  std::uint8_t space = 0;      ///< 0 = engine, 1 = AuxScope
  std::uint64_t seq = 0;       ///< per-space call index (0-based)
  std::uint64_t words = 0;     ///< payload in doubles
  std::uint64_t site_hash = 0; ///< hash of file:line
  std::uint64_t rolling = 0;   ///< chained hash including this call
  // Diagnostics only (not compared): the call site.
  const char* file = "";
  std::uint32_t line = 0;

  /// Field-wise agreement (everything except the diagnostic site text;
  /// site_hash covers the call site, rolling covers the full history).
  [[nodiscard]] bool matches(const Fingerprint& other) const {
    return kind == other.kind && space == other.space && seq == other.seq &&
           words == other.words && site_hash == other.site_hash &&
           rolling == other.rolling;
  }

  /// Human-readable one-liner for diagnostics, e.g.
  /// "allreduce_sum[engine #12] words=132 site=core/engine.cpp:136".
  [[nodiscard]] std::string describe() const;
};

/// Per-endpoint fingerprint generator: owns the two sequence spaces.
class SequenceTracker {
 public:
  /// Builds the fingerprint of the next collective in the given space and
  /// advances that space's sequence counter and rolling hash.
  Fingerprint next(CollectiveKind kind, std::uint64_t words, bool aux,
                   const std::source_location& site);

  /// Rolling hash of the given space after the last next() call.
  [[nodiscard]] std::uint64_t rolling(bool aux) const {
    return rolling_[aux ? 1 : 0];
  }

 private:
  std::uint64_t seq_[2] = {0, 0};
  std::uint64_t rolling_[2] = {kFnvOffset, kFnvOffset};
};

}  // namespace rcf::check
