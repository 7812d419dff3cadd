#include "check/fingerprint.hpp"

#include <cstring>

namespace rcf::check {

namespace {

/// Last two path components of a compiler-provided file name, so
/// diagnostics read "core/engine.cpp" instead of an absolute path.
const char* trim_path(const char* file) {
  const char* last = nullptr;
  const char* prev = nullptr;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      prev = last;
      last = p + 1;
    }
  }
  if (prev != nullptr) {
    return prev;
  }
  return last != nullptr ? last : file;
}

}  // namespace

const char* to_string(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kAllreduceSum:
      return "allreduce_sum";
    case CollectiveKind::kIallreduceSum:
      return "iallreduce_sum";
  }
  return "unknown";
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::string Fingerprint::describe() const {
  std::string out = to_string(kind);
  out += space == 0 ? "[engine #" : "[aux #";
  out += std::to_string(seq);
  out += "] words=";
  out += std::to_string(words);
  out += " site=";
  out += trim_path(file);
  out += ":";
  out += std::to_string(line);
  return out;
}

Fingerprint SequenceTracker::next(CollectiveKind kind, std::uint64_t words,
                                  bool aux, const std::source_location& site) {
  const int sp = aux ? 1 : 0;
  Fingerprint fp;
  fp.kind = kind;
  fp.space = static_cast<std::uint8_t>(sp);
  fp.seq = seq_[sp]++;
  fp.words = words;
  fp.file = site.file_name();
  fp.line = site.line();
  fp.site_hash = fnv1a(site.file_name(), std::strlen(site.file_name()));
  const std::uint32_t line = site.line();
  fp.site_hash = fnv1a(&line, sizeof(line), fp.site_hash);

  std::uint64_t h = rolling_[sp];
  const std::uint8_t kind_byte = static_cast<std::uint8_t>(kind);
  h = fnv1a(&kind_byte, sizeof(kind_byte), h);
  h = fnv1a(&fp.words, sizeof(fp.words), h);
  h = fnv1a(&fp.site_hash, sizeof(fp.site_hash), h);
  rolling_[sp] = h;
  fp.rolling = h;
  return fp;
}

}  // namespace rcf::check
