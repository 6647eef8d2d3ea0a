#include "common/env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"

namespace prins {

std::optional<std::size_t> parse_env_size(const char* name,
                                          std::size_t min_value,
                                          std::size_t max_value) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;

  // Strict whole-string parse: optional leading/trailing blanks around a
  // plain decimal integer.  A leading '-' (which strtoul would wrap) and
  // trailing junk ("8x") are both invalid.
  const char* p = env;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '\0' || !std::isdigit(static_cast<unsigned char>(*p))) {
    PRINS_LOG(kWarn) << name << "=\"" << env
                     << "\" is not a positive integer; using the default";
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(p, &end, 10);
  const bool overflow = errno == ERANGE;
  while (end != nullptr && std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  if (overflow || end == nullptr || *end != '\0') {
    PRINS_LOG(kWarn) << name << "=\"" << env
                     << "\" is not a positive integer; using the default";
    return std::nullopt;
  }
  if (value < min_value) {
    PRINS_LOG(kWarn) << name << "=" << value << " is below the minimum of "
                     << min_value << "; using the default";
    return std::nullopt;
  }
  if (value > max_value) {
    PRINS_LOG(kWarn) << name << "=" << value << " exceeds the maximum of "
                     << max_value << "; clamping";
    return max_value;
  }
  return static_cast<std::size_t>(value);
}

std::size_t resolve_shard_count(std::size_t requested, std::size_t max_shards) {
  std::size_t n = requested;
  if (n == 0) n = std::thread::hardware_concurrency();
  n = std::clamp<std::size_t>(n, 1, max_shards);
  std::size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

}  // namespace prins
