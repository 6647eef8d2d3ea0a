// Sizing helpers: validated parsing of numeric environment knobs, and the
// shard-count rule the engine's submit stripes and the replica's apply
// workers share.
//
// Every PRINS_* sizing knob (reactor threads, epoch, PG count) shares the
// same contract: unset means "auto", a positive integer is a
// request, and anything else — garbage, an empty string, zero, a negative
// number, or a value past the documented ceiling — must NOT silently turn
// into a surprise (strtoul happily wraps "-4" to 2^64-4, which a clamp then
// "honors" as the maximum).  parse_env_size gives each knob one strict,
// warning-on-nonsense implementation.
#pragma once

#include <cstddef>
#include <optional>

namespace prins {

/// Read environment variable `name` as a size in [min_value, max_value].
///
///   - unset                         -> nullopt (caller applies its default)
///   - not a whole non-negative
///     decimal integer (garbage,
///     empty, "-4", "3x", overflow)  -> nullopt + a kWarn log naming the knob
///   - below min_value (e.g. 0)      -> nullopt + a kWarn log (the documented
///                                      default is the fallback, never a
///                                      zero-sized pool)
///   - above max_value               -> max_value + a kWarn log (explicit
///                                      clamp, not silent)
///   - otherwise                     -> the parsed value
std::optional<std::size_t> parse_env_size(const char* name,
                                          std::size_t min_value,
                                          std::size_t max_value);

/// Resolve a shard-count request: 0 means the hardware thread count; the
/// result is clamped to [1, max_shards] and rounded up to a power of two
/// (so a stripe is `lba & (n - 1)`).  `max_shards` must be a power of two.
std::size_t resolve_shard_count(std::size_t requested, std::size_t max_shards);

}  // namespace prins
