#include "prins/trap_log.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "codec/codec.h"
#include "common/crc32c.h"
#include "common/endian.h"
#include "common/varint.h"
#include "parity/xor.h"

namespace prins {

Status TrapLog::append(Lba lba, std::uint64_t timestamp_us,
                       ByteSpan parity_delta) {
  Bytes encoded =
      encode_frame(codec_for(CodecId::kZeroRle), parity_delta);
  std::lock_guard lock(mutex_);
  auto& history = log_[lba];
  if (!history.entries.empty() &&
      history.entries.back().timestamp_us > timestamp_us) {
    return invalid_argument("TrapLog timestamps must be non-decreasing per block");
  }
  stored_bytes_ += encoded.size();
  raw_bytes_ += parity_delta.size();
  ++entries_;
  history.entries.push_back(
      Entry{timestamp_us, timestamp_us, std::move(encoded)});
  return Status::ok();
}

Result<Bytes> TrapLog::recover_block(Lba lba, std::uint64_t t,
                                     ByteSpan current) const {
  Bytes out = to_bytes(current);
  std::lock_guard lock(mutex_);
  auto it = log_.find(lba);
  if (it == log_.end()) return out;  // no history: block unchanged since T
  const BlockHistory& history = it->second;
  if (t < history.min_recoverable) {
    return failed_precondition(
        "history for block " + std::to_string(lba) +
        " truncated past requested time " + std::to_string(t));
  }
  // XOR every delta newer than T into the current contents; the chain
  // telescopes down to the state at T.
  for (auto e = history.entries.rbegin(); e != history.entries.rend(); ++e) {
    if (e->timestamp_us <= t) break;
    if (e->oldest_timestamp_us <= t) {
      // T falls strictly inside a compacted span: granularity lost.
      return failed_precondition(
          "history for block " + std::to_string(lba) + " around time " +
          std::to_string(t) + " was compacted away");
    }
    PRINS_ASSIGN_OR_RETURN(Bytes delta, decode_frame(e->encoded_delta));
    if (delta.size() != out.size()) {
      return corruption("TRAP delta size " + std::to_string(delta.size()) +
                        " != block size " + std::to_string(out.size()));
    }
    xor_into(out, delta);
  }
  return out;
}

Status TrapLog::recover_device(BlockDevice& device, std::uint64_t t) const {
  std::vector<Lba> lbas;
  {
    std::lock_guard lock(mutex_);
    lbas.reserve(log_.size());
    for (const auto& [lba, _] : log_) lbas.push_back(lba);
  }
  Bytes block(device.block_size());
  for (Lba lba : lbas) {
    PRINS_RETURN_IF_ERROR(device.read(lba, block));
    PRINS_ASSIGN_OR_RETURN(Bytes recovered, recover_block(lba, t, block));
    if (recovered != block) {
      PRINS_RETURN_IF_ERROR(device.write(lba, recovered));
    }
  }
  return Status::ok();
}

void TrapLog::truncate_before(std::uint64_t t) {
  std::lock_guard lock(mutex_);
  for (auto& [lba, history] : log_) {
    auto& entries = history.entries;
    auto keep = std::find_if(entries.begin(), entries.end(),
                             [t](const Entry& e) { return e.timestamp_us >= t; });
    for (auto it = entries.begin(); it != keep; ++it) {
      stored_bytes_ -= it->encoded_delta.size();
      --entries_;
      history.min_recoverable =
          std::max(history.min_recoverable, it->timestamp_us);
    }
    entries.erase(entries.begin(), keep);
  }
}

std::uint64_t TrapLog::compact_range(std::uint64_t t1, std::uint64_t t2) {
  if (t2 < t1) return 0;
  std::lock_guard lock(mutex_);
  std::uint64_t removed = 0;
  for (auto& [lba, history] : log_) {
    auto& entries = history.entries;
    auto first = std::find_if(entries.begin(), entries.end(),
                              [t1](const Entry& e) {
                                return e.oldest_timestamp_us >= t1;
                              });
    auto last = first;
    while (last != entries.end() && last->timestamp_us <= t2) ++last;
    if (std::distance(first, last) < 2) continue;

    // XOR-fold the span into one delta (deltas commute and telescope).
    Bytes merged;
    std::uint64_t newest = 0, oldest = ~0ull, freed = 0;
    bool bad = false;
    for (auto it = first; it != last; ++it) {
      auto delta = decode_frame(it->encoded_delta);
      if (!delta.is_ok()) {
        bad = true;
        break;
      }
      if (merged.empty()) {
        merged = std::move(*delta);
      } else if (merged.size() == delta->size()) {
        xor_into(merged, *delta);
      } else {
        bad = true;
        break;
      }
      newest = std::max(newest, it->timestamp_us);
      oldest = std::min(oldest, it->oldest_timestamp_us);
      freed += it->encoded_delta.size();
    }
    if (bad) continue;  // leave inconsistent history untouched

    Entry folded;
    folded.timestamp_us = newest;
    folded.oldest_timestamp_us = oldest;
    folded.encoded_delta = encode_frame(codec_for(CodecId::kZeroRle), merged);

    const auto span = static_cast<std::uint64_t>(std::distance(first, last));
    removed += span - 1;
    entries_ -= span - 1;
    stored_bytes_ -= freed;
    stored_bytes_ += folded.encoded_delta.size();
    auto insert_at = entries.erase(first, last);
    entries.insert(insert_at, std::move(folded));
  }
  return removed;
}

std::vector<std::uint64_t> TrapLog::timestamps(Lba lba) const {
  std::lock_guard lock(mutex_);
  std::vector<std::uint64_t> out;
  auto it = log_.find(lba);
  if (it == log_.end()) return out;
  out.reserve(it->second.entries.size());
  for (const auto& e : it->second.entries) out.push_back(e.timestamp_us);
  return out;
}

std::vector<Lba> TrapLog::blocks_changed_since(std::uint64_t t) const {
  std::lock_guard lock(mutex_);
  std::vector<Lba> out;
  for (const auto& [lba, history] : log_) {
    if (!history.entries.empty() &&
        history.entries.back().timestamp_us > t) {
      out.push_back(lba);
    }
  }
  return out;
}

namespace {
constexpr Byte kSnapshotMagic[4] = {'P', 'R', 't', 'l'};
}  // namespace

Status TrapLog::save(const std::string& path) const {
  Bytes out;
  {
    std::lock_guard lock(mutex_);
    prins::append(out, kSnapshotMagic);
    put_varint(out, log_.size());
    for (const auto& [lba, history] : log_) {
      put_varint(out, lba);
      put_varint(out, history.min_recoverable);
      put_varint(out, history.entries.size());
      for (const Entry& e : history.entries) {
        put_varint(out, e.timestamp_us);
        put_varint(out, e.oldest_timestamp_us);
        put_varint(out, e.encoded_delta.size());
        prins::append(out, e.encoded_delta);
      }
    }
  }
  append_le32(out, crc32c(out));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return io_error("fopen(" + path + ") for writing");
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed) {
    return io_error("short write saving TRAP log to " + path);
  }
  return Status::ok();
}

Status TrapLog::load_from(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return not_found("TRAP snapshot: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 8) {
    std::fclose(f);
    return corruption("TRAP snapshot too small: " + path);
  }
  Bytes in(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(in.data(), 1, in.size(), f);
  std::fclose(f);
  if (read != in.size()) return io_error("short read loading " + path);

  const std::uint32_t want = load_le32(ByteSpan(in).subspan(in.size() - 4));
  if (crc32c(ByteSpan(in).first(in.size() - 4)) != want) {
    return corruption("TRAP snapshot checksum mismatch: " + path);
  }
  if (!std::equal(std::begin(kSnapshotMagic), std::end(kSnapshotMagic),
                  in.begin())) {
    return corruption("bad TRAP snapshot magic: " + path);
  }

  std::size_t pos = 4;
  const std::size_t end = in.size() - 4;
  auto blocks = get_varint(in, pos);
  if (!blocks) return corruption("TRAP snapshot: truncated block count");

  std::lock_guard lock(mutex_);
  for (std::uint64_t b = 0; b < *blocks; ++b) {
    auto lba = get_varint(in, pos);
    auto min_recoverable = get_varint(in, pos);
    auto entry_count = get_varint(in, pos);
    if (!lba || !min_recoverable || !entry_count) {
      return corruption("TRAP snapshot: truncated block header");
    }
    BlockHistory& history = log_[*lba];
    history.min_recoverable =
        std::max(history.min_recoverable, *min_recoverable);
    for (std::uint64_t e = 0; e < *entry_count; ++e) {
      auto ts = get_varint(in, pos);
      auto oldest = get_varint(in, pos);
      auto len = get_varint(in, pos);
      if (!ts || !oldest || !len || *len > end - pos) {
        return corruption("TRAP snapshot: truncated entry");
      }
      if (!history.entries.empty() &&
          history.entries.back().timestamp_us > *ts) {
        return failed_precondition(
            "TRAP snapshot merge would break timestamp order for block " +
            std::to_string(*lba));
      }
      Entry entry;
      entry.timestamp_us = *ts;
      entry.oldest_timestamp_us = *oldest;
      entry.encoded_delta = to_bytes(ByteSpan(in).subspan(pos, *len));
      pos += *len;
      stored_bytes_ += entry.encoded_delta.size();
      ++entries_;
      history.entries.push_back(std::move(entry));
    }
  }
  if (pos != end) return corruption("TRAP snapshot: trailing garbage");
  return Status::ok();
}

void TrapLog::move_into(TrapLog& dest) {
  if (&dest == this) return;
  std::scoped_lock lock(mutex_, dest.mutex_);
  for (auto& [lba, history] : log_) {
    BlockHistory& target = dest.log_[lba];
    if (target.entries.empty()) {
      target = std::move(history);
      continue;
    }
    target.min_recoverable =
        std::max(target.min_recoverable, history.min_recoverable);
    for (Entry& entry : history.entries) {
      target.entries.push_back(std::move(entry));
    }
  }
  dest.stored_bytes_ += stored_bytes_;
  dest.raw_bytes_ += raw_bytes_;
  dest.entries_ += entries_;
  log_.clear();
  stored_bytes_ = 0;
  raw_bytes_ = 0;
  entries_ = 0;
}

std::uint64_t TrapLog::total_entries() const {
  std::lock_guard lock(mutex_);
  return entries_;
}

std::uint64_t TrapLog::stored_bytes() const {
  std::lock_guard lock(mutex_);
  return stored_bytes_;
}

std::uint64_t TrapLog::raw_bytes_logged() const {
  std::lock_guard lock(mutex_);
  return raw_bytes_;
}

}  // namespace prins
