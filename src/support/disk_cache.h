// Persistent on-disk tier for the content-hash stage cache.
//
// DiskCache maps (stage name, StageKey) to an opaque payload of bytes,
// stored one file per entry under a cache directory. The 128-bit keys are
// stable across processes, platforms and compiler versions (support/hash.h),
// so a directory populated by one process serves every later one: CLI
// re-invocations, repeated batches and whole CI runs. Layered under
// support::StageCache by core::ToolchainCache (for the plain-data stages;
// core/cache.h says which), the lookup order is memory -> disk -> compute,
// with the in-memory tier's single-flight guaranteeing that one process
// hits the disk (and the compute) at most once per key.
//
// Trust model — the hard part. A persisted entry is only usable if hostile
// on-disk state can never change a result byte. Every record is therefore
//   * versioned      — a format-version mismatch is a miss, not a parse;
//   * self-describing — the record embeds its stage name and full key, so
//                        a file renamed or copied between key slots can
//                        never serve the wrong value;
//   * length-framed  — the payload length is explicit and must match the
//                        file size exactly (truncation and trailing
//                        garbage are both detected);
//   * checksummed    — a 128-bit content hash over header + payload is
//                        verified before a single payload byte is
//                        interpreted.
// Any validation failure is counted in `rejects` and reported as a miss:
// the caller recomputes and (best effort) overwrites the bad record. A
// malformed cache directory can cost time, never correctness — loads
// degrade, they do not throw.
//
// Atomicity: records are published by writing to a process-unique `.tmp`
// file and then rename(2)-ing into place, so concurrent readers never see
// a partial record and concurrent writers (two evals sharing one
// directory) race only on which byte-identical record survives — stage
// values are pure functions of their keys, so last-rename-wins is
// harmless. Stale `.tmp` files from a crashed writer are inert: loads
// only ever open `.rec` paths. Eviction is deliberately out of scope:
// delete the directory (or any subset of it) at any time.
//
// ByteWriter/ByteReader are the shared payload codec: the same tagged,
// length-framed field discipline as support::Hasher (a tag byte per field,
// strings length-prefixed, integers little-endian), but written out
// instead of folded into a digest. Readers are bounds-checked and sticky:
// the first malformed field poisons the reader, every later read returns
// a default, and the caller checks ok() once at the end — so a truncated
// or bit-rotten payload can produce a rejected load, never a crash or a
// half-read value.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/hash.h"

namespace argo::support {

/// Bumped whenever the record framing or any stage payload encoding
/// changes shape. A version-skewed record is rejected on load, so caches
/// shared across builds (actions/cache, a long-lived cache directory)
/// degrade to recompute instead of misparsing. CI keys its cache restore
/// on this value (.github/workflows/ci.yml).
inline constexpr std::uint32_t kDiskCacheFormatVersion = 3;

/// Append-only encoder for record payloads. Fields are tagged and framed
/// exactly like support::Hasher feeds, so the encoded stream has the same
/// no-aliasing property the keys rely on.
class ByteWriter {
 public:
  ByteWriter& u64(std::uint64_t v) { tag('U'); raw64(v); return *this; }
  ByteWriter& i64(std::int64_t v) {
    tag('I');
    raw64(static_cast<std::uint64_t>(v));
    return *this;
  }
  ByteWriter& i32(std::int32_t v) {
    tag('W');
    raw64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    return *this;
  }
  ByteWriter& str(std::string_view s) {
    tag('S');
    raw64(s.size());
    out_.append(s.data(), s.size());
    return *this;
  }
  ByteWriter& key(const StageKey& k) {
    tag('K');
    raw64(k.hi);
    raw64(k.lo);
    return *this;
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void tag(char t) { out_.push_back(t); }
  /// Little-endian by construction — matches Hasher::raw64, so payloads
  /// are byte-identical across host endianness.
  void raw64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
    }
  }

  std::string out_;
};

/// Bounds-checked, sticky-failure decoder for ByteWriter streams. Every
/// read validates its tag and its length before touching a byte; the
/// first violation marks the reader failed and every subsequent read
/// returns a zero value. Consumers check ok() (and usually atEnd()) once
/// after reading the whole payload.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint64_t u64() noexcept { return tagged64('U'); }
  [[nodiscard]] std::int64_t i64() noexcept {
    return static_cast<std::int64_t>(tagged64('I'));
  }
  [[nodiscard]] std::int32_t i32() noexcept {
    const std::int64_t wide = static_cast<std::int64_t>(tagged64('W'));
    if (wide < INT32_MIN || wide > INT32_MAX) {
      fail();
      return 0;
    }
    return static_cast<std::int32_t>(wide);
  }
  [[nodiscard]] std::string str() noexcept {
    if (!expectTag('S')) return {};
    const std::uint64_t n = raw64();
    if (failed_ || n > data_.size() - at_) {
      fail();
      return {};
    }
    std::string out(data_.substr(at_, static_cast<std::size_t>(n)));
    at_ += static_cast<std::size_t>(n);
    return out;
  }
  [[nodiscard]] StageKey stageKey() noexcept {
    StageKey k;
    if (!expectTag('K')) return k;
    k.hi = raw64();
    k.lo = raw64();
    if (failed_) return StageKey{};
    return k;
  }

  /// Guarded element count for a sequence about to be read: a corrupted
  /// count that cannot possibly fit in the remaining bytes (each element
  /// needs at least one tag byte) fails fast instead of driving a huge
  /// allocation.
  [[nodiscard]] std::size_t count() noexcept {
    const std::uint64_t n = u64();
    if (failed_ || n > data_.size() - at_) {
      fail();
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] bool atEnd() const noexcept {
    return !failed_ && at_ == data_.size();
  }

 private:
  void fail() noexcept { failed_ = true; }
  [[nodiscard]] bool expectTag(char t) noexcept {
    if (failed_ || at_ >= data_.size() || data_[at_] != t) {
      fail();
      return false;
    }
    ++at_;
    return true;
  }
  [[nodiscard]] std::uint64_t raw64() noexcept {
    if (failed_ || data_.size() - at_ < 8) {
      fail();
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[at_ + i]))
           << (8 * i);
    }
    at_ += 8;
    return v;
  }
  [[nodiscard]] std::uint64_t tagged64(char t) noexcept {
    if (!expectTag(t)) return 0;
    return raw64();
  }

  std::string_view data_;
  std::size_t at_ = 0;
  bool failed_ = false;
};

/// Lookup/publication counters of one DiskCache. `rejects` counts records
/// that existed but failed any validation step — framing, checksum,
/// version, key mismatch, or a payload its stage deserializer refused —
/// each of which degraded to a recompute. Unlike the in-memory hit/wait
/// split, `rejects` is determinism-relevant (a nonzero count means the
/// cache directory is damaged or version-skewed), so the CLIs surface it
/// on stderr unconditionally.
struct DiskCacheStats {
  std::uint64_t hits = 0;           ///< Valid record loaded.
  std::uint64_t misses = 0;         ///< No record on disk.
  std::uint64_t rejects = 0;        ///< Record present but invalid.
  std::uint64_t stores = 0;         ///< Records published.
  std::uint64_t storeFailures = 0;  ///< Best-effort writes that failed.
};

/// Content-addressed on-disk record store. Thread-safe: loads are
/// independent reads, stores publish atomically, counters are atomic.
/// All filesystem failures are absorbed into the stats — no method
/// throws on I/O problems.
class DiskCache {
 public:
  /// The directory is created lazily on first store; a missing or
  /// unreadable directory just makes every load a miss.
  explicit DiskCache(std::string dir);

  /// Returns the validated payload for (stage, key), or nullopt on
  /// miss/reject. Never throws; never returns a payload whose checksum
  /// did not verify.
  [[nodiscard]] std::optional<std::string> load(std::string_view stage,
                                                const StageKey& key);

  /// Publishes payload under (stage, key) via tmp-file + rename.
  /// Best-effort: failures only bump storeFailures.
  void store(std::string_view stage, const StageKey& key,
             std::string_view payload);

  /// Counted by core::ToolchainCache when a record passed the envelope
  /// validation but its stage payload failed to deserialize — the same
  /// "damaged cache" signal as a checksum mismatch, kept in one counter.
  void noteReject() noexcept {
    rejects_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }
  [[nodiscard]] DiskCacheStats stats() const noexcept;

  /// The exact on-disk path of one record (tests inject faults through
  /// this; the layout is <dir>/<stage>/<32-hex-key>.rec).
  [[nodiscard]] std::string recordPath(std::string_view stage,
                                       const StageKey& key) const;

 private:
  std::string dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> storeFailures_{0};
};

}  // namespace argo::support
