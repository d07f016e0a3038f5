#include "core/poc_store.hpp"

#include "crypto/hmac.hpp"
#include "recovery/crc32c.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/serde.hpp"

namespace tlc::core {
namespace {

constexpr std::uint32_t kStoreMagic = 0x544c4350;  // "TLCP"
// v2 added the per-entry CRC32C frame that makes salvage loads
// possible; v1 files (whole-file HMAC only) are no longer readable.
// v3 prefixed each entry with its PocKind so the archive can hold
// streaming-ingest batch PoCs (DESIGN.md §16) next to cycle receipts.
constexpr std::uint32_t kStoreVersion = 3;
constexpr std::size_t kTagBytes = 32;
/// Encoded size of the smallest archive entry: CRC, body length, then a
/// body of kind, t_start, t_end, c and an empty PoC's length; the entry
/// count is read through ByteReader::count() with it.
constexpr std::size_t kMinEncodedEntrySize = 4 + 4 + 1 + 8 + 8 + 8 + 4;

Bytes integrity_key() { return bytes_of("tlc-poc-store-integrity-v1"); }

// tlclint: codec(poc_entry, encode, version=kStoreVersion)
Bytes encode_entry_body(const PocStore::Entry& entry) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(entry.kind));
  w.i64(entry.plan.t_start);
  w.i64(entry.plan.t_end);
  w.f64(entry.plan.c);
  w.blob(entry.poc_wire);
  return w.take();
}

// tlclint: codec(poc_entry, decode, version=kStoreVersion)
Expected<PocStore::Entry> decode_entry_body(const Bytes& body) {
  ByteReader r(body);
  PocStore::Entry entry;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(PocKind::Batch)) {
    r.fail("poc store: unknown entry kind");
  }
  entry.kind = static_cast<PocKind>(kind);
  entry.plan.t_start = r.i64();
  entry.plan.t_end = r.i64();
  entry.plan.c = r.f64();
  entry.poc_wire = r.blob();
  if (!r.ok()) return r.error_or("poc store: truncated entry");
  if (!r.exhausted()) return Err("poc store: trailing entry bytes");
  return entry;
}

/// Reads the archive header; a damaged one latches on `r`.
void read_header(ByteReader& r) {
  if (r.u32() != kStoreMagic) r.fail("poc store: bad magic");
  if (r.u32() != kStoreVersion) r.fail("poc store: unsupported version");
}

}  // namespace

void PocStore::add(const PlanRef& plan, Bytes poc_wire) {
  add(PocKind::Cycle, plan, std::move(poc_wire));
}

void PocStore::add(PocKind kind, const PlanRef& plan, Bytes poc_wire) {
  if (log_ != nullptr) {
    // Idempotence key is (kind, cycle start / batch seq): re-adding a
    // recovered receipt after a crash is a no-op.
    if (find(kind, plan.t_start).has_value()) {
      ++duplicate_ops_dropped_;
      return;
    }
    const Bytes op = encode_entry_body(Entry{kind, plan, poc_wire});
    if (Status appended = log_->append(op); !appended.ok()) {
      if (recovery_error_.ok()) recovery_error_ = Err(appended.error());
      TLC_WARN("poc_store") << "journal append failed, add dropped: "
                            << appended.error();
      return;
    }
  }
  entries_.push_back(Entry{kind, plan, std::move(poc_wire)});
}

std::optional<PocStore::Entry> PocStore::find_cycle(SimTime t_start) const {
  return find(PocKind::Cycle, t_start);
}

std::optional<PocStore::Entry> PocStore::find(PocKind kind,
                                              SimTime t_start) const {
  for (const Entry& entry : entries_) {
    if (entry.kind == kind && entry.plan.t_start == t_start) return entry;
  }
  return std::nullopt;
}

std::uint64_t PocStore::stored_bytes() const {
  std::uint64_t total = 0;
  for (const Entry& entry : entries_) total += entry.poc_wire.size();
  return total;
}

// tlclint: codec(poc_archive, encode, version=kStoreVersion)
Bytes PocStore::serialize() const {
  ByteWriter w;
  w.u32(kStoreMagic);
  w.u32(kStoreVersion);
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (const Entry& entry : entries_) {
    const Bytes body = encode_entry_body(entry);
    w.u32(recovery::crc32c(body));
    w.blob(body);
  }
  Bytes data = w.take();
  const Bytes tag = crypto::hmac_sha256(integrity_key(), data);
  append(data, tag);
  return data;
}

// tlclint: codec(poc_archive, decode, version=kStoreVersion)
Expected<PocStore> PocStore::deserialize(const Bytes& data) {
  if (data.size() < kTagBytes) return Err("poc store: too short");
  const Bytes body(data.begin(), data.end() - kTagBytes);
  const Bytes tag(data.end() - kTagBytes, data.end());
  if (!constant_time_equal(tag, crypto::hmac_sha256(integrity_key(), body))) {
    return Err("poc store: integrity tag mismatch");
  }
  ByteReader r(body);
  read_header(r);
  PocStore store;
  store.entries_.resize(r.count(kMinEncodedEntrySize));
  for (Entry& entry : store.entries_) {
    const std::uint32_t crc = r.u32();
    const Bytes entry_body = r.blob();
    if (!r.ok()) break;
    if (recovery::crc32c(entry_body) != crc) {
      return Err("poc store: entry CRC mismatch");
    }
    auto decoded = decode_entry_body(entry_body);
    if (!decoded) return Err(decoded.error());
    entry = std::move(*decoded);
  }
  if (!r.ok()) return r.error_or("poc store: truncated archive");
  if (!r.exhausted()) return Err("poc store: trailing bytes");
  return store;
}

Status PocStore::save(const std::string& path) const {
  return util::write_file_atomic(path, serialize());
}

Expected<PocStore> PocStore::load(const std::string& path) {
  auto data = util::read_file(path);
  if (!data) return Err("poc store: " + data.error());
  return deserialize(*data);
}

// tlclint: codec(poc_archive, decode, version=kStoreVersion)
Expected<PocStore::Salvage> PocStore::load_salvage(const std::string& path) {
  auto data = util::read_file(path);
  if (!data) return Err("poc store: " + data.error());

  Salvage salvage;
  Bytes body = *data;
  if (data->size() >= kTagBytes) {
    const auto body_end =
        data->begin() + static_cast<std::ptrdiff_t>(data->size() - kTagBytes);
    body.assign(data->begin(), body_end);
    const Bytes tag(body_end, data->end());
    salvage.integrity_ok =
        constant_time_equal(tag, crypto::hmac_sha256(integrity_key(), body));
  }

  // Headers have no redundancy to salvage from — a damaged one is
  // still a hard error. Everything past it degrades per entry.
  ByteReader r(body);
  read_header(r);
  // Salvage counts what a truncation lost, so the entry count is read
  // raw: the loop below stops at the first short read.
  // tlclint: allow(wire-count) the skipped tail is counted, not read
  const std::uint32_t count = r.u32();
  if (!r.ok()) return r.error_or("poc store: truncated header");

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t crc = r.u32();
    const Bytes entry_body = r.blob();
    if (!r.ok()) {
      // Truncated mid-entry: the frame boundary is gone, so every
      // remaining entry is unrecoverable too.
      salvage.entries_skipped += count - i;
      break;
    }
    if (recovery::crc32c(entry_body) != crc) {
      ++salvage.entries_skipped;
      continue;
    }
    auto entry = decode_entry_body(entry_body);
    if (!entry) {
      ++salvage.entries_skipped;
      continue;
    }
    salvage.store.entries_.push_back(std::move(*entry));
  }
  if (salvage.entries_skipped > 0 || !salvage.integrity_ok) {
    TLC_WARN("poc_store") << "salvage load of " << path << ": kept "
                          << salvage.store.size() << " entries, skipped "
                          << salvage.entries_skipped << ", integrity "
                          << (salvage.integrity_ok ? "ok" : "BAD");
  }
  return salvage;
}

Status PocStore::attach_recovery(recovery::StateLog* log) {
  log_ = log;
  recovery_error_ = Status::Ok();
  duplicate_ops_dropped_ = 0;
  if (log == nullptr) return Status::Ok();

  auto recovered = log->recover();
  if (!recovered) return Err(recovered.error());
  entries_.clear();
  if (recovered->snapshot.has_value()) {
    auto store = deserialize(*recovered->snapshot);
    if (!store) return Err(store.error());
    entries_ = std::move(store->entries_);
  }
  for (const Bytes& op : recovered->ops) {
    auto entry = decode_entry_body(op);
    if (!entry) return Err(entry.error());
    if (find(entry->kind, entry->plan.t_start).has_value()) {
      ++duplicate_ops_dropped_;
      continue;
    }
    entries_.push_back(std::move(*entry));
  }
  return Status::Ok();
}

Status PocStore::checkpoint() {
  if (log_ == nullptr) return Err("poc store: checkpoint without log");
  return log_->checkpoint(serialize());
}

}  // namespace tlc::core
