#include "recovery/journal.hpp"

#include <filesystem>

#include "recovery/crc32c.hpp"
#include "util/fileio.hpp"
#include "util/serde.hpp"

namespace tlc::recovery {
namespace {

constexpr std::uint32_t kJournalMagic = 0x544c434a;  // "TLCJ"
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::size_t kHeaderBytes = 8;
constexpr std::size_t kFrameOverhead = 8;  // len + crc
/// Upper bound on one frame's payload; a length field beyond this is
/// corruption, not a real record.
constexpr std::uint32_t kMaxPayload = 1u << 30;

// tlclint: codec(journal_header, encode, version=kJournalVersion)
Bytes header_bytes() {
  ByteWriter w;
  w.u32(kJournalMagic);
  w.u32(kJournalVersion);
  return w.take();
}

/// Walks `data`, streaming intact frames to `apply` (which may be
/// null). Returns stats; never fails past the header — everything
/// unparseable is the torn tail.
Expected<Journal::ReplayStats> scan(
    const Bytes& data, const std::function<void(const Bytes&)>* apply) {
  Journal::ReplayStats stats;
  if (data.size() < kHeaderBytes) {
    if (data.empty()) return stats;  // never created / fresh rotate
    return Err("journal: truncated header (" + std::to_string(data.size()) +
               " bytes)");
  }
  // tlclint: codec(journal_header, decode, version=kJournalVersion)
  ByteReader header(data);
  if (header.u32() != kJournalMagic) return Err("journal: bad magic");
  if (header.u32() != kJournalVersion) {
    return Err("journal: unsupported version");
  }
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameOverhead <= data.size()) {
    const std::uint32_t len = (std::uint32_t{data[pos]} << 24) |
                              (std::uint32_t{data[pos + 1]} << 16) |
                              (std::uint32_t{data[pos + 2]} << 8) |
                              std::uint32_t{data[pos + 3]};
    const std::uint32_t crc = (std::uint32_t{data[pos + 4]} << 24) |
                              (std::uint32_t{data[pos + 5]} << 16) |
                              (std::uint32_t{data[pos + 6]} << 8) |
                              std::uint32_t{data[pos + 7]};
    if (len > kMaxPayload) break;
    if (pos + kFrameOverhead + len > data.size()) break;  // short frame
    const std::uint8_t* payload = data.data() + pos + kFrameOverhead;
    if (crc32c_extend(0, payload, len) != crc) break;  // bit rot / torn
    if (apply != nullptr && *apply) {
      (*apply)(Bytes(payload, payload + len));
    }
    ++stats.records;
    pos += kFrameOverhead + len;
  }
  stats.valid_bytes = pos;
  stats.truncated_bytes = data.size() - pos;
  return stats;
}

}  // namespace

Expected<Journal> Journal::open(const std::string& path, CrashPlan* plan,
                                std::uint64_t scope) {
  Journal journal(path, plan, scope);
  if (util::file_exists(path)) {
    auto data = util::read_file(path);
    if (!data) return Err(data.error());
    auto stats = scan(*data, nullptr);
    if (!stats) return Err(stats.error());
    journal.recovery_stats_ = *stats;
    if (stats->truncated_bytes > 0) {
      std::error_code ec;
      std::filesystem::resize_file(path, stats->valid_bytes, ec);
      if (ec) {
        return Err("journal: cannot truncate torn tail of " + path + ": " +
                   ec.message());
      }
    }
    if (stats->valid_bytes == 0) {
      // Empty file (torn creation or fresh rotate): lay down a header.
      if (Status ok = util::write_file(path, header_bytes()); !ok.ok()) {
        return Err(ok.error());
      }
    }
  } else {
    if (Status ok = util::write_file(path, header_bytes()); !ok.ok()) {
      return Err(ok.error());
    }
  }
  journal.out_.open(path, std::ios::binary | std::ios::app);
  if (!journal.out_) return Err("journal: cannot open " + path + " for append");
  return journal;
}

Expected<Journal::ReplayStats> Journal::replay(
    const std::string& path, const std::function<void(const Bytes&)>& apply) {
  if (!util::file_exists(path)) return ReplayStats{};
  auto data = util::read_file(path);
  if (!data) return Err(data.error());
  return scan(*data, &apply);
}

Status Journal::write_raw(const std::uint8_t* data, std::size_t size) {
  out_.write(reinterpret_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  out_.flush();
  if (!out_) return Err("journal: write to " + path_ + " failed");
  return Status::Ok();
}

Status Journal::append(const Bytes& payload) {
  if (payload.size() > kMaxPayload) return Err("journal: payload too large");
  if (plan_ != nullptr) plan_->fire(kCrashJournalAppendPre, scope_);

  // Encode-only codec: scan() decodes the frame prefix with manual
  // byte shifts so a torn tail can never throw mid-parse.
  // tlclint: codec(journal_frame, encode, version=kJournalVersion)
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32c(payload));
  const Bytes& prefix = w.data();

  // Torn-write injection: leave half the frame on disk, then die. If
  // the handler unexpectedly returns, repair by completing the frame.
  const bool torn =
      plan_ != nullptr && plan_->pending(kCrashJournalAppendTorn, scope_);
  const std::size_t cut = torn ? payload.size() / 2 : payload.size();
  if (Status ok = write_raw(prefix.data(), prefix.size()); !ok.ok()) return ok;
  if (Status ok = write_raw(payload.data(), cut); !ok.ok()) return ok;
  if (plan_ != nullptr) plan_->fire(kCrashJournalAppendTorn, scope_);
  if (cut < payload.size()) {
    if (Status ok = write_raw(payload.data() + cut, payload.size() - cut);
        !ok.ok()) {
      return ok;
    }
  }

  ++appended_;
  if (plan_ != nullptr) plan_->fire(kCrashJournalAppendPost, scope_);
  return Status::Ok();
}

Status Journal::rotate() {
  out_.close();
  if (Status ok = util::write_file(path_, header_bytes()); !ok.ok()) return ok;
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) return Err("journal: cannot reopen " + path_ + " after rotate");
  appended_ = 0;
  return Status::Ok();
}

}  // namespace tlc::recovery
