#include "recovery/checkpoint.hpp"

#include <filesystem>

#include "recovery/crc32c.hpp"
#include "util/fileio.hpp"
#include "util/serde.hpp"

namespace tlc::recovery {
namespace {

constexpr std::uint32_t kCheckpointMagic = 0x544c434b;  // "TLCK"
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::size_t kCheckpointHeaderBytes = 16;

}  // namespace

Status write_checkpoint(const std::string& path, const Bytes& snapshot,
                        CrashPlan* plan, std::uint64_t scope) {
  if (plan != nullptr) plan->fire(kCrashCheckpointPreWrite, scope);

  // tlclint: codec(recovery_checkpoint, encode, version=kCheckpointVersion)
  ByteWriter w;
  w.u32(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u32(crc32c(snapshot));
  w.blob(snapshot);  // u32 payload_len + payload

  // The tmp-write / rename split is spelled out (rather than calling
  // util::write_file_atomic) so the pre-rename crash window is
  // injectable: a crash here must leave the previous checkpoint
  // untouched and the stale .tmp ignored.
  const std::string tmp = path + ".tmp";
  if (Status written = util::write_file(tmp, w.data()); !written.ok()) {
    return written;
  }
  if (plan != nullptr) plan->fire(kCrashCheckpointPreRename, scope);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Err("checkpoint: rename " + tmp + " -> " + path + " failed: " +
               ec.message());
  }
  if (plan != nullptr) plan->fire(kCrashCheckpointPostRename, scope);
  return Status::Ok();
}

Expected<Bytes> read_checkpoint(const std::string& path) {
  auto data = util::read_file(path);
  if (!data) return Err(data.error());
  if (data->size() < kCheckpointHeaderBytes) {
    return Err("checkpoint: truncated header in " + path);
  }
  // tlclint: codec(recovery_checkpoint, decode, version=kCheckpointVersion)
  ByteReader r(*data);
  if (r.u32() != kCheckpointMagic) r.fail("checkpoint: bad magic in " + path);
  if (r.u32() != kCheckpointVersion) {
    r.fail("checkpoint: unsupported version in " + path);
  }
  const std::uint32_t crc = r.u32();
  Bytes payload = r.blob();
  if (!r.ok()) return r.error_or("checkpoint: length mismatch in " + path);
  if (!r.exhausted()) return Err("checkpoint: length mismatch in " + path);
  if (crc32c(payload) != crc) {
    return Err("checkpoint: CRC mismatch in " + path);
  }
  return payload;
}

Expected<std::optional<Bytes>> read_checkpoint_if_present(
    const std::string& path) {
  if (!util::file_exists(path)) return std::optional<Bytes>{};
  auto payload = read_checkpoint(path);
  if (!payload) return Err(payload.error());
  return std::optional<Bytes>(std::move(*payload));
}

}  // namespace tlc::recovery
