// A damaged shard checkpoint is an error, never an allocation sized by
// the damage.
//
// Each case plants a CRC-valid `shard-0.ckpt` whose payload claims a
// count far beyond the bytes that follow: the record count, one
// record's cycle count, its outcome count, or its uncharged-sample
// count. The supervisor must return an `Err` for every one instead of
// reserving billions of entries and throwing `std::bad_alloc`.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "epc/spgw.hpp"
#include "fleet/supervisor.hpp"
#include "recovery/checkpoint.hpp"
#include "util/serde.hpp"

namespace tlc::fleet {
namespace {

constexpr std::uint8_t kShardRecordVersion = 2;
constexpr std::uint32_t kHuge = 0xffffffffu;

/// Where the count that claims `kHuge` entries sits in the one record.
enum class HugeField { Cycles, Outcomes, Uncharged };

/// Version, a record count of one, then a record whose `field` count
/// is `kHuge` and whose other counts are zero, cut off right after it.
Bytes one_record_claiming(HugeField field) {
  ByteWriter w;
  w.u8(kShardRecordVersion);
  w.u32(1);
  w.u64(0);                   // ue_index
  w.u64(310170000000000ull);  // imsi
  w.u8(0);                    // app
  w.f64(-90.0);               // mean_rss_dbm
  w.f64(0.0);                 // disconnect_ratio
  w.f64(0.0);                 // mobility_speed_mps
  w.u64(1);                   // member seed
  w.u32(field == HugeField::Cycles ? kHuge : 0);
  if (field == HugeField::Cycles) return w.take();
  if (field == HugeField::Outcomes) {
    w.u32(1);  // one scheme
    w.u8(0);
    w.u32(kHuge);
    return w.take();
  }
  w.u32(0);  // no schemes
  w.u8(0);   // adversary kind
  const epc::AnomalyCounters counters;
  const std::size_t words =
      counters.protocol_bytes.size() + counters.qci_bytes.size() + 7;
  for (std::size_t i = 0; i < words; ++i) w.u64(0);
  w.u32(0);  // flags
  w.u32(kHuge);
  return w.take();
}

Expected<SupervisedResult> run_over_planted(const std::string& tag,
                                            const Bytes& payload) {
  SupervisorConfig config;
  config.fleet.base.cycle_length = 5 * kSecond;
  config.fleet.base.cycles = 1;
  config.fleet.ue_count = 2;
  config.fleet.shards = 1;
  config.fleet.threads = 1;
  config.fleet.rsa_bits = 512;
  config.state_dir = ::testing::TempDir() + "/sup_ckpt_" + tag;
  std::filesystem::remove_all(config.state_dir);
  std::filesystem::create_directories(config.state_dir);
  const Status planted = recovery::write_checkpoint(
      config.state_dir + "/shard-0.ckpt", payload);
  EXPECT_TRUE(planted.ok()) << planted.error();
  return run_supervised_fleet(config);
}

TEST(SupervisorCheckpointTest, HugeRecordCountIsAnError) {
  const Bytes payload = {kShardRecordVersion, 0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(run_over_planted("records", payload).has_value());
}

TEST(SupervisorCheckpointTest, HugeCycleCountIsAnError) {
  EXPECT_FALSE(
      run_over_planted("cycles", one_record_claiming(HugeField::Cycles))
          .has_value());
}

TEST(SupervisorCheckpointTest, HugeOutcomeCountIsAnError) {
  EXPECT_FALSE(
      run_over_planted("outcomes", one_record_claiming(HugeField::Outcomes))
          .has_value());
}

TEST(SupervisorCheckpointTest, HugeUnchargedCountIsAnError) {
  EXPECT_FALSE(
      run_over_planted("uncharged", one_record_claiming(HugeField::Uncharged))
          .has_value());
}

}  // namespace
}  // namespace tlc::fleet
