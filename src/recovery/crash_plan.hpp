// Deterministic crash injection for the recovery subsystem.
//
// A CrashPlan is a seeded schedule of process-death (and wedge) events
// named at the instrumented boundaries of the durable-state machinery:
// journal appends, checkpoint writes, shard runs and settlement
// chunks. Instrumented code calls `fire(point, scope)` at each
// boundary; when the armed site matches, the plan invokes its handler
// — by default throwing CrashException / WedgeException, which tests
// and the fleet supervisor catch as "the process (or shard) died
// here". Nothing real-time or ambient is involved: a site is
// (point name, scope id, k-th hit), hit counters are kept per
// (point, scope) and reset at `begin_incarnation()`, so the same plan
// against the same workload crashes at exactly the same byte on every
// run and at every thread count (scopes partition concurrent callers:
// shard index for shard-side points, UE id for settlement points).
//
// The handler is injectable — tests keep the default throwing handler,
// while a standalone harness could install one that calls abort() to
// exercise real process death.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace tlc::recovery {

// ---------------------------------------------------------------------
// Crash-point taxonomy (DESIGN.md §11.3). Scope conventions:
//   journal/checkpoint points   scope = owner id (0 for the OFCS log,
//                               shard index for shard checkpoints)
//   shard points                scope = shard index
//   settle points               scope = slice index (chunk) or UE id
// ---------------------------------------------------------------------

/// Before a journal frame is written: the op is lost entirely.
inline constexpr const char* kCrashJournalAppendPre = "journal-append-pre";
/// Mid-frame: a torn tail is left on disk (replay must truncate it).
inline constexpr const char* kCrashJournalAppendTorn = "journal-append-torn";
/// After the frame is durable but before the in-memory apply.
inline constexpr const char* kCrashJournalAppendPost = "journal-append-post";
/// Before the checkpoint temp file is written.
inline constexpr const char* kCrashCheckpointPreWrite = "checkpoint-pre-write";
/// Temp file written, not yet renamed over the checkpoint.
inline constexpr const char* kCrashCheckpointPreRename =
    "checkpoint-pre-rename";
/// Checkpoint renamed into place, journal not yet rotated.
inline constexpr const char* kCrashCheckpointPostRename =
    "checkpoint-post-rename";
/// Inside a shard's cycle run (the shard worker dies mid-world).
inline constexpr const char* kCrashShardRun = "shard-run";
/// Shard wedge marker: the watchdog deadline fires instead of a crash.
inline constexpr const char* kCrashShardWedge = "shard-wedge";
/// At a settlement cycle boundary inside the runner (mid-negotiation).
inline constexpr const char* kCrashSettleCycle = "settle-cycle";
/// Settlement chunk computed, receipts not yet journaled.
inline constexpr const char* kCrashSettleChunkPre = "settle-chunk-pre";
/// Settlement chunk journaled, before the supervisor consumes it.
inline constexpr const char* kCrashSettleChunkPost = "settle-chunk-post";
/// Coded receiver holds an innovative packet it has not journaled yet
/// (§17.4): the packet dies with the process and its rank must be
/// re-earned by the resumed incarnation.
inline constexpr const char* kCrashCodedPacketPre = "coded-packet-pre";
/// Innovative packet journaled: the resumed incarnation replays it and
/// resumes the generation at the journaled rank.
inline constexpr const char* kCrashCodedPacketPost = "coded-packet-post";

/// Every instrumented point, for seeded plan generation.
[[nodiscard]] const std::vector<std::string>& crash_point_catalogue();

enum class CrashKind : std::uint8_t {
  Kill,   // simulated process death (CrashException)
  Wedge,  // simulated hang past the watchdog deadline (WedgeException)
};

struct CrashSite {
  std::string point;
  std::uint64_t scope = 0;
  /// Fires on the hit-th visit (0-based) of (point, scope) within the
  /// current incarnation.
  std::uint64_t hit = 0;
  CrashKind kind = CrashKind::Kill;
};

/// Thrown by the default handler on a Kill site. Deliberately not
/// derived from std::exception: nothing between the crash point and
/// the supervisor is allowed to swallow it by accident.
struct CrashException {
  CrashSite site;
};

/// Thrown by the default handler on a Wedge site; the supervisor's
/// watchdog treats it as a deadline overrun, not a death.
struct WedgeException {
  CrashSite site;
};

class CrashPlan {
 public:
  /// Receives the matched site; expected to not return normally (the
  /// default throws CrashException or WedgeException by kind).
  using Handler = std::function<void(const CrashSite&)>;

  CrashPlan();

  /// Queues a site. Sites fire strictly in arm order: the second site
  /// can only fire after the first has (so multi-crash plans model
  /// "crash, recover, crash again").
  void arm(CrashSite site);

  /// Seeded schedule: draws and arms `crashes` sites from the
  /// catalogue with scopes in [0, scopes) and hit indices in
  /// [0, max_hit). Some drawn sites may never be reached by a given
  /// workload — such a plan simply injects fewer crashes, which tests
  /// treat as a (valid) crash-free run. (A member rather than a
  /// factory: the mutex makes CrashPlan immovable.)
  void arm_seeded(std::uint64_t seed, int crashes, std::uint64_t scopes,
                  std::uint64_t max_hit = 3);

  void set_handler(Handler handler);

  /// Instrumented-code hook. Cheap when nothing is armed. When the
  /// front armed site matches (point, scope) at its hit count, pops it
  /// and invokes the handler (outside the internal lock).
  ///
  /// Once a Kill site fires, the incarnation is dying: every later
  /// fire() from any thread re-invokes the handler with the same site
  /// instead of matching armed sites. A dead process executes no
  /// boundaries — concurrent workers bail at their next instrumented
  /// point, no armed site is consumed by a race, and the crash
  /// schedule stays identical at every thread count.
  void fire(std::string_view point, std::uint64_t scope = 0);

  /// True when the *next* fire(point, scope) would trigger the front
  /// armed site. Lets instrumented code stage pre-crash damage (e.g. a
  /// deliberately torn journal frame) before calling fire().
  [[nodiscard]] bool pending(std::string_view point,
                             std::uint64_t scope = 0) const;

  /// A new process incarnation: resets per-(point, scope) hit counters
  /// so re-executed boundaries count from zero again and clears the
  /// dying flag. Armed sites that already fired stay retired.
  void begin_incarnation();

  [[nodiscard]] int crashes_fired() const;
  [[nodiscard]] std::size_t armed_remaining() const;

 private:
  using Key = std::pair<std::string, std::uint64_t>;

  mutable util::Mutex mu_;
  std::deque<CrashSite> armed_ TLC_GUARDED_BY(mu_);
  std::map<Key, std::uint64_t> hits_ TLC_GUARDED_BY(mu_);
  Handler handler_ TLC_GUARDED_BY(mu_);
  int fired_ TLC_GUARDED_BY(mu_) = 0;
  bool dying_ TLC_GUARDED_BY(mu_) = false;
  CrashSite dying_site_ TLC_GUARDED_BY(mu_);
};

}  // namespace tlc::recovery
