// The library's one fan-out primitive.
//
// Every parallel phase — shard simulation, batch settlement over the
// in-process, stop-and-wait and RLNC settlers — runs through
// `parallel_for`, and no other code starts a thread. Callers keep their
// results thread-count independent the same way everywhere: body(i)
// writes only slot i of a pre-sized output, and the caller merges the
// slots in index order after the call returns.
#pragma once

#include <cstddef>
#include <functional>

namespace tlc::util {

/// Runs `body(i)` once for every i in [0, count) on up to `threads`
/// workers, the calling thread among them; with `threads <= 1` every
/// index runs inline, in order. Workers claim indices from a shared
/// counter. Once a body throws, no worker claims another index, and
/// after every worker has joined the first captured exception is
/// rethrown on the caller with its type intact — including types that
/// do not derive from std::exception, such as recovery::CrashException.
/// Which exception is "first" is a race; callers that need a
/// deterministic one get it from the thrower (CrashPlan replicates its
/// dying site to every later fire()).
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace tlc::util
