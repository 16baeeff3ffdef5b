// Controller of the asynchronous runtime: N switch sessions, each driven by
// its own epoch log (the netplan planner projects different rules onto
// different switches), and the one fleet driver every multi-session run
// goes through — free-running, round-gated for the planner's barrier-fenced
// rounds, or fed by the sharded controller's compile shards. The shared-log
// run() is a thin wrapper: encode once, hand every switch the same
// immutable bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "flowspace/rule.h"
#include "proto/messages.h"
#include "runtime/config.h"
#include "runtime/session.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ruletris::runtime {

/// A switch's encoded epoch log. Encoding happens once per distinct log;
/// switches sharing a log share the bytes (retransmits and latency charges
/// all operate on the same immutable buffers).
using EncodedLog = std::vector<EncodedEpoch>;

/// Encodes each batch of `epoch_batches` exactly once.
std::shared_ptr<const EncodedLog> encode_log(
    const std::vector<proto::MessageBatch>& epoch_batches);

/// Per-switch fleet workload: the switch's own epoch log plus the rule set
/// its TCAM must converge to.
struct SwitchWorkload {
  std::shared_ptr<const EncodedLog> log;
  std::vector<flowspace::Rule> expected;
};

/// Fleet-level report: per-session stats plus merged aggregates (every
/// SessionTotals counter summed, every histogram merged). Histograms are
/// merged here, at report time — the sessions filled them without any
/// synchronization.
struct RuntimeReport : SessionTotals {
  std::vector<SessionStats> sessions;
  size_t epochs = 0;
  double makespan_ms = 0.0;  // max session makespan (virtual)
  bool all_completed = true;  // every session committed its whole log
  bool all_converged = true;

  /// Sum of per-session log lengths (== sessions * epochs when every switch
  /// replays the same log; per-switch logs may differ in length).
  size_t epochs_applied() const {
    size_t applied = 0;
    for (const SessionStats& s : sessions) applied += s.epochs;
    return applied;
  }

  /// Fleet update throughput in virtual time: committed epoch batches per
  /// second across every switch, over the slowest session's makespan.
  double updates_per_s() const {
    if (makespan_ms <= 0.0) return 0.0;
    return static_cast<double>(epochs_applied()) / (makespan_ms / 1000.0);
  }

  /// Average TCAM entry writes one committed epoch cost — the real,
  /// schedule-dependent charge behind the tcam_ms histogram (writes x
  /// 0.6 ms), not a flat per-update constant.
  double entry_writes_per_epoch() const {
    const size_t applied = epochs_applied();
    if (applied == 0) return 0.0;
    return static_cast<double>(entry_writes) / static_cast<double>(applied);
  }
};

/// Folds per-session stats into the merged fleet report (aggregate counters,
/// max makespan, histogram merges). Shared by Controller and by the sharded
/// controller, which produces its SessionStats via pipelined stepping.
RuntimeReport merge_session_stats(std::vector<SessionStats> results);

/// Live sessions of a fleet run, indexed like the fleet.
using FleetSessions = std::vector<std::unique_ptr<SwitchSession>>;

/// Session i's config: the fleet's shared knobs plus a fault stream of its
/// own, hash_pair(fault_seed, i + 1) — the fault behaviour of switch i never
/// depends on how many switches run or on scheduling.
SessionConfig fleet_session_config(const SessionKnobs& knobs,
                                   uint64_t fault_seed, size_t i,
                                   size_t tcam_capacity);

/// The fleet driver. pump() drives every session to `gate`
/// (SwitchSession::pump) on workers() = min(n_threads, sessions) workers,
/// one pool reused across calls; each worker sweeps every session, claiming
/// it with a try-lock, until all have *settled*: done, past the deadline,
/// committed through `gate`, or — without a producer — idle. `settled(i)`
/// runs on the worker that saw session i settle; the driver never touches
/// session i again, so the hook may release it. `produce(worker)`, when
/// set, runs after each sweep (the sharded controller compiles there) and
/// reports whether it made progress; a session pump without progress then
/// counts as starved instead of settling. Sessions share nothing mutable,
/// so the schedule never shows in a result. An error stops the run and is
/// rethrown: the producer's first, then the sessions' in index order.
class FleetDriver {
 public:
  FleetDriver(size_t n_threads, size_t sessions);

  size_t workers() const { return workers_; }

  /// Returns the number of starved pumps.
  size_t pump(const FleetSessions& sessions, uint64_t gate,
              const std::function<void(size_t i)>& settled = {},
              const std::function<bool(size_t worker)>& produce = {});

 private:
  size_t workers_;
  std::unique_ptr<util::ThreadPool> pool_;  // null with one worker
};

/// Called after each fleet-wide round barrier: `epoch` is the epoch every
/// switch just committed (1 = the first), `barrier_ms` the fleet clock the
/// round ended at. The sessions' live TCAMs are the mid-update observation
/// point (e.g. for a per-packet consistency audit).
using RoundObserver = std::function<void(size_t epoch, double barrier_ms,
                                         const FleetSessions& sessions)>;

/// Runs the fan-out half of the runtime. The controller encodes each epoch
/// batch exactly once (the encoded bytes are the unit both the channel
/// charge and the wire faults operate on), replicates the log to every
/// switch session — each session a private virtual-time event loop — and
/// merges the per-session reports. Sessions run on a FleetDriver with
/// cfg.n_threads workers; because they share nothing mutable and each
/// derives its own fault stream from (fault_seed, session index), the
/// report is bit-identical for every thread count.
class Controller {
 public:
  explicit Controller(const RuntimeConfig& cfg) : cfg_(cfg) {}

  /// `epoch_batches[0]` is epoch 1 (normally the initial table install);
  /// `expected` is the composed table every switch must converge to. All
  /// cfg.n_switches sessions replay the same encoded log.
  RuntimeReport run(const std::vector<proto::MessageBatch>& epoch_batches,
                    const std::vector<flowspace::Rule>& expected);

  /// Per-switch logs: session i replays fleet[i].log and must converge to
  /// fleet[i].expected. cfg.n_switches is ignored (the fleet size rules);
  /// cfg.tcam_capacity == 0 sizes each switch from its own expected set.
  ///
  /// Without an observer every session runs to completion independently.
  /// With one, the send window is *gated* into fleet-wide rounds: epoch e
  /// may not leave the controller until every switch has committed e - 1;
  /// after each round every clock parks at the slowest session's commit
  /// time (the barrier) and the observer runs. Rounds stop at the first
  /// epoch some switch fails to commit before its virtual deadline; the
  /// observer does not run for it. Round e must be the same epoch on
  /// every switch, so gated logs must all have the same length
  /// (std::invalid_argument otherwise).
  RuntimeReport run_fleet(const std::vector<SwitchWorkload>& fleet,
                          const RoundObserver& between_rounds = {});

 private:
  RuntimeConfig cfg_;
};

}  // namespace ruletris::runtime
