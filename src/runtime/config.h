// Configuration for the asynchronous control-plane runtime.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "proto/channel.h"

namespace ruletris::runtime {

/// Seeded fault mix applied per frame on the simulated wire, in both
/// directions (data frames and acks alike). Reordering emerges from delay
/// jitter: a delayed frame lands after frames that were sent later.
struct FaultSpec {
  double drop_p = 0.0;       // frame silently lost
  double duplicate_p = 0.0;  // frame delivered twice
  double delay_p = 0.0;      // frame delayed by uniform(0, delay_ms)
  double delay_ms = 0.0;
  /// Rough virtual-ms interval between switch-agent restarts (0 = never).
  /// A restart drops the agent's volatile reorder buffer and triggers the
  /// barrier-anchored resync path; applied TCAM state survives (hardware).
  double restart_every_ms = 0.0;
  /// Per-journaled-op probability that the agent's firmware crashes
  /// mid-transaction (mid move chain included). The torn TCAM persists
  /// until journal recovery runs on the agent's restart path.
  double crash_p = 0.0;
  /// Per-frame probability of a single-bit flip in transit. Corrupted data
  /// frames fail the codec CRC32 and are NACKed for retransmission;
  /// corrupted header-only frames (acks/resyncs/nacks) are discarded.
  double corrupt_p = 0.0;

  // Brownout: a periodic square wave on the drop rate. For the first
  // `brownout_duty` fraction of every `brownout_period_ms` window the wire
  // drops at `brownout_drop_p` instead of drop_p — the time-varying loss
  // the adaptive retry backoff is sized against. Virtual-time driven, so
  // the elevated windows are deterministic like every other fault.
  double brownout_drop_p = 0.0;
  double brownout_period_ms = 0.0;
  double brownout_duty = 0.0;

  /// Effective drop probability at virtual time `now_ms`.
  double drop_at(double now_ms) const {
    if (brownout_period_ms <= 0.0 || brownout_duty <= 0.0) return drop_p;
    const double phase =
        now_ms - brownout_period_ms * std::floor(now_ms / brownout_period_ms);
    return phase < brownout_period_ms * brownout_duty ? brownout_drop_p
                                                      : drop_p;
  }

  bool any() const {
    return drop_p > 0 || duplicate_p > 0 || delay_p > 0 ||
           restart_every_ms > 0 || crash_p > 0 || corrupt_p > 0 ||
           (brownout_period_ms > 0 && brownout_duty > 0 && brownout_drop_p > 0);
  }

  /// The default non-trivial mix used by `--fault-seed` and the soak test.
  static FaultSpec chaos() {
    FaultSpec f;
    f.drop_p = 0.12;
    f.duplicate_p = 0.10;
    f.delay_p = 0.25;
    f.delay_ms = 6.0;
    f.restart_every_ms = 400.0;
    return f;
  }

  /// chaos() plus firmware crashes and frame corruption — the full
  /// robustness gauntlet the recovery soak runs.
  static FaultSpec crashy() {
    FaultSpec f = chaos();
    f.crash_p = 0.002;
    f.corrupt_p = 0.05;
    return f;
  }

  /// crashy() plus periodic brownout windows where the wire swallows most
  /// frames — the chaos harness's wire profile.
  static FaultSpec brownout() {
    FaultSpec f = crashy();
    f.drop_p = 0.05;
    f.brownout_drop_p = 0.55;
    f.brownout_period_ms = 120.0;
    f.brownout_duty = 0.35;
    return f;
  }
};

/// Retransmission policy. Round 0 of a silent stretch always fires after
/// exactly `timeout_ms` — bit-identical to the historical fixed timer, so
/// fault-free virtual trajectories (and the committed fleet baselines) are
/// unchanged. From the second consecutive silent round on, the adaptive
/// path escalates the interval exponentially, scales it by a per-session
/// loss estimate, and applies seeded jitter so retransmit storms from many
/// sessions desynchronize (the escalation constants live in session.cpp).
/// All of it is a pure function of the session's seed and event sequence —
/// deterministic across thread counts.
struct RetryPolicy {
  double timeout_ms = 25.0;  // round-0 retransmit timer
  bool adaptive = true;      // escalate on consecutive silent rounds
  /// Consecutive silent rounds before the session quarantines the switch
  /// instead of retransmitting into a void. 0 = never quarantine.
  size_t quarantine_after = 0;
};

/// One window of agent unreachability (power loss, upgrade, line cut): the
/// wire still "delivers", but every frame landing inside the window is
/// gone, and the agent cannot speak. Virtual-time anchored, deterministic.
struct BlackoutWindow {
  double at_ms = 0.0;
  double duration_ms = 0.0;

  bool covers(double t) const { return t >= at_ms && t < at_ms + duration_ms; }
};

/// Session knobs shared verbatim by RuntimeConfig, FleetSpec and the
/// per-session SessionConfig — one struct so parameters like the retry
/// policy live in exactly one place instead of three hand-copied fields.
struct SessionKnobs {
  size_t window = 4;  // max unacked epochs in flight (>= 1)
  RetryPolicy retry;
  proto::ChannelModel channel;
  FaultSpec faults;
  /// Virtual-time budget: a session that has not drained its epoch log by
  /// then reports non-completion instead of looping. A safety net for
  /// pathological fault settings, not a tuning knob.
  double deadline_ms = 1e7;
};

/// Kills compile shard `shard` at the first epoch boundary where its
/// virtual compile clock reaches `at_vt_ms` — its in-memory engines are
/// lost and its unfinished switches are orphaned for adoption.
struct ShardKill {
  size_t shard = 0;
  double at_vt_ms = 0.0;
};

/// Takes switch `sw`'s agent off the network for a window of the session's
/// virtual clock.
struct AgentBlackout {
  size_t sw = 0;
  BlackoutWindow window;
};

/// Seeded fault schedule for a fleet run: which shards die when, which
/// agents go dark when. Virtual-time anchored on deterministic clocks, so a
/// chaos run is exactly as reproducible as a clean one.
struct ChaosSchedule {
  std::vector<ShardKill> shard_kills;
  std::vector<AgentBlackout> blackouts;

  bool any() const { return !shard_kills.empty() || !blackouts.empty(); }
};

/// Per-switch session parameters (the Controller derives one per session).
struct SessionConfig {
  SessionKnobs knobs;
  uint64_t seed = 1;  // fault/restart randomness for this session
  size_t tcam_capacity = 1024;
  /// Windows during which this switch's agent is unreachable (from the
  /// fleet ChaosSchedule; empty outside chaos runs).
  std::vector<BlackoutWindow> blackouts;
  /// Re-admission hook, run when a quarantined session's switch comes back
  /// (anchor = the agent's last applied epoch). The sharded controller
  /// verifies the warm-boot catch-up material here: frozen base image plus
  /// the hash-chained delta blobs up to the anchor. Returning false marks
  /// the re-admission failed (counted, fails convergence).
  std::function<bool(uint64_t anchor)> on_readmit;
};

struct RuntimeConfig {
  size_t n_switches = 8;
  /// Worker threads the session event loops are fanned across; <= 1 runs
  /// them serially. Results are bit-identical either way: sessions share
  /// nothing mutable, and each is deterministic given its own seed.
  size_t n_threads = 0;
  SessionKnobs knobs;
  uint64_t fault_seed = 1;   // base seed; session i derives an independent stream
  size_t tcam_capacity = 0;  // per-switch TCAM size; 0 = sized from the workload
};

}  // namespace ruletris::runtime
