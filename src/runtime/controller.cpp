#include "runtime/controller.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "proto/codec.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace ruletris::runtime {

std::shared_ptr<const EncodedLog> encode_log(
    const std::vector<proto::MessageBatch>& epoch_batches) {
  auto log = std::make_shared<EncodedLog>();
  log->reserve(epoch_batches.size());
  for (const proto::MessageBatch& batch : epoch_batches) {
    EncodedEpoch epoch;
    epoch.wire = std::make_shared<const proto::Bytes>(proto::encode_batch(batch));
    epoch.messages = batch.size();
    log->push_back(std::move(epoch));
  }
  return log;
}

RuntimeReport merge_session_stats(std::vector<SessionStats> results) {
  RuntimeReport report;
  report.sessions = std::move(results);
  for (const SessionStats& s : report.sessions) {
    report.add(s);
    report.epochs = std::max(report.epochs, s.epochs);
    report.makespan_ms = std::max(report.makespan_ms, s.makespan_ms);
    report.all_completed = report.all_completed && s.completed;
    report.all_converged = report.all_converged && s.converged;
  }
  return report;
}

SessionConfig fleet_session_config(const SessionKnobs& knobs,
                                   uint64_t fault_seed, size_t i,
                                   size_t tcam_capacity) {
  SessionConfig sc;
  sc.knobs = knobs;
  sc.seed = util::hash_pair(fault_seed, i + 1);
  sc.tcam_capacity = tcam_capacity;
  return sc;
}

FleetDriver::FleetDriver(size_t n_threads, size_t sessions)
    : workers_(std::max<size_t>(1, std::min(n_threads, sessions))) {
  if (workers_ > 1) pool_ = std::make_unique<util::ThreadPool>(workers_);
}

size_t FleetDriver::pump(const FleetSessions& sessions, uint64_t gate,
                         const std::function<void(size_t i)>& settled,
                         const std::function<bool(size_t worker)>& produce) {
  const size_t n = sessions.size();
  // Per-session claim state, one cache line each so the workers' try-locks
  // do not contend on neighbouring sessions.
  struct alignas(64) Claim {
    util::TryLock lock;
    std::atomic<bool> settled{false};
    size_t starved = 0;  // guarded by lock
    std::string error;   // guarded by lock
  };
  std::vector<Claim> claims(n);
  std::atomic<size_t> live{n};
  std::atomic<bool> failed{false};
  std::vector<std::string> produce_errors(workers_);  // one per worker

  // Pumps session i once; the caller holds its claim. True if the session
  // made progress or settled.
  auto pump_one = [&](size_t i) {
    Claim& claim = claims[i];
    if (claim.settled.load(std::memory_order_relaxed)) return false;
    try {
      SwitchSession& session = *sessions[i];
      const bool progress = session.pump(gate);
      if (!session.done() && !session.past_deadline() &&
          session.committed() < gate && (progress || produce)) {
        if (!progress) ++claim.starved;  // sealed horizon reached: go compile
        return progress;
      }
      if (settled) settled(i);
    } catch (const std::exception& e) {  // workers must not throw
      claim.error = e.what();
      failed.store(true, std::memory_order_relaxed);
    }
    claim.settled.store(true, std::memory_order_relaxed);
    live.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  };

  auto worker = [&](size_t w) {
    const size_t offset = (w * n) / workers_;
    while (live.load(std::memory_order_acquire) > 0 &&
           !failed.load(std::memory_order_relaxed)) {
      bool progress = false;
      for (size_t k = 0; k < n; ++k) {
        Claim& claim = claims[(offset + k) % n];
        if (claim.settled.load(std::memory_order_relaxed)) continue;
        if (!claim.lock.try_acquire()) continue;
        progress |= pump_one((offset + k) % n);
        claim.lock.release();
      }
      if (produce) {
        try {
          progress |= produce(w);
        } catch (const std::exception& e) {
          produce_errors[w] = e.what();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      if (progress) continue;
      // Without a producer nothing can unblock a session later: a sweep
      // that claimed nothing found every unsettled session held by a worker
      // that will sweep again, so this one retires.
      if (!produce) return;
      std::this_thread::yield();
    }
  };
  if (!pool_) {
    worker(0);
  } else {
    for (size_t w = 0; w < workers_; ++w) {
      pool_->run([&worker, w] { worker(w); });
    }
    pool_->wait_idle();
  }

  for (const std::string& error : produce_errors) {
    if (!error.empty()) throw std::runtime_error(error);
  }
  size_t starved = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!claims[i].error.empty()) {
      throw std::runtime_error("fleet session " + std::to_string(i) + ": " +
                               claims[i].error);
    }
    starved += claims[i].starved;
  }
  return starved;
}

RuntimeReport Controller::run(const std::vector<proto::MessageBatch>& epoch_batches,
                              const std::vector<flowspace::Rule>& expected) {
  // Encode each epoch once; every session, retransmit and latency charge
  // reuses the same immutable bytes.
  const std::shared_ptr<const EncodedLog> log = encode_log(epoch_batches);
  const size_t n = std::max<size_t>(cfg_.n_switches, 1);
  return run_fleet(
      std::vector<SwitchWorkload>(n, SwitchWorkload{log, expected}));
}

RuntimeReport Controller::run_fleet(const std::vector<SwitchWorkload>& fleet,
                                    const RoundObserver& between_rounds) {
  const size_t n = fleet.size();
  if (n == 0) return RuntimeReport{};
  const size_t epochs = fleet.front().log->size();
  if (between_rounds) {
    for (const SwitchWorkload& w : fleet) {
      if (w.log->size() != epochs) {
        throw std::invalid_argument("run_fleet: gated logs differ in length");
      }
    }
  }

  std::vector<VectorEpochSource> sources;
  sources.reserve(n);  // sessions keep references: no reallocation
  FleetSessions sessions(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t expected_n = fleet[i].expected.size();
    const size_t capacity = cfg_.tcam_capacity != 0
                                ? cfg_.tcam_capacity
                                : expected_n + expected_n / 8 + 128;
    sources.emplace_back(*fleet[i].log);
    sessions[i] = std::make_unique<SwitchSession>(
        fleet_session_config(cfg_.knobs, cfg_.fault_seed, i, capacity),
        sources.back());
  }

  FleetDriver driver(cfg_.n_threads, n);
  uint64_t gate = UINT64_MAX;
  if (between_rounds) {
    // Start every session under gate 0: the retry timer and the restart
    // schedule are posted before the first send.
    gate = 0;
    driver.pump(sessions, gate);
    while (gate < epochs) {
      driver.pump(sessions, ++gate);
      // Fleet barrier: the round ends when the slowest switch commits; every
      // clock parks there so the next round's sends share a common origin.
      double barrier = 0.0;
      bool all_committed = true;
      for (const auto& session : sessions) {
        barrier = std::max(barrier, session->now_ms());
        all_committed = all_committed && session->committed() >= gate &&
                        !session->past_deadline();
      }
      for (auto& session : sessions) session->advance_clock(barrier);
      if (!all_committed) break;  // a switch stalled or hit its deadline
      between_rounds(gate, barrier, sessions);
    }
  }
  // Free-running, this pass is the whole run; after gated rounds every
  // session has settled already, and the pass only finalizes them. Each
  // session is released on the worker that finalized it.
  std::vector<SessionStats> results(n);
  driver.pump(sessions, gate, [&](size_t i) {
    results[i] = sessions[i]->finalize(fleet[i].expected);
    sessions[i].reset();
  });
  return merge_session_stats(std::move(results));
}

}  // namespace ruletris::runtime
