#include "runtime/controller.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

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

  auto session_config = [&](size_t i) {
    SessionConfig sc;
    sc.knobs = cfg_.knobs;
    // Independent per-session stream: the fault behaviour of switch i never
    // depends on how many switches run or on scheduling.
    sc.seed = util::hash_pair(cfg_.fault_seed, i + 1);
    const size_t expected_n = fleet[i].expected.size();
    sc.tcam_capacity = cfg_.tcam_capacity != 0
                           ? cfg_.tcam_capacity
                           : expected_n + expected_n / 8 + 128;
    return sc;
  };

  // Runs step(i) for every session, on the pool when there is one. Sessions
  // share nothing mutable, so the order jobs run in never shows in a result.
  std::unique_ptr<util::ThreadPool> pool;
  if (cfg_.n_threads > 1 && n > 1) {
    pool = std::make_unique<util::ThreadPool>(std::min(cfg_.n_threads, n));
  }
  std::vector<std::string> errors(n);
  auto for_each_session = [&](const auto& step) {
    auto guarded = [&](size_t i) {
      try {
        step(i);
      } catch (const std::exception& e) {  // pool jobs must not throw
        errors[i] = e.what();
      }
    };
    if (pool) {
      for (size_t i = 0; i < n; ++i) pool->run([&guarded, i] { guarded(i); });
      pool->wait_idle();
    } else {
      for (size_t i = 0; i < n; ++i) guarded(i);
    }
    for (const std::string& error : errors) {
      if (!error.empty()) throw std::runtime_error("runtime session: " + error);
    }
  };

  std::vector<SessionStats> results(n);
  if (!between_rounds) {
    for_each_session([&](size_t i) {
      SwitchSession session(session_config(i), *fleet[i].log);
      results[i] = session.run(fleet[i].expected);
    });
    return merge_session_stats(std::move(results));
  }

  FleetSessions sessions(n);
  for_each_session([&](size_t i) {
    sessions[i] =
        std::make_unique<SwitchSession>(session_config(i), *fleet[i].log);
    sessions[i]->set_send_limit(0);  // nothing leaves before the first gate
    sessions[i]->start();
  });
  std::vector<char> committed(n, 1);
  for (size_t epoch = 1; epoch <= epochs; ++epoch) {
    for_each_session([&](size_t i) {
      sessions[i]->set_send_limit(epoch);
      committed[i] = sessions[i]->run_until_committed(epoch) ? 1 : 0;
    });
    // Fleet barrier: the round ends when the slowest switch commits; every
    // clock parks there so the next round's sends share a common origin.
    double barrier = 0.0;
    for (const auto& session : sessions) {
      barrier = std::max(barrier, session->now_ms());
    }
    for (auto& session : sessions) session->advance_clock(barrier);
    if (std::find(committed.begin(), committed.end(), 0) != committed.end()) {
      break;  // a switch stalled or hit its deadline: the run is over
    }
    between_rounds(epoch, barrier, sessions);
  }
  for_each_session([&](size_t i) {
    results[i] = sessions[i]->finalize(fleet[i].expected);
  });
  return merge_session_stats(std::move(results));
}

}  // namespace ruletris::runtime
