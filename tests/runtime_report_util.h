// Runtime report comparison shared by the runtime, netplan and soak tests.
// Generated from the session counter list (runtime/session.h), so a new
// counter is compared everywhere the moment it is declared.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "runtime/controller.h"
#include "runtime/session.h"

namespace ruletris::testutil {

/// Every counter and every virtual-time histogram of `a` and `b` must be
/// equal. firmware_ms is wall clock and explicitly not compared.
inline void expect_totals_identical(const runtime::SessionTotals& a,
                                    const runtime::SessionTotals& b,
                                    const std::string& where) {
#define RULETRIS_EXPECT_COUNTER(name) \
  EXPECT_EQ(a.name, b.name) << where << ": " #name;
  RULETRIS_SESSION_COUNTERS(RULETRIS_EXPECT_COUNTER)
#undef RULETRIS_EXPECT_COUNTER
#define RULETRIS_EXPECT_HISTOGRAM(name)                   \
  if (std::string_view(#name) != "firmware_ms") {         \
    EXPECT_TRUE(a.name == b.name) << where << ": " #name; \
  }
  RULETRIS_SESSION_HISTOGRAMS(RULETRIS_EXPECT_HISTOGRAM)
#undef RULETRIS_EXPECT_HISTOGRAM
}

/// Everything in two runtime reports that must be bit-identical: between
/// thread counts, and between the shared-log and per-switch-log paths.
inline void expect_reports_identical(const runtime::RuntimeReport& a,
                                     const runtime::RuntimeReport& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  expect_totals_identical(a, b, "fleet");
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.epochs_applied(), b.epochs_applied());
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);  // exact: virtual time
  EXPECT_EQ(a.all_completed, b.all_completed);
  EXPECT_EQ(a.all_converged, b.all_converged);
  EXPECT_EQ(a.updates_per_s(), b.updates_per_s());
  EXPECT_EQ(a.entry_writes_per_epoch(), b.entry_writes_per_epoch());
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    const runtime::SessionStats& x = a.sessions[i];
    const runtime::SessionStats& y = b.sessions[i];
    const std::string where = "session " + std::to_string(i);
    expect_totals_identical(x, y, where);
    EXPECT_EQ(x.epochs, y.epochs) << where;
    EXPECT_TRUE(x.wire == y.wire) << where;
    EXPECT_EQ(x.makespan_ms, y.makespan_ms) << where;
    EXPECT_EQ(x.completed, y.completed) << where;
    EXPECT_EQ(x.converged, y.converged) << where;
    EXPECT_EQ(x.quarantined_end, y.quarantined_end) << where;
  }
}

}  // namespace ruletris::testutil
