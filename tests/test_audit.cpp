// Schedule-exploration + invariant-audit tests.
//
// Three layers:
//   1. Synthetic event streams drive the InvariantAuditor directly — these
//      run in every build and prove that broken schedules (skipped batch-flag
//      CAS, trapped worker on a core deque, oversized batches, bad status
//      transitions, parity breaks) are caught with a report naming the
//      invariant, the worker, and the offending transition.
//   2. The SchedulePerturber's decision streams are pure functions of
//      (seed, lane, index): replaying a seed replays the exact per-thread
//      hook-decision sequence.
//   3. With BATCHER_AUDIT compiled in, live schedulers are audited end to
//      end: stress scenarios stay invariant-clean across >=1000 distinct
//      seeded schedules, and a deliberately faulted build (batchify claiming
//      LAUNCHBATCH without the batch-flag CAS) is caught.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "audit/audit_session.hpp"
#include "audit/invariant_auditor.hpp"
#include "audit/schedule_perturber.hpp"
#include "ds/batched_counter.hpp"
#include "ds/batched_tree23.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"

namespace batcher {
namespace {

namespace hooks = rt::hooks;
using audit::AuditSession;
using audit::InvariantAuditor;
using audit::SchedulePerturber;
using hooks::HookEvent;
using hooks::HookPoint;
using rt::TaskKind;

// --- 1. Auditor vs synthetic schedules -------------------------------------

// A well-formed single-op protocol round trip on worker `w`.
std::vector<HookEvent> clean_round_trip(unsigned w, const void* dom) {
  return {
      {HookPoint::kBatchifyEnter, w, TaskKind::Core, TaskKind::Core, dom},
      {HookPoint::kStatusFreeToPending, w, TaskKind::Core, TaskKind::Core, dom},
      {HookPoint::kPop, w, TaskKind::Batch, TaskKind::Core, nullptr, 0},
      {HookPoint::kFlagCasWon, w, TaskKind::Core, TaskKind::Core, dom},
      {HookPoint::kLaunchEnter, w, TaskKind::Batch, TaskKind::Batch, dom},
      {HookPoint::kStatusPendingToExecuting, w, TaskKind::Batch,
       TaskKind::Batch, dom},
      {HookPoint::kBatchCollected, w, TaskKind::Batch, TaskKind::Batch, dom, 1},
      {HookPoint::kStatusExecutingToDone, w, TaskKind::Batch, TaskKind::Batch,
       dom},
      {HookPoint::kLaunchExit, w, TaskKind::Batch, TaskKind::Batch, dom, 1},
      {HookPoint::kStatusDoneToFree, w, TaskKind::Core, TaskKind::Core, dom},
      {HookPoint::kBatchifyExit, w, TaskKind::Core, TaskKind::Core, dom},
  };
}

TEST(AuditorSynthetic, CleanProtocolRoundTripHasNoViolations) {
  InvariantAuditor auditor(4);
  int dom = 0;
  for (unsigned w = 0; w < 4; ++w) {
    for (const HookEvent& ev : clean_round_trip(w, &dom)) auditor.on_event(ev);
  }
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  EXPECT_EQ(auditor.events_observed(), 4 * 11u);
}

TEST(AuditorSynthetic, SkippedBatchFlagCasIsCaught) {
  // The "broken build" schedule: LAUNCHBATCH entered without any kFlagCasWon,
  // exactly what a build that skips the batch-flag CAS produces.
  InvariantAuditor auditor(4);
  int dom = 0;
  auditor.on_event(
      {HookPoint::kBatchifyEnter, 2, TaskKind::Core, TaskKind::Core, &dom});
  auditor.on_event({HookPoint::kStatusFreeToPending, 2, TaskKind::Core,
                    TaskKind::Core, &dom});
  auditor.on_event(
      {HookPoint::kLaunchEnter, 2, TaskKind::Batch, TaskKind::Batch, &dom});
  ASSERT_FALSE(auditor.clean());
  const std::string report = auditor.report();
  EXPECT_NE(report.find("Invariant 1"), std::string::npos) << report;
  EXPECT_NE(report.find("CAS was skipped"), std::string::npos) << report;
  EXPECT_NE(report.find("worker 2"), std::string::npos) << report;
}

TEST(AuditorSynthetic, OverlappingFlagAcquisitionIsCaught) {
  InvariantAuditor auditor(4);
  int dom = 0;
  auditor.on_event(
      {HookPoint::kFlagCasWon, 0, TaskKind::Core, TaskKind::Core, &dom});
  auditor.on_event(
      {HookPoint::kFlagCasWon, 1, TaskKind::Core, TaskKind::Core, &dom});
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant,
            "Invariant 1 (one active batch)");
  EXPECT_EQ(auditor.violations()[0].worker, 1u);
}

TEST(AuditorSynthetic, TrappedWorkerTouchingCoreDequeIsCaught) {
  InvariantAuditor auditor(4);
  int dom = 0;
  auditor.on_event(
      {HookPoint::kBatchifyEnter, 1, TaskKind::Core, TaskKind::Core, &dom});
  // Fig. 3 says a trapped worker only executes batch work; popping or
  // stealing core is the violation.
  auditor.on_event(
      {HookPoint::kPop, 1, TaskKind::Core, TaskKind::Core, nullptr, 1});
  auditor.on_event(
      {HookPoint::kStealAttempt, 1, TaskKind::Core, TaskKind::Core, nullptr, 0});
  EXPECT_EQ(auditor.violation_count(), 2u);
  const std::string report = auditor.report();
  EXPECT_NE(report.find("trapped"), std::string::npos) << report;
  EXPECT_NE(report.find("worker 1"), std::string::npos) << report;
}

TEST(AuditorSynthetic, BatchContextCoreStealIsCaught) {
  InvariantAuditor auditor(4);
  auditor.on_event(
      {HookPoint::kStealAttempt, 3, TaskKind::Core, TaskKind::Batch, nullptr, 0});
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant,
            "Invariant 3 (core/batch deque separation)");
}

TEST(AuditorSynthetic, OversizedBatchIsCaught) {
  InvariantAuditor auditor(4);
  int dom = 0;
  auditor.on_event(
      {HookPoint::kFlagCasWon, 0, TaskKind::Core, TaskKind::Core, &dom});
  auditor.on_event(
      {HookPoint::kLaunchEnter, 0, TaskKind::Batch, TaskKind::Batch, &dom});
  auditor.on_event(
      {HookPoint::kBatchCollected, 0, TaskKind::Batch, TaskKind::Batch, &dom, 5});
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant,
            "Invariant 2 (batch size at most P)");
  EXPECT_NE(auditor.report().find("collected 5 ops but P = 4"),
            std::string::npos)
      << auditor.report();
}

TEST(AuditorSynthetic, IllegalStatusTransitionIsCaught) {
  InvariantAuditor auditor(4);
  int dom = 0;
  // pending -> done skips executing: the Fig. 3 machine must flag it (twice:
  // once for the bad edge, once for flipping to done outside a launch).
  auditor.on_event({HookPoint::kStatusFreeToPending, 0, TaskKind::Core,
                    TaskKind::Core, &dom});
  auditor.on_event({HookPoint::kStatusExecutingToDone, 0, TaskKind::Batch,
                    TaskKind::Batch, &dom});
  ASSERT_GE(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant,
            "Fig. 3 (trapped-worker status machine)");
  EXPECT_NE(auditor.report().find("pending->done"), std::string::npos)
      << auditor.report();
}

TEST(AuditorSynthetic, ExternalSlotsAreModelledApartFromWorkers) {
  // External slots (worker == kNoWorker, index in `value`) run the same
  // status machine in their own table: a pumped round trip and a revoke
  // round trip are clean, and the per-worker table never grows.
  InvariantAuditor auditor(2);
  int dom = 0;
  const unsigned kExt = hooks::kNoWorker;
  const std::vector<HookEvent> events = {
      {HookPoint::kStatusFreeToPending, kExt, TaskKind::Core, TaskKind::Core,
       &dom, 7},
      {HookPoint::kAnnouncePush, kExt, TaskKind::Core, TaskKind::Core, &dom,
       7},
      {HookPoint::kStatusFreeToPending, kExt, TaskKind::Core, TaskKind::Core,
       &dom, 2},
      {HookPoint::kStatusPendingToFree, kExt, TaskKind::Core, TaskKind::Core,
       &dom, 2},
      {HookPoint::kFlagCasWon, 0, TaskKind::Core, TaskKind::Core, &dom},
      {HookPoint::kLaunchEnter, 0, TaskKind::Batch, TaskKind::Batch, &dom},
      {HookPoint::kAnnounceClaim, 0, TaskKind::Batch, TaskKind::Batch, &dom},
      {HookPoint::kStatusPendingToExecuting, kExt, TaskKind::Batch,
       TaskKind::Batch, &dom, 7},
      {HookPoint::kBatchCollected, 0, TaskKind::Batch, TaskKind::Batch, &dom,
       1},
      {HookPoint::kStatusExecutingToDone, kExt, TaskKind::Batch,
       TaskKind::Batch, &dom, 7},
      {HookPoint::kLaunchExit, 0, TaskKind::Batch, TaskKind::Batch, &dom, 1},
      {HookPoint::kStatusDoneToFree, kExt, TaskKind::Core, TaskKind::Core,
       &dom, 7},
      // The revoked slot is re-armed by its owner.
      {HookPoint::kStatusFreeToPending, kExt, TaskKind::Core, TaskKind::Core,
       &dom, 2},
  };
  for (const HookEvent& ev : events) auditor.on_event(ev);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
  const std::string dump = auditor.state_dump();
  EXPECT_NE(dump.find("slots=[free free]"), std::string::npos) << dump;
  EXPECT_NE(dump.find("external=[free free pending free free free free "
                      "free]"),
            std::string::npos)
      << dump;

  // A claim outside any launch is still Invariant 1, named by slot.
  auditor.on_event({HookPoint::kStatusPendingToExecuting, kExt,
                    TaskKind::Batch, TaskKind::Batch, &dom, 2});
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant,
            "Invariant 1 (one active batch)");
  EXPECT_NE(auditor.report().find("external slot 2"), std::string::npos)
      << auditor.report();
  // A trapped worker's op can never be revoked.
  auditor.on_event({HookPoint::kStatusFreeToPending, 1, TaskKind::Core,
                    TaskKind::Core, &dom});
  auditor.on_event({HookPoint::kStatusPendingToFree, 1, TaskKind::Core,
                    TaskKind::Core, &dom});
  EXPECT_EQ(auditor.violation_count(), 2u);
}

TEST(AuditorSynthetic, DoubleSuspendedOpIsCaught) {
  InvariantAuditor auditor(4);
  int dom_a = 0, dom_b = 0;
  auditor.on_event(
      {HookPoint::kBatchifyEnter, 0, TaskKind::Core, TaskKind::Core, &dom_a});
  auditor.on_event(
      {HookPoint::kBatchifyEnter, 0, TaskKind::Core, TaskKind::Core, &dom_b});
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_NE(auditor.report().find("more than one suspended op"),
            std::string::npos)
      << auditor.report();
}

TEST(AuditorSynthetic, AlternatingStealParityBreakIsCaught) {
  InvariantAuditor auditor(4);
  auditor.on_event({HookPoint::kAlternatingSteal, 0, TaskKind::Core,
                    TaskKind::Core});
  auditor.on_event({HookPoint::kAlternatingSteal, 0, TaskKind::Batch,
                    TaskKind::Core});
  auditor.on_event({HookPoint::kAlternatingSteal, 0, TaskKind::Batch,
                    TaskKind::Core});
  ASSERT_EQ(auditor.violation_count(), 1u);
  EXPECT_EQ(auditor.violations()[0].invariant, "§4 (alternating-steal parity)");
}

TEST(AuditorSynthetic, ResetForgetsStateAndViolations) {
  InvariantAuditor auditor(4);
  int dom = 0;
  auditor.on_event(
      {HookPoint::kLaunchEnter, 0, TaskKind::Batch, TaskKind::Batch, &dom});
  ASSERT_FALSE(auditor.clean());
  auditor.reset();
  EXPECT_TRUE(auditor.clean());
  EXPECT_EQ(auditor.events_observed(), 0u);
  for (const HookEvent& ev : clean_round_trip(0, &dom)) auditor.on_event(ev);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --- 2. Perturber determinism / replay -------------------------------------

// Synthetic stream: any mix of events; content does not influence decisions,
// only their count does.
void feed_events(SchedulePerturber& p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p.on_event({HookPoint::kWorkerLoop, 0, TaskKind::Core, TaskKind::Core});
  }
}

TEST(PerturberReplay, SameSeedReplaysIdenticalDecisionSequence) {
  constexpr std::size_t kEvents = 4096;
  SchedulePerturber first(4, /*seed=*/1337);
  feed_events(first, kEvents);
  const std::vector<std::uint8_t> live = first.trace(4);  // non-worker lane
  ASSERT_EQ(live.size(), kEvents);

  SchedulePerturber replay(4, /*seed=*/1337);
  feed_events(replay, kEvents);
  EXPECT_EQ(replay.trace(4), live);
  EXPECT_EQ(replay.trace_fingerprint(), first.trace_fingerprint());

  // reseed() to the same seed restarts the identical stream.
  first.reseed(1337);
  feed_events(first, kEvents);
  EXPECT_EQ(first.trace(4), live);
}

TEST(PerturberReplay, DecisionStreamIsAPureFunctionOfSeedLaneIndex) {
  SchedulePerturber p(4, /*seed=*/42);
  feed_events(p, 1000);
  const auto& trace = p.trace(4);
  ASSERT_EQ(trace.size(), 1000u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], p.decision_at(42, 4, i)) << "index " << i;
  }
}

TEST(PerturberReplay, DifferentSeedsProduceDifferentSchedules) {
  SchedulePerturber a(4, 1);
  SchedulePerturber b(4, 2);
  feed_events(a, 4096);
  feed_events(b, 4096);
  EXPECT_NE(a.trace(4), b.trace(4));
  EXPECT_NE(a.trace_fingerprint(), b.trace_fingerprint());
}

TEST(PerturberReplay, PerturbationsActuallyOccur) {
  SchedulePerturber p(4, 7);
  feed_events(p, 4096);
  std::size_t yields = 0, spins = 0;
  for (std::uint8_t d : p.trace(4)) {
    yields += d == 1;
    spins += d == 2;
  }
  EXPECT_GT(yields, 0u);
  EXPECT_GT(spins, 0u);
}

// --- 3. Live audited schedules (requires BATCHER_AUDIT) ---------------------

#define REQUIRE_LIVE_HOOKS()                                              \
  do {                                                                    \
    if (!hooks::kEnabled)                                                 \
      GTEST_SKIP() << "built without BATCHER_AUDIT; no live hook stream"; \
  } while (0)

// Audited variant of the stress suite's irregular recursion.
std::int64_t irregular(std::uint64_t seed, int depth,
                       std::atomic<std::int64_t>& leaves) {
  if (depth <= 0) {
    leaves.fetch_add(1);
    return 1;
  }
  SplitMix64 mix(seed);
  const std::uint64_t a = mix.next();
  std::int64_t left = 0, right = 0;
  rt::parallel_invoke([&] { left = irregular(a, depth - 1, leaves); },
                      [&] { right = irregular(a ^ 0x9e37, depth - 2, leaves); });
  return left + right;
}

TEST(AuditedLive, CounterStormIsInvariantCleanAndTraceReplayable) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSeed = 99;
  AuditSession session(kWorkers, kSeed);
  session.install();
  {
    rt::Scheduler sched(kWorkers);
    ds::BatchedCounter counter(sched);
    sched.run([&] {
      rt::parallel_for(0, 256, [&](std::int64_t) { counter.increment(1); },
                       /*grain=*/1);
    });
    ASSERT_EQ(counter.value_unsafe(), 256);
  }
  session.uninstall();

  EXPECT_TRUE(session.auditor().clean()) << session.auditor().report();
  EXPECT_GT(session.auditor().events_observed(), 0u);

  // Replay contract on the live stream: every recorded decision equals the
  // pure function of (seed, lane, index) — rerunning a printed seed replays
  // each thread's exact hook-decision sequence.
  SchedulePerturber& p = session.perturber();
  for (unsigned lane = 0; lane <= kWorkers; ++lane) {
    const auto& trace = p.trace(lane);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(trace[i], p.decision_at(kSeed, lane, i))
          << "lane " << lane << " index " << i;
    }
  }
}

TEST(AuditedLive, StressScenariosStayClean) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 8;
  AuditSession session(kWorkers, 0xabcdef);
  session.install();
  {
    rt::Scheduler sched(kWorkers);
    ds::BatchedCounter counter(sched);
    ds::BatchedTree23 tree(sched);
    std::atomic<std::int64_t> leaves{0};
    sched.run([&] {
      rt::parallel_invoke(
          [&] { irregular(7, 10, leaves); },
          [&] {
            rt::parallel_for(0, 300, [&](std::int64_t i) {
              if (i % 2 == 0) {
                counter.increment(1);
              } else {
                tree.insert(i % 97);
              }
            });
          });
    });
    EXPECT_GT(leaves.load(), 0);
    EXPECT_EQ(counter.value_unsafe(), 150);
    EXPECT_TRUE(tree.check_invariants());
  }
  session.uninstall();
  EXPECT_TRUE(session.auditor().clean()) << session.auditor().report();
}

TEST(AuditedLive, SweepObservesThousandDistinctSchedulesCleanly) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSeeds = 1100;

  // Light perturbation keeps the sweep fast while still forcing distinct
  // interleavings per seed.
  SchedulePerturber::Options opts;
  opts.yield_one_in = 96;
  opts.pause_one_in = 8;
  opts.max_pause_spins = 32;

  AuditSession session(kWorkers, 0, opts);
  session.install();

  std::unordered_set<std::uint64_t> fingerprints;
  std::uint64_t schedules_audited = 0;
  std::uint64_t total_events = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    session.reseed(seed);
    {
      rt::Scheduler sched(kWorkers);
      // Rotate the batch-setup policy so the sweep audits the announce-list
      // protocol (§11) as well as both Fig. 4 scan variants.
      const Batcher::SetupPolicy policy =
          seed % 2 == 0 ? Batcher::SetupPolicy::Announce
                        : (seed % 4 == 1 ? Batcher::SetupPolicy::Sequential
                                         : Batcher::SetupPolicy::Parallel);
      ds::BatchedCounter counter(sched, 0, policy);
      switch (seed % 3) {
        case 0:
          sched.run([&] {
            rt::parallel_for(0, 48,
                             [&](std::int64_t) { counter.increment(1); },
                             /*grain=*/1);
          });
          ASSERT_EQ(counter.value_unsafe(), 48);
          break;
        case 1:
          sched.run([&] {
            rt::parallel_for(0, 8, [&](std::int64_t) {
              rt::parallel_for(0, 6,
                               [&](std::int64_t) { counter.increment(1); },
                               /*grain=*/1);
            },
                             /*grain=*/1);
          });
          ASSERT_EQ(counter.value_unsafe(), 48);
          break;
        default: {
          std::atomic<std::int64_t> leaves{0};
          sched.run([&] { irregular(seed, 6, leaves); });
          ASSERT_GT(leaves.load(), 0);
          break;
        }
      }
    }  // scheduler destroyed: hook stream quiescent, traces readable

    ASSERT_TRUE(session.auditor().clean())
        << "seed " << seed << " (replay with this seed)\n"
        << session.auditor().report();
    total_events += session.auditor().events_observed();
    fingerprints.insert(session.perturber().trace_fingerprint());
    ++schedules_audited;
  }
  session.uninstall();

  EXPECT_GE(schedules_audited, 1000u);
  EXPECT_GE(fingerprints.size(), 1000u)
      << "seeded schedules were not distinct enough";
  EXPECT_GT(total_events, schedules_audited);  // hooks actually fired
}

TEST(AuditedLive, FaultedBuildSkippingBatchFlagCasIsCaught) {
  REQUIRE_LIVE_HOOKS();
#if BATCHER_AUDIT
  constexpr unsigned kWorkers = 4;
  AuditSession session(kWorkers, 5);
  session.install();
  hooks::test_faults().skip_batch_flag_cas.store(true,
                                                 std::memory_order_relaxed);
  {
    rt::Scheduler sched(kWorkers);
    ds::BatchedCounter counter(sched);
    sched.run([&] {
      rt::parallel_for(0, 64, [&](std::int64_t) { counter.increment(1); },
                       /*grain=*/1);
    });
    // The fault only suppresses the CAS *event*; execution stays correct.
    EXPECT_EQ(counter.value_unsafe(), 64);
  }
  hooks::test_faults().skip_batch_flag_cas.store(false,
                                                 std::memory_order_relaxed);
  session.uninstall();

  ASSERT_FALSE(session.auditor().clean())
      << "auditor failed to catch the skipped batch-flag CAS";
  const std::string report = session.auditor().report();
  EXPECT_NE(report.find("Invariant 1"), std::string::npos) << report;
  EXPECT_NE(report.find("CAS was skipped"), std::string::npos) << report;
#endif
}

}  // namespace
}  // namespace batcher
