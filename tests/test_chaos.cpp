// Chaos suite (DESIGN.md §13): the seeded FaultSchedule engine, the
// StallWatchdog escalation seam, and the acceptance sweeps for the
// deadline-aware, overload-shedding ExternalDomain.
//
// Registered under a "chaos/" prefix so `ctest -R chaos` runs exactly this
// suite (the CI chaos job runs it under ASan; the tsan job's regex includes
// it too).  Layers:
//
//   1. FaultSchedule unit behaviour — deterministic expansion of a seed into
//      a sorted action schedule, exactly-once firing at event counts, wedge
//      flags.  Driven by synthetic events, so these run in every build.
//   2. Escalation — a wedged domain detected through the stall_probe →
//      StallWatchdog::check_now() → escalation handler → quarantine path
//      unblocks every submitter through legal slot edges.
//   3. Acceptance sweeps (live hooks, BATCHER_AUDIT builds): 500+ seeds of
//      FaultSchedule chaos over the external ingress path, the three-way
//      revoke race, and the multi-domain perturbed sweep.  Every seed must
//      end with zero auditor violations, a quiet watchdog, and the
//      ops_served == ops_succeeded + ops_failed + ops_timed_out identity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_session.hpp"
#include "audit/fault_schedule.hpp"
#include "audit/stall_watchdog.hpp"
#include "batcher/external.hpp"
#include "ds/batched_counter.hpp"
#include "ds/batched_hashmap.hpp"
#include "ds/batched_pq.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "service/shard_router.hpp"

namespace batcher {
namespace {

namespace hooks = rt::hooks;
using audit::AuditSession;
using audit::FaultAction;
using audit::FaultKind;
using audit::FaultSchedule;
using audit::SchedulePerturber;
using audit::StallReport;
using audit::StallWatchdog;
using hooks::HookEvent;
using hooks::HookPoint;
using rt::TaskKind;

#define REQUIRE_LIVE_HOOKS()                                              \
  do {                                                                    \
    if (!hooks::kEnabled)                                                 \
      GTEST_SKIP() << "built without BATCHER_AUDIT; no live hook stream"; \
  } while (0)

HookEvent synthetic_event(unsigned w) {
  return {HookPoint::kPop, w, TaskKind::Batch, TaskKind::Core, nullptr, 0};
}

// --- 1. FaultSchedule unit behaviour ----------------------------------------

TEST(FaultScheduleTest, SeedExpandsDeterministicallyIntoSortedSchedule) {
  FaultSchedule a(123);
  FaultSchedule b(123);
  ASSERT_EQ(a.actions().size(), b.actions().size());
  ASSERT_GE(a.actions().size(), 1u);
  ASSERT_LE(a.actions().size(), 4u);  // default max_actions
  for (std::size_t i = 0; i < a.actions().size(); ++i) {
    EXPECT_EQ(static_cast<int>(a.actions()[i].kind),
              static_cast<int>(b.actions()[i].kind));
    EXPECT_EQ(a.actions()[i].at_event, b.actions()[i].at_event);
    EXPECT_EQ(a.actions()[i].magnitude, b.actions()[i].magnitude);
    if (i > 0) {
      EXPECT_GE(a.actions()[i].at_event, a.actions()[i - 1].at_event);
    }
  }
  // reseed() reproduces the same schedule the constructor denoted.
  a.reseed(123);
  ASSERT_EQ(a.actions().size(), b.actions().size());
  EXPECT_EQ(a.actions().front().at_event, b.actions().front().at_event);

  // Different seeds denote different schedules (somewhere in a small range).
  bool any_differs = false;
  for (std::uint64_t seed = 124; seed < 132 && !any_differs; ++seed) {
    FaultSchedule c(seed);
    any_differs = c.actions().size() != b.actions().size() ||
                  c.actions().front().at_event != b.actions().front().at_event;
  }
  EXPECT_TRUE(any_differs);

  const std::string desc = a.describe();
  EXPECT_NE(desc.find("FaultSchedule(seed=123)"), std::string::npos) << desc;
  EXPECT_NE(desc.find(audit::fault_kind_name(a.actions().front().kind)),
            std::string::npos)
      << desc;
}

TEST(FaultScheduleTest, DelayActionsFireExactlyOnceAtTheirEventCounts) {
  FaultSchedule::Options o;
  o.enable_throw_in_bop = false;
  o.enable_bad_alloc = false;  // delay-only menu: firing is a harmless spin
  o.horizon_events = 64;
  o.max_delay_spins = 4;
  FaultSchedule fs(9, o);
  ASSERT_GE(fs.actions().size(), 1u);
  for (const FaultAction& a : fs.actions()) {
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(FaultKind::kDelay));
    ASSERT_GE(a.at_event, 1u);
    ASSERT_LE(a.at_event, 64u);
    ASSERT_GE(a.magnitude, 1u);
    ASSERT_LE(a.magnitude, 4u);
  }
  // Feed events one at a time: fired_count() rises exactly when the count
  // crosses an action's at_event, never before, never twice.
  std::size_t expected_fired = 0;
  for (std::uint64_t n = 1; n <= 64; ++n) {
    fs.on_event(synthetic_event(0));
    while (expected_fired < fs.actions().size() &&
           fs.actions()[expected_fired].at_event <= n) {
      ++expected_fired;
    }
    ASSERT_EQ(fs.fired_count(), expected_fired) << "event " << n;
  }
  EXPECT_EQ(fs.events_observed(), 64u);
  EXPECT_EQ(fs.fired_count(), fs.actions().size());
  EXPECT_NE(fs.describe().find("[fired]"), std::string::npos);
}

TEST(FaultScheduleTest, WedgeActionMarksExactlyTheDrawnTid) {
  FaultSchedule::Options o;
  o.enable_throw_in_bop = false;
  o.enable_delay = false;
  o.enable_bad_alloc = false;
  o.external_tids = 3;  // wedge-only menu
  o.horizon_events = 32;
  FaultSchedule fs(5, o);
  ASSERT_GE(fs.actions().size(), 1u);
  EXPECT_FALSE(fs.external_wedged(0));
  EXPECT_FALSE(fs.external_wedged(1));
  EXPECT_FALSE(fs.external_wedged(2));
  for (int i = 0; i < 32; ++i) fs.on_event(synthetic_event(0));
  EXPECT_EQ(fs.fired_count(), fs.actions().size());
  for (const FaultAction& a : fs.actions()) {
    ASSERT_LT(a.magnitude, 3u);
    EXPECT_TRUE(fs.external_wedged(a.magnitude));
  }
  EXPECT_FALSE(fs.external_wedged(99));  // out of range: never wedged
  fs.reseed(5);
  EXPECT_FALSE(fs.external_wedged(fs.actions().front().magnitude));
}

// --- 2. Watchdog escalation & quarantine ------------------------------------

TEST(Escalation, StallProbeEscalatesAndQuarantineUnblocksSubmitter) {
  // A wedged pump never claims.  The blocked submitter itself detects the
  // stall — its stall_probe calls StallWatchdog::check_now(), the wall
  // budget trips, and the escalation handler quarantines the domain, failing
  // the pending record through legal slot edges.  The submitter unblocks
  // with DomainQuarantined without any pump ever running.
  rt::Scheduler sched(2);
  ds::BatchedCounter counter(sched);

  StallWatchdog::Options wopt;
  wopt.wall_budget_ms = 1;
  StallWatchdog wd(2, wopt);

  ExternalDomain* domain_ptr = nullptr;
  std::atomic<int> escalations{0};
  wd.set_escalation_handler([&](const StallReport& report) {
    escalations.fetch_add(1, std::memory_order_relaxed);
    EXPECT_FALSE(report.what.empty());
    domain_ptr->quarantine();
  });

  ExternalDomain::Options dopt;
  dopt.stall_probe = [&] { wd.check_now(); };
  ExternalDomain domain(sched, counter, 1, dopt);
  domain_ptr = &domain;

  // Synthesize the wedged-launch evidence (a flag acquired and never
  // released); in audited runs the live hook stream provides this.
  wd.on_event({HookPoint::kFlagCasWon, 0, TaskKind::Core, TaskKind::Core,
               &domain});

  ds::BatchedCounter::Op op;
  op.delta = 1;
  EXPECT_THROW(domain.submit(0, op), DomainQuarantined);
  EXPECT_TRUE(domain.quarantined());
  EXPECT_TRUE(domain.closed());
  EXPECT_EQ(escalations.load(), 1);  // flagged once per episode
  EXPECT_TRUE(wd.stalled());
  EXPECT_EQ(domain.ops_failed(), 1u);
  EXPECT_EQ(domain.ops_served(), 1u);
  EXPECT_EQ(counter.value_unsafe(), 0);

  // Quarantined beats closed in the refusal path too.
  EXPECT_THROW(domain.submit(0, op), DomainQuarantined);
}

TEST(Escalation, QuarantineFailClaimedFailsRecordsOfAWedgedPump) {
  // The op is already claimed (Executing) when the pump wedges inside the
  // BOP: plain quarantine cannot touch it (that edge belongs to the pump),
  // but quarantine(fail_claimed=true) — the wedged-pump last resort — flips
  // it to Done-with-error and the submitter unblocks.
  rt::Scheduler sched(2);
  struct Wedge final : BatchedStructure {
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    void run_batch(OpRecordBase* const* /*ops*/, std::size_t /*n*/) override {
      entered.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  } wedge;
  ExternalDomain domain(sched, wedge, 1);

  // The record outlives every party (the wedged BOP still holds a pointer
  // to it after the submitter has been failed out).
  ds::BatchedCounter::Op op;
  op.delta = 1;
  std::atomic<bool> submitter_unblocked{false};
  std::thread submitter([&] {
    EXPECT_THROW(domain.submit(0, op), DomainQuarantined);
    submitter_unblocked.store(true, std::memory_order_release);
  });
  std::thread rescuer([&] {
    while (!wedge.entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    domain.quarantine(/*fail_claimed=*/true);
    while (!submitter_unblocked.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    wedge.release.store(true, std::memory_order_release);  // un-wedge the pump
  });
  sched.run([&] { domain.serve(); });
  submitter.join();
  rescuer.join();
  EXPECT_TRUE(submitter_unblocked.load());
  EXPECT_EQ(domain.ops_failed(), 1u);
  EXPECT_EQ(domain.ops_served(), 1u);
}

// --- 3. Acceptance sweeps (live hooks) --------------------------------------

// Forwards each event to the audit stack first (model before shake), then to
// the fault engine, so injected faults land on an already-consistent model.
struct ChaosObserver final : hooks::ScheduleObserver {
  AuditSession* session;
  FaultSchedule* faults;
  void on_event(const HookEvent& event) override {
    session->on_event(event);
    faults->on_event(event);
  }
};

SchedulePerturber::Options sweep_perturbation() {
  SchedulePerturber::Options opts;
  opts.yield_one_in = 96;
  opts.pause_one_in = 8;
  opts.max_pause_spins = 32;
  return opts;
}

// The acceptance sweep: 500+ seeds, each denoting a replayable schedule of
// faults (throw-in-BOP, delays, bad_alloc, wedged clients) over the external
// ingress path.  Every seed must terminate (no hang), keep the protocol
// invariant-clean, keep the watchdog quiet, and resolve every published op
// exactly once.  hooks::test_faults() exists only in BATCHER_AUDIT builds.
#if BATCHER_AUDIT
TEST(ChaosSweep, FaultScheduleSweepNeverHangsNeverLeaksOps) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSeeds = 520;
  constexpr std::size_t kClients = 3;
  constexpr int kOpsPerClient = 12;

  AuditSession session(kWorkers, 0, sweep_perturbation());
  FaultSchedule::Options fopt;
  fopt.horizon_events = 1500;  // within a small storm's event volume
  fopt.external_tids = kClients;
  FaultSchedule faults(0, fopt);
  ChaosObserver observer;
  observer.session = &session;
  observer.faults = &faults;
  hooks::install_observer(&observer);

  std::uint64_t total_fired = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    session.reseed(seed);
    faults.reseed(seed);
    hooks::test_faults().reset();

    std::uint64_t succeeded = 0;
    bool saw_bad_alloc = false;
    std::int64_t counter_value = 0;
    ExternalStats st;
    {
      rt::Scheduler sched(kWorkers);
      ds::BatchedCounter counter(sched);
      ExternalDomain::Options dopt;
      dopt.shed_threshold = kClients;
      ExternalDomain domain(sched, counter, kClients, dopt);

      std::atomic<std::uint64_t> ok{0};
      std::atomic<bool> bad_alloc_seen{false};
      std::atomic<std::size_t> finished{0};
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (int i = 0; i < kOpsPerClient; ++i) {
            // A fired wedge-external(t) silences this client: it stops
            // submitting and the others must shut down around its absence.
            if (faults.external_wedged(t)) break;
            ds::BatchedCounter::Op op;
            op.delta = 1;
            try {
              switch ((static_cast<int>(t) + i) % 4) {
                case 0:
                  domain.submit(t, op);
                  break;
                case 1:
                  domain.submit_until(t, op,
                                      std::chrono::steady_clock::now() +
                                          std::chrono::microseconds(500));
                  break;
                case 2:
                  domain.try_submit(t, op);
                  break;
                default: {
                  RetryPolicy policy;
                  policy.seed = seed;
                  policy.max_retries = 2;
                  policy.base_spins = 16;
                  domain.submit_with_retry(t, op, policy);
                  break;
                }
              }
              ok.fetch_add(1, std::memory_order_relaxed);
            } catch (const OpTimedOut&) {
            } catch (const DomainOverloaded&) {
            } catch (const DomainClosed&) {
              break;  // includes DomainQuarantined
            } catch (const hooks::InjectedFault&) {
            } catch (const std::bad_alloc&) {
              bad_alloc_seen.store(true, std::memory_order_relaxed);
            }
          }
          if (finished.fetch_add(1) + 1 == kClients) domain.shutdown();
        });
      }
      try {
        sched.run([&] { domain.serve(); });
      } catch (...) {
        // An allocation fault can surface from the run itself (e.g. the
        // root frame); the domain must still unblock every submitter.
        domain.quarantine();
      }
      for (auto& th : clients) th.join();
      succeeded = ok.load();
      saw_bad_alloc = bad_alloc_seen.load();
      counter_value = counter.value_unsafe();
      st = domain.stats();
    }  // scheduler destroyed: hook stream quiescent

    // Never a leaked op: every published record resolved exactly one way.
    ASSERT_EQ(st.ops_served, st.ops_succeeded + st.ops_failed + st.ops_timed_out)
        << "seed " << seed << "\n" << faults.describe();
    ASSERT_EQ(st.ops_succeeded, succeeded)
        << "seed " << seed << "\n" << faults.describe();
    // A bad_alloc can abort a batch mid-application, so the exact value
    // check applies only to fault-free-allocation runs.
    if (!saw_bad_alloc) {
      ASSERT_EQ(counter_value, static_cast<std::int64_t>(succeeded))
          << "seed " << seed << "\n" << faults.describe();
    }
    ASSERT_TRUE(session.auditor().clean())
        << "seed " << seed << "\n" << faults.describe() << "\n"
        << session.auditor().report();
    ASSERT_FALSE(session.watchdog().stalled())
        << "seed " << seed << "\n" << faults.describe() << "\n"
        << session.watchdog().report();
    total_fired += faults.fired_count();
  }
  hooks::install_observer(nullptr);
  hooks::test_faults().reset();

  // The engine genuinely injected: across the sweep a healthy majority of
  // schedules fired at least one action inside the run's event volume.
  EXPECT_GE(total_fired, kSeeds / 2) << total_fired;
}
#endif  // BATCHER_AUDIT

// Three-way revoke race: the submitter's deadline-expiry CAS, the pump's
// claim CAS, and the exit drain's CAS all target the same Pending byte.
// Exactly one side wins each record; no Done is ever lost and no op resolves
// twice.  The perturber stretches the windows differently every seed.
TEST(ChaosSweep, ThreeWayRevokeRaceResolvesEveryOpExactlyOnce) {
  constexpr unsigned kWorkers = 2;
  constexpr std::uint64_t kIters = 150;
  constexpr std::size_t kClients = 2;
  constexpr int kOpsPerClient = 8;

  AuditSession session(kWorkers, 0, sweep_perturbation());
  session.install();
  for (std::uint64_t iter = 0; iter < kIters; ++iter) {
    session.reseed(iter);
    std::uint64_t succeeded = 0;
    std::int64_t counter_value = 0;
    ExternalStats st;
    {
      rt::Scheduler sched(kWorkers);
      ds::BatchedCounter counter(sched);
      ExternalDomain domain(sched, counter, kClients);

      std::atomic<std::uint64_t> ok{0};
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (int i = 0; i < kOpsPerClient; ++i) {
            // Client 0 closes the domain mid-stream so the exit drain joins
            // the race for the remaining records.
            if (t == 0 && i == kOpsPerClient / 2) domain.shutdown();
            ds::BatchedCounter::Op op;
            op.delta = 1;
            try {
              domain.try_submit(t, op);  // expired deadline: revoke instantly
              ok.fetch_add(1, std::memory_order_relaxed);
            } catch (const OpTimedOut&) {
            } catch (const DomainClosed&) {
            }
          }
        });
      }
      sched.run([&] { domain.serve(); });
      for (auto& th : clients) th.join();
      succeeded = ok.load();
      counter_value = counter.value_unsafe();
      st = domain.stats();
    }
    ASSERT_EQ(st.ops_served, st.ops_succeeded + st.ops_failed + st.ops_timed_out)
        << "iter " << iter;
    // No lost Done: an op that returned success was applied exactly once,
    // and every revoked op was never applied.
    ASSERT_EQ(st.ops_succeeded, succeeded) << "iter " << iter;
    ASSERT_EQ(counter_value, static_cast<std::int64_t>(succeeded))
        << "iter " << iter;
    if (hooks::kEnabled) {
      ASSERT_TRUE(session.auditor().clean())
          << "iter " << iter << "\n" << session.auditor().report();
      ASSERT_FALSE(session.watchdog().stalled())
          << "iter " << iter << "\n" << session.watchdog().report();
    }
  }
  session.uninstall();
}

// External slots ride Batcher's status machine, so the auditor models them:
// the perturbed revoke race again, with every external slot edge counted on
// its way to the audit stack.  Clean means every claim, revoke, re-arm and
// completion the run produced was a legal Fig. 3 edge inside a launch.
struct ExternalEdgeCounter final : hooks::ScheduleObserver {
  AuditSession* session;
  std::atomic<std::uint64_t> claims{0};
  std::atomic<std::uint64_t> revokes{0};
  void on_event(const HookEvent& event) override {
    session->on_event(event);
    if (event.worker != hooks::kNoWorker) return;
    if (event.point == HookPoint::kStatusPendingToExecuting) {
      claims.fetch_add(1, std::memory_order_relaxed);
    } else if (event.point == HookPoint::kStatusPendingToFree) {
      revokes.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

TEST(ChaosSweep, AuditorModelsExternalSlotEdgesUnderPerturbation) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 2;
  constexpr std::uint64_t kSeeds = 150;
  constexpr std::size_t kClients = 3;  // more clients than workers
  constexpr int kOpsPerClient = 8;

  AuditSession session(kWorkers, 0, sweep_perturbation());
  ExternalEdgeCounter observer;
  observer.session = &session;
  hooks::install_observer(&observer);
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    session.reseed(seed);
    std::uint64_t succeeded = 0;
    std::int64_t counter_value = 0;
    ExternalStats st;
    {
      rt::Scheduler sched(kWorkers);
      ds::BatchedCounter counter(sched);
      ExternalDomain domain(sched, counter, kClients);
      std::atomic<std::uint64_t> ok{0};
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (int i = 0; i < kOpsPerClient; ++i) {
            if (t == 0 && i == kOpsPerClient - 1) domain.shutdown();
            ds::BatchedCounter::Op op;
            op.delta = 1;
            try {
              if (i % 2 == 0) {
                domain.submit(t, op);
              } else {
                domain.try_submit(t, op);
              }
              ok.fetch_add(1, std::memory_order_relaxed);
            } catch (const OpTimedOut&) {
            } catch (const DomainClosed&) {
            }
          }
        });
      }
      sched.run([&] { domain.serve(); });
      for (auto& th : clients) th.join();
      succeeded = ok.load();
      counter_value = counter.value_unsafe();
      st = domain.stats();
    }
    ASSERT_EQ(st.ops_served, st.ops_succeeded + st.ops_failed + st.ops_timed_out)
        << "seed " << seed;
    ASSERT_EQ(counter_value, static_cast<std::int64_t>(succeeded))
        << "seed " << seed;
    ASSERT_EQ(session.auditor().violation_count(), 0u)
        << "seed " << seed << "\n" << session.auditor().report();
  }
  hooks::install_observer(nullptr);
  EXPECT_GT(observer.claims.load(), 0u);
  EXPECT_GT(observer.revokes.load(), 0u);
}

// Multi-domain sweep: hashmap + pq pumped on one scheduler, both shutdown
// orders (alternating by seed), 500 perturbed schedules.
TEST(ChaosSweep, MultiDomainPerturbedSweepBothShutdownOrders) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSeeds = 500;
  constexpr int kClients = 2;
  constexpr std::int64_t kPer = 6;

  AuditSession session(kWorkers, 0, sweep_perturbation());
  session.install();
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    session.reseed(seed);
    {
      rt::Scheduler sched(kWorkers);
      ds::BatchedHashMap map(sched);
      ds::BatchedPriorityQueue pq(sched);
      ExternalDomain dmap(sched, map, kClients);
      ExternalDomain dpq(sched, pq, kClients);

      std::atomic<int> done{0};
      std::vector<std::thread> pool;
      for (int t = 0; t < kClients; ++t) {
        pool.emplace_back([&, t] {
          for (std::int64_t i = 0; i < kPer; ++i) {
            ds::BatchedHashMap::Op mop;
            mop.kind = ds::BatchedHashMap::Kind::Update;
            mop.key = i % 5;
            mop.value = 1;
            dmap.submit(static_cast<std::size_t>(t), mop);
            ds::BatchedPriorityQueue::Op qop;
            qop.kind = ds::BatchedPriorityQueue::Kind::Insert;
            qop.key = t * kPer + i;
            dpq.submit(static_cast<std::size_t>(t), qop);
          }
          if (done.fetch_add(1) + 1 == kClients) {
            if (seed % 2 == 0) {
              dmap.shutdown();
              dpq.shutdown();
            } else {
              dpq.shutdown();
              dmap.shutdown();
            }
          }
        });
      }
      sched.run([&] {
        rt::parallel_invoke([&] { dmap.serve(); }, [&] { dpq.serve(); });
      });
      for (auto& th : pool) th.join();

      ASSERT_EQ(dmap.ops_succeeded(),
                static_cast<std::uint64_t>(kClients * kPer))
          << "seed " << seed;
      ASSERT_EQ(dpq.ops_succeeded(),
                static_cast<std::uint64_t>(kClients * kPer))
          << "seed " << seed;
      ASSERT_EQ(pq.size_unsafe(), static_cast<std::size_t>(kClients * kPer))
          << "seed " << seed;
      std::int64_t total = 0;
      for (std::int64_t k = 0; k < 5; ++k) {
        total += map.get_unsafe(k).value_or(0);
      }
      ASSERT_EQ(total, kClients * kPer) << "seed " << seed;
    }
    ASSERT_TRUE(session.auditor().clean())
        << "seed " << seed << "\n" << session.auditor().report();
    ASSERT_FALSE(session.watchdog().stalled())
        << "seed " << seed << "\n" << session.watchdog().report();
  }
  session.uninstall();
}

// --- 4. Sharded front-end chaos ---------------------------------------------

// Forwards events to the fault engine only; the sharded test asserts exact
// counters rather than auditing the schedule model.
struct FaultOnlyObserver final : hooks::ScheduleObserver {
  FaultSchedule* faults;
  void on_event(const HookEvent& event) override { faults->on_event(event); }
};

// Satellite of the service front-end PR: one seeded run where timeouts,
// sheds, retries, and a quarantine ALL fire against a ShardRouter spanning a
// two-shard hashmap group and a one-shard counter group.
//
// Phase A runs before any pump exists, so its counters are exact in every
// build config: one try_submit timeout per shard, and an occupied
// counter-shard backlog that sheds a bounded-retry prober exactly
// max_retries + 1 times.  Phase B starts serve(), lets three clients race
// all four submit kinds through the router while a seeded FaultSchedule
// injects (in audit builds), quarantines the counter shard mid-run, and
// shuts down.  Afterward every shard must satisfy the resolution identity
// and the client-side ledger must account for every request it issued — a
// lost request would break one or the other.
TEST(ChaosSweep, ShardedFrontEndTimeoutsShedsRetriesAndQuarantine) {
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kClients = 3;
  constexpr int kOpsPerClient = 24;
  constexpr std::uint64_t kSeed = 2014;
  // tids: clients use [0, kClients); the blocker and the prober get their own.
  constexpr std::size_t kBlockerTid = kClients;
  constexpr std::size_t kProberTid = kClients + 1;

  // Phase B's fault schedule and its observer are declared first so they
  // outlive the scheduler: its workers can emit hook events until their
  // threads join in ~Scheduler, and the observer is cleared only after that
  // (schedule_hooks.hpp), on every exit path.
  FaultSchedule::Options fopt;
  fopt.horizon_events = 1500;
  fopt.external_tids = kClients;
  FaultSchedule faults(kSeed, fopt);
  FaultOnlyObserver observer;
  observer.faults = &faults;
  struct ClearObserverOnExit {
    ~ClearObserverOnExit() { hooks::install_observer(nullptr); }
  } clear_observer_on_exit;

  rt::Scheduler sched(kWorkers);
  ds::BatchedHashMap map_a(sched);
  ds::BatchedHashMap map_b(sched);
  ds::BatchedCounter counter(sched);
  service::ShardRouter::Options ropt;
  ropt.max_threads = kClients + 2;
  ropt.domain.shed_threshold = 1;  // every shard sheds aggressively
  service::ShardRouter router(sched, ropt);
  const std::size_t g_map = router.add_group({&map_a, &map_b});
  const std::size_t g_ctr = router.add_group({&counter});
  const std::size_t ctr_shard = router.group_begin(g_ctr);

  // --- Phase A: deterministic timeout / shed / retry counters (no pump) ---
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    ds::BatchedCounter::Op probe;  // the record type is irrelevant: it is
    probe.delta = 0;               // revoked before any batch could run it
    EXPECT_THROW(router.domain(s).try_submit(kProberTid, probe), OpTimedOut);
    EXPECT_EQ(router.stats(s).ops_timed_out, 1u) << "shard " << s;
  }
  std::atomic<std::uint64_t> blocker_ok{0};
  std::thread blocker([&] {
    ds::BatchedCounter::Op op;
    op.delta = 1;
    try {
      router.submit(g_ctr, 0, kBlockerTid, op);
      blocker_ok.fetch_add(1);
    } catch (...) {
      // Quarantined before the pump got to it, or its batch drew an
      // injected fault: resolved either way, just not successfully.
    }
  });
  while (router.domain(ctr_shard).pending_depth() < 1) {
    std::this_thread::yield();
  }
  {
    RetryPolicy policy;
    policy.seed = kSeed;
    policy.max_retries = 2;
    policy.base_spins = 16;
    ds::BatchedCounter::Op op;
    op.delta = 1;
    EXPECT_THROW(router.submit_with_retry(g_ctr, 0, kProberTid, op, policy),
                 DomainOverloaded);
  }
  {
    const ExternalStats st = router.stats(ctr_shard);
    EXPECT_EQ(st.ops_shed, 3u);           // max_retries + 1 attempts, all shed
    EXPECT_EQ(st.retries_attempted, 2u);  // exactly the policy's budget
  }

  // --- Phase B: seeded chaos against the running front-end ---
  hooks::install_observer(&observer);

  std::atomic<std::uint64_t> attempts{0}, ok{0}, failed{0}, timed{0}, shed{0};
  std::atomic<std::uint64_t> ok_ctr{0};
  std::atomic<bool> saw_bad_alloc{false};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerClient; ++i) {
        if (faults.external_wedged(t)) break;
        const bool to_ctr = i % 2 == 1;
        const std::size_t group = to_ctr ? g_ctr : g_map;
        const std::int64_t key = static_cast<std::int64_t>(t) * 101 + i * 7;
        ds::BatchedCounter::Op cop;
        cop.delta = 1;
        ds::BatchedHashMap::Op mop;
        mop.kind = ds::BatchedHashMap::Kind::Update;
        mop.key = key;
        mop.value = 1;
        OpRecordBase& op =
            to_ctr ? static_cast<OpRecordBase&>(cop) : mop;
        attempts.fetch_add(1, std::memory_order_relaxed);
        try {
          switch (i % 4) {
            case 0:
              router.submit(group, key, t, op);
              break;
            case 1:
              router.submit_until(group, key, t, op,
                                  std::chrono::steady_clock::now() +
                                      std::chrono::microseconds(500));
              break;
            case 2:
              router.domain_for(group, key).try_submit(t, op);
              break;
            default: {
              RetryPolicy policy;
              policy.seed = kSeed + t;
              policy.max_retries = 2;
              policy.base_spins = 16;
              router.submit_with_retry(group, key, t, op, policy);
              break;
            }
          }
          ok.fetch_add(1, std::memory_order_relaxed);
          if (to_ctr) ok_ctr.fetch_add(1, std::memory_order_relaxed);
        } catch (const OpTimedOut&) {
          timed.fetch_add(1, std::memory_order_relaxed);
        } catch (const DomainOverloaded&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } catch (const DomainClosed&) {
          // Quarantined counter shard or post-shutdown: resolved, failed.
          failed.fetch_add(1, std::memory_order_relaxed);
        } catch (const hooks::InjectedFault&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::bad_alloc&) {
          saw_bad_alloc.store(true, std::memory_order_relaxed);
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread controller([&] {
    // Quarantine the counter shard mid-run: once some traffic has flowed,
    // or promptly if the chaos stalls the clients first.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (attempts.load(std::memory_order_relaxed) <
               kClients * kOpsPerClient / 2 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    router.quarantine(ctr_shard);
    for (auto& c : clients) c.join();
    router.shutdown();
  });
  try {
    sched.run([&] { router.serve(); });
  } catch (...) {
    // An injected allocation fault can surface from the run itself; every
    // submitter must still be unblocked.
    for (std::size_t s = 0; s < router.num_shards(); ++s) {
      router.quarantine(s);
    }
  }
  controller.join();
  blocker.join();

  // The quarantine fired: the counter shard is closed (shutdown closes the
  // rest), and closed-ness is what rejected the late counter traffic above.
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_TRUE(router.domain(s).closed());
  }

  // No lost request, domain side: every shard's published records resolved
  // exactly one way, chaos or not.
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const ExternalStats st = router.stats(s);
    ASSERT_EQ(st.ops_served,
              st.ops_succeeded + st.ops_failed + st.ops_timed_out)
        << "shard " << s << "\n" << faults.describe();
  }
  // No lost request, client side: every attempt resolved to exactly one
  // outcome, and the domains' success count matches the clients' ledger
  // plus the phase-A blocker (the only other successful submitter).
  ASSERT_EQ(attempts.load(),
            ok.load() + failed.load() + timed.load() + shed.load());
  ASSERT_EQ(router.total_stats().ops_succeeded,
            ok.load() + blocker_ok.load())
      << faults.describe();
  // An injected bad_alloc can abort a batch mid-application; only
  // allocation-clean runs pin the exact structure state.
  if (!saw_bad_alloc.load()) {
    EXPECT_EQ(counter.value_unsafe(),
              static_cast<std::int64_t>(ok_ctr.load() + blocker_ok.load()));
  }
}

}  // namespace
}  // namespace batcher
