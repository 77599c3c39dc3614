#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace fsd::sim {
namespace {

TEST(Simulation, HoldAdvancesVirtualTimeOnly) {
  Simulation sim;
  double observed = -1.0;
  sim.AddProcess("p", [&]() {
    EXPECT_EQ(sim.Now(), 0.0);
    sim.Hold(1.5);
    EXPECT_EQ(sim.Now(), 1.5);
    sim.Hold(0.0);
    observed = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(observed, 1.5);
}

TEST(Simulation, EventsOrderedByTimeThenSeq) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleCallback(2.0, [&] { order.push_back(3); });
  sim.ScheduleCallback(1.0, [&] { order.push_back(1); });
  sim.ScheduleCallback(1.0, [&] { order.push_back(2); });  // same t: FIFO
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ProcessesInterleaveDeterministically) {
  auto run_once = [] {
    Simulation sim;
    std::vector<int> trace;
    sim.AddProcess("a", [&]() {
      trace.push_back(1);
      sim.Hold(2.0);
      trace.push_back(3);
    });
    sim.AddProcess("b", [&]() {
      trace.push_back(2);
      sim.Hold(3.0);
      trace.push_back(4);
    });
    sim.Run();
    return trace;
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  EXPECT_EQ(t1, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(t1, t2);
}

TEST(Simulation, SignalWakesWaiter) {
  Simulation sim;
  auto signal = sim.MakeSignal();
  double woke_at = -1.0;
  sim.AddProcess("waiter", [&]() {
    EXPECT_TRUE(sim.WaitSignal(signal.get()));
    woke_at = sim.Now();
  });
  sim.AddProcess("firer", [&]() {
    sim.Hold(5.0);
    signal->Fire();
  });
  sim.Run();
  EXPECT_EQ(woke_at, 5.0);
}

TEST(Simulation, SignalTimeoutExpires) {
  Simulation sim;
  auto signal = sim.MakeSignal();
  bool fired = true;
  double woke_at = -1.0;
  sim.AddProcess("waiter", [&]() {
    fired = sim.WaitSignal(signal.get(), 2.0);
    woke_at = sim.Now();
  });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(woke_at, 2.0);
}

TEST(Simulation, TimedOutWaiterNotWokenByLaterFire) {
  Simulation sim;
  auto signal = sim.MakeSignal();
  int wakes = 0;
  sim.AddProcess("waiter", [&]() {
    EXPECT_FALSE(sim.WaitSignal(signal.get(), 1.0));
    ++wakes;
    sim.Hold(10.0);  // a stale Fire wake would cut this short
    EXPECT_EQ(sim.Now(), 11.0);
    ++wakes;
  });
  sim.AddProcess("firer", [&]() {
    sim.Hold(3.0);
    signal->Fire();
  });
  sim.Run();
  EXPECT_EQ(wakes, 2);
}

TEST(Simulation, FiredSignalReturnsImmediately) {
  Simulation sim;
  auto signal = sim.MakeSignal();
  signal->Fire();
  double waited = -1.0;
  sim.AddProcess("p", [&]() {
    EXPECT_TRUE(sim.WaitSignal(signal.get(), 100.0));
    waited = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(waited, 0.0);
}

TEST(Simulation, SpawnAndJoin) {
  Simulation sim;
  double child_done = -1.0, parent_done = -1.0;
  sim.AddProcess("parent", [&]() {
    ProcessHandle child = sim.Spawn("child", [&]() {
      sim.Hold(4.0);
      child_done = sim.Now();
    });
    sim.Hold(1.0);
    sim.Join(child);
    parent_done = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(child_done, 4.0);
  EXPECT_EQ(parent_done, 4.0);
}

TEST(Simulation, JoinFinishedProcessReturnsImmediately) {
  Simulation sim;
  sim.AddProcess("parent", [&]() {
    ProcessHandle child = sim.Spawn("child", [] {});
    sim.Hold(10.0);
    sim.Join(child);  // already done
    EXPECT_EQ(sim.Now(), 10.0);
  });
  sim.Run();
}

TEST(Simulation, RunUntilInThePastNeverRewindsTheClock) {
  Simulation sim;
  int woke = 0;
  sim.AddProcess("p", [&]() {
    sim.Hold(10.0);
    ++woke;
  });
  sim.Run(5.0);
  EXPECT_EQ(sim.Now(), 5.0);
  sim.Run(3.0);  // horizon already behind the clock: dispatch nothing
  EXPECT_EQ(sim.Now(), 5.0);
  EXPECT_EQ(woke, 0);
  double fired_at = -1.0;
  sim.ScheduleCallback(0.0, [&]() { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, 5.0);
  EXPECT_EQ(woke, 1);
  EXPECT_EQ(sim.Now(), 10.0);
}

TEST(Simulation, RunUntilStopsEarlyAndResumes) {
  Simulation sim;
  int steps = 0;
  sim.AddProcess("p", [&]() {
    for (int i = 0; i < 5; ++i) {
      sim.Hold(1.0);
      ++steps;
    }
  });
  sim.Run(2.5);
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.Now(), 2.5);
  sim.Run();
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(sim.Now(), 5.0);
}

TEST(Simulation, StartDelayHonored) {
  Simulation sim;
  double started = -1.0;
  sim.AddProcess("late", [&]() { started = sim.Now(); }, /*start=*/7.0);
  sim.Run();
  EXPECT_EQ(started, 7.0);
}

TEST(Simulation, ManyProcessesDeterministicEventCount) {
  auto count_events = [] {
    Simulation sim;
    for (int i = 0; i < 50; ++i) {
      sim.AddProcess("w", [&sim]() {
        for (int k = 0; k < 20; ++k) sim.Hold(0.01);
      });
    }
    sim.Run();
    return sim.events_dispatched();
  };
  const uint64_t e1 = count_events();
  EXPECT_EQ(e1, count_events());
  EXPECT_GE(e1, 50u * 20u);
}

// The teardown tests run on both execution tiers: the kill path differs
// (fiber swap vs waking a pooled thread) and must hold on each.
SimTuning TierTuning(bool use_fibers) {
  SimTuning tuning;
  tuning.use_fibers = use_fibers;
  return tuning;
}

TEST(Simulation, TeardownUnwindsBlockedProcesses) {
  // A process blocked on a never-fired signal must not hang destruction.
  for (const bool use_fibers : {true, false}) {
    auto signal_holder = std::make_shared<std::shared_ptr<SimSignal>>();
    {
      Simulation sim(TierTuning(use_fibers));
      *signal_holder = sim.MakeSignal();
      sim.AddProcess("stuck", [&sim, signal_holder]() {
        sim.WaitSignal(signal_holder->get());
      });
      sim.Run();
      EXPECT_EQ(sim.live_processes(), 1) << "use_fibers=" << use_fibers;
    }  // destructor must unwind the stuck process without deadlock
  }
}

TEST(Simulation, TeardownWithManyConcurrentLiveProcesses) {
  // A serving workload aborting mid-flight leaves MANY processes blocked at
  // once — holds, signal waits, and join chains all unwinding together.
  for (const bool use_fibers : {true, false}) {
    auto signal_holder = std::make_shared<std::shared_ptr<SimSignal>>();
    {
      Simulation sim(TierTuning(use_fibers));
      *signal_holder = sim.MakeSignal();
      for (int i = 0; i < 8; ++i) {
        sim.AddProcess("holder", [&sim]() { sim.Hold(1e9); });
        sim.AddProcess("waiter", [&sim, signal_holder]() {
          sim.WaitSignal(signal_holder->get());
        });
        sim.AddProcess("parent", [&sim]() {
          ProcessHandle child =
              sim.Spawn("child", [&sim]() { sim.Hold(1e9); });
          sim.Join(child);
        });
      }
      // A process that never got to start at all (event beyond the horizon).
      sim.AddProcess("never-started", [&sim]() { sim.Hold(1.0); },
                     /*start=*/1e12);
      sim.Run(/*until=*/5.0);
      EXPECT_GT(sim.live_processes(), 30) << "use_fibers=" << use_fibers;
    }  // destructor must unwind every process without deadlock
  }
}

TEST(Simulation, KillPathToleratesSimCallsFromUnwindingDestructors) {
  // Destructors on a killed process's stack may re-enter the kernel (hold a
  // drain delay, fire a completion signal, schedule a cleanup callback,
  // spawn a reaper). During teardown these must be inert, not crash/hang.
  struct ReentrantGuard {
    Simulation* sim;
    std::shared_ptr<SimSignal> done;
    ~ReentrantGuard() {
      sim->Hold(0.5);
      done->Fire();
      sim->ScheduleCallback(0.1, [] {});
      ProcessHandle reaper = sim->Spawn("reaper", [] {});
      sim->Join(reaper);
      (void)sim->WaitSignal(done.get(), 1.0);
    }
  };
  for (const bool use_fibers : {true, false}) {
    auto done_holder = std::make_shared<std::shared_ptr<SimSignal>>();
    {
      Simulation sim(TierTuning(use_fibers));
      *done_holder = sim.MakeSignal();
      for (int i = 0; i < 4; ++i) {
        sim.AddProcess("guarded", [&sim, done_holder]() {
          ReentrantGuard guard{&sim, *done_holder};
          sim.Hold(1e9);  // blocked here when the Simulation dies
        });
      }
      sim.Run(/*until=*/1.0);
      EXPECT_EQ(sim.live_processes(), 4) << "use_fibers=" << use_fibers;
    }
  }
}

TEST(Simulation, OffloadChargesVirtualTimeAndRunsClosure) {
  for (const int pool : {0, 1, 2}) {
    SimTuning tuning;
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    int ran = 0;
    double after = -1.0;
    sim.AddProcess("p", [&]() {
      sim.Offload(1.25, [&]() { ++ran; });
      after = sim.Now();
      EXPECT_EQ(ran, 1);  // result visible right after the join
    });
    sim.Run();
    EXPECT_EQ(ran, 1) << "pool=" << pool;
    EXPECT_EQ(after, 1.25) << "pool=" << pool;
  }
}

TEST(Simulation, OffloadNullClosureIsAPlainHold) {
  SimTuning tuning;
  tuning.compute_threads = 2;
  Simulation sim(tuning);
  double after = -1.0;
  sim.AddProcess("p", [&]() {
    sim.Offload(2.0, nullptr);
    after = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(after, 2.0);
  EXPECT_EQ(sim.offload_stats().calls, 0u);  // null fn is not an offload
  EXPECT_EQ(sim.offload_stats().pool_runs, 0u);
}

TEST(Simulation, OffloadFromSchedulerContextRunsInline) {
  // No submitting process (callback context): the closure must still run,
  // synchronously, so callers never need to special-case.
  Simulation sim;
  bool ran = false;
  sim.ScheduleCallback(1.0, [&]() {
    sim.Offload(5.0, [&]() { ran = true; });
    EXPECT_TRUE(ran);
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(Simulation, OffloadStatsCountCallsAndPoolRuns) {
  // Processes 0 and 1 offload in lockstep (each window holds the other's
  // events); processes 2 and 3 start alone at t=100 and t=200, so their
  // windows are solo. Where a pooled closure runs (pool thread or reclaimed
  // by its submitter) depends on wall-clock timing, but the solo set is
  // virtual and every closure is counted exactly once.
  for (const int pool : {0, 1, 3}) {
    SimTuning tuning;
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    for (int p = 0; p < 4; ++p) {
      sim.AddProcess(
          "p", [&]() {
            for (int i = 0; i < 3; ++i) sim.Offload(0.5, []() {});
          },
          p < 2 ? 0.0 : 100.0 * (p - 1));
    }
    sim.Run();
    const OffloadStats stats = sim.offload_stats();
    EXPECT_EQ(stats.calls, 12u) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(stats.virtual_s, 6.0) << "pool=" << pool;
    EXPECT_EQ(stats.solo, 6u) << "pool=" << pool;
    if (pool == 0) {
      EXPECT_EQ(stats.pool_runs, 0u);
      EXPECT_EQ(stats.reclaimed, 0u);
    } else {
      EXPECT_EQ(stats.pool_runs + stats.reclaimed + stats.solo, stats.calls)
          << "pool=" << pool;
    }
  }
}

TEST(Simulation, LoneProcessNeverTouchesThePool) {
  // No other event ever falls inside a lone process's window, so every
  // closure runs inline and the pool is never even started.
  SimTuning tuning;
  tuning.compute_threads = 3;
  Simulation sim(tuning);
  int ran = 0;
  sim.AddProcess("lone", [&]() {
    for (int i = 0; i < 5; ++i) {
      sim.Offload(0.25, [&]() { ++ran; });
      EXPECT_EQ(ran, i + 1);
    }
  });
  sim.Run();
  const OffloadStats stats = sim.offload_stats();
  EXPECT_EQ(stats.calls, 5u);
  EXPECT_EQ(stats.solo, 5u);
  EXPECT_EQ(stats.pool_runs, 0u);
  EXPECT_EQ(stats.reclaimed, 0u);
}

TEST(Simulation, ReclaimedClosureRunsOnceBeforeItsSubmitterResumes) {
  // The only pool thread is pinned by a's closure until b has resumed, so
  // b's queued closure can only run by being reclaimed at b's join, on b's
  // own thread. (A join that slept on it would stall until a's bounded
  // wait expires and then fail the checks below.)
  SimTuning tuning;
  tuning.compute_threads = 1;
  Simulation sim(tuning);
  std::atomic<bool> b_resumed{false};
  bool a_saw_b_resume = false;
  int b_runs = 0;
  std::thread::id b_body_thread;
  std::thread::id b_closure_thread;
  sim.AddProcess("a", [&]() {
    sim.Offload(10.0, [&]() {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!b_resumed.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      a_saw_b_resume = b_resumed.load();
    });
  });
  sim.AddProcess("b", [&]() {
    b_body_thread = std::this_thread::get_id();
    sim.Offload(1.0, [&]() {
      ++b_runs;
      b_closure_thread = std::this_thread::get_id();
    });
    EXPECT_EQ(b_runs, 1);
    EXPECT_EQ(sim.Now(), 1.0);
    b_resumed = true;
  });
  sim.ScheduleCallback(0.5, []() {});  // keeps b's window from being solo
  sim.Run();
  EXPECT_EQ(b_runs, 1);
  EXPECT_EQ(b_closure_thread, b_body_thread);
  EXPECT_TRUE(a_saw_b_resume);
  const OffloadStats stats = sim.offload_stats();
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.solo, 0u);
  EXPECT_GE(stats.reclaimed, 1u);
  EXPECT_EQ(stats.pool_runs + stats.reclaimed, 2u);
}

TEST(Simulation, TeardownDiscardsQueuedJobWithoutRunningIt) {
  // a's closure pins the only pool thread until b's queued closure is
  // destroyed, which only the teardown drain does: b's closure must be
  // discarded, never run, and neither submitter may hang the teardown.
  struct SetOnDestroy {
    std::atomic<bool>* flag;
    ~SetOnDestroy() { flag->store(true); }
  };
  std::atomic<bool> b_discarded{false};
  std::atomic<bool> b_ran{false};
  {
    SimTuning tuning;
    tuning.compute_threads = 1;
    Simulation sim(tuning);
    sim.AddProcess("a", [&]() {
      sim.Offload(10.0, [&]() {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!b_discarded.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      });
    });
    sim.AddProcess("b", [&]() {
      sim.Offload(20.0, [&b_ran, guard = std::make_shared<SetOnDestroy>(
                                     &b_discarded)]() {
        b_ran = true;
      });
    });
    sim.Run(/*until=*/1.0);  // neither wake (t=10, t=20) fires
    EXPECT_FALSE(b_discarded.load());
  }
  EXPECT_TRUE(b_discarded.load());
  EXPECT_FALSE(b_ran.load());
}

TEST(Simulation, OffloadByteIdenticalAcrossPoolSizes) {
  // A fleet of processes interleaving offloads, holds and signal traffic:
  // the (time, order, value) trace must match for every pool size.
  auto run_once = [](int pool) {
    SimTuning tuning;
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    std::vector<std::pair<double, int>> trace;
    auto signal = sim.MakeSignal();
    for (int p = 0; p < 6; ++p) {
      sim.AddProcess("p", [&, p]() {
        int local = 0;
        for (int i = 0; i < 4; ++i) {
          sim.Offload(0.1 * (p + 1), [&]() { local += p + i; });
          trace.push_back({sim.Now(), 100 * p + local});
          if (p == 0 && i == 1) signal->Fire();
          if (p == 5 && i == 0) (void)sim.WaitSignal(signal.get(), 10.0);
          sim.Hold(0.05 * p);
        }
      });
    }
    sim.Run();
    return std::make_pair(trace, sim.events_dispatched());
  };
  const auto inline_run = run_once(0);
  EXPECT_EQ(inline_run, run_once(1));
  EXPECT_EQ(inline_run, run_once(4));
  EXPECT_EQ(inline_run,
            run_once(static_cast<int>(std::thread::hardware_concurrency())));
}

TEST(Simulation, TeardownDrainsInFlightOffloadClosures) {
  // Destruction with a closure RUNNING on the pool: the drain must wait it
  // out (never free state under a live worker) and then unwind the blocked
  // submitter without deadlock.
  std::atomic<int> completed{0};
  {
    SimTuning tuning;
    tuning.compute_threads = 2;
    Simulation sim(tuning);
    for (int p = 0; p < 2; ++p) {
      sim.AddProcess("p", [&]() {
        sim.Offload(10.0, [&]() {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          ++completed;
        });
      });
    }
    sim.Run(/*until=*/1.0);  // wake events (t=10) never fire
  }  // destructor: drain in-flight closures, then kill blocked submitters
  // Everything that STARTED must have finished before the pool died.
  EXPECT_LE(completed.load(), 2);
  SUCCEED();
}

TEST(Simulation, TeardownDiscardsQueuedOffloadJobs) {
  // More submitters than pool threads: at destruction some jobs are still
  // QUEUED (never started). They must be discarded, not run, and their
  // submitters unwound cleanly.
  {
    SimTuning tuning;
    tuning.compute_threads = 1;
    Simulation sim(tuning);
    for (int p = 0; p < 6; ++p) {
      sim.AddProcess("p", [&]() {
        sim.Offload(10.0, [&]() {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });
      });
    }
    sim.Run(/*until=*/1.0);
  }
  SUCCEED();
}

TEST(Simulation, KillPathToleratesOffloadFromUnwindingDestructors) {
  // A destructor on a killed process's stack may call Offload (e.g. a
  // worker flushing a codec buffer). During teardown the closure must run
  // inline and return — inert, no pool, no hang.
  struct OffloadGuard {
    Simulation* sim;
    bool* ran;
    ~OffloadGuard() {
      sim->Offload(0.5, [this]() { *ran = true; });
    }
  };
  bool ran = false;
  {
    SimTuning tuning;
    tuning.compute_threads = 2;
    Simulation sim(tuning);
    sim.AddProcess("guarded", [&]() {
      OffloadGuard guard{&sim, &ran};
      sim.Hold(1e9);  // blocked here when the Simulation dies
    });
    sim.Run(/*until=*/1.0);
    EXPECT_EQ(sim.live_processes(), 1);
  }
  EXPECT_TRUE(ran);
}

TEST(Simulation, DetachedJobsRunBeforeTheJoinReturns) {
  // Each job writes only its own slot; the join makes every write visible.
  // Jobs count as calls for every pool size and are never solo; with a
  // pool each one ran on a pool thread or was reclaimed by the join.
  for (const int pool : {0, 1, 3}) {
    SimTuning tuning;
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    std::vector<int> slots(8, 0);
    double after = -1.0;
    sim.AddProcess("p", [&]() {
      OffloadGroup group(&sim);
      for (size_t i = 0; i < slots.size(); ++i) {
        sim.StartDetached(&group, [&slots, i]() {
          slots[i] = static_cast<int>(i) + 1;
        });
      }
      sim.Hold(0.5);
      sim.JoinDetached(&group);
      after = sim.Now();
      for (size_t i = 0; i < slots.size(); ++i) {
        EXPECT_EQ(slots[i], static_cast<int>(i) + 1) << "pool=" << pool;
      }
    });
    sim.Run();
    EXPECT_EQ(after, 0.5) << "pool=" << pool;  // the join is free
    const OffloadStats stats = sim.offload_stats();
    EXPECT_EQ(stats.calls, 8u) << "pool=" << pool;
    EXPECT_EQ(stats.solo, 0u) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(stats.virtual_s, 0.0) << "pool=" << pool;
    if (pool > 0) {
      EXPECT_EQ(stats.pool_runs + stats.reclaimed + stats.solo, stats.calls)
          << "pool=" << pool;
    }
  }
}

TEST(Simulation, DetachedAndSynchronousOffloadsAreEachCountedOnce) {
  // Detached jobs and pooled Offload closures share one queue and one
  // join: every closure of the run is counted exactly once.
  for (const int pool : {0, 1, 3}) {
    SimTuning tuning;
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    for (int p = 0; p < 3; ++p) {
      sim.AddProcess("p", [&]() {
        int slots[4] = {};
        OffloadGroup group(&sim);
        for (int& slot : slots) {
          sim.StartDetached(&group, [&slot]() { slot = 1; });
          sim.Offload(0.25, []() {});
        }
        sim.JoinDetached(&group);
        for (const int slot : slots) EXPECT_EQ(slot, 1);
      });
    }
    sim.Run();
    const OffloadStats stats = sim.offload_stats();
    EXPECT_EQ(stats.calls, 24u) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(stats.virtual_s, 3.0) << "pool=" << pool;
    if (pool > 0) {
      EXPECT_EQ(stats.pool_runs + stats.reclaimed + stats.solo, stats.calls)
          << "pool=" << pool;
    }
  }
}

TEST(Simulation, JoinReclaimsUnclaimedDetachedJobs) {
  // The only pool thread is pinned by a job of another group until the
  // join below has returned, so the group's three queued jobs can only run
  // by being reclaimed, on the joiner's own thread. (A join that slept on
  // them would stall until the pin's bounded wait expires and then fail.)
  SimTuning tuning;
  tuning.compute_threads = 1;
  Simulation sim(tuning);
  std::atomic<bool> released{false};
  bool pin_saw_release = false;
  std::thread::id body_thread;
  std::vector<std::thread::id> job_threads(3);
  sim.AddProcess("p", [&]() {
    body_thread = std::this_thread::get_id();
    OffloadGroup pin(&sim);
    sim.StartDetached(&pin, [&]() {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!released.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      pin_saw_release = released.load();
    });
    OffloadGroup group(&sim);
    for (std::thread::id& id : job_threads) {
      sim.StartDetached(&group,
                        [&id]() { id = std::this_thread::get_id(); });
    }
    sim.JoinDetached(&group);
    released = true;
    sim.JoinDetached(&pin);
  });
  sim.Run();
  EXPECT_TRUE(pin_saw_release);
  for (const std::thread::id& id : job_threads) EXPECT_EQ(id, body_thread);
  const OffloadStats stats = sim.offload_stats();
  EXPECT_EQ(stats.calls, 4u);
  EXPECT_EQ(stats.reclaimed + stats.pool_runs, 4u);
  EXPECT_GE(stats.reclaimed, 3u);
}

TEST(Simulation, JoinReclaimsOneJobAtATime) {
  // The only pool thread is pinned by a job of another group until job A
  // of the group has started. The join reclaims A alone and runs it; A
  // waits until B has started, which only the pool thread, freed by A's
  // start, can do. A join that took A and B back together would run B
  // after A on its own thread, and A's bounded wait would expire.
  SimTuning tuning;
  tuning.compute_threads = 1;
  Simulation sim(tuning);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_started{false};
  bool pin_saw_a = false;
  bool a_saw_b = false;
  std::thread::id body_thread;
  std::thread::id pin_thread;
  std::thread::id a_thread;
  std::thread::id b_thread;
  const auto wait_for = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return flag.load();
  };
  sim.AddProcess("p", [&]() {
    body_thread = std::this_thread::get_id();
    OffloadGroup pin(&sim);
    sim.StartDetached(&pin, [&]() {
      pin_thread = std::this_thread::get_id();
      pin_saw_a = wait_for(a_started);
    });
    OffloadGroup group(&sim);
    sim.StartDetached(&group, [&]() {
      a_thread = std::this_thread::get_id();
      a_started = true;
      a_saw_b = wait_for(b_started);
    });
    sim.StartDetached(&group, [&]() {
      b_thread = std::this_thread::get_id();
      b_started = true;
    });
    sim.JoinDetached(&group);
    sim.JoinDetached(&pin);
  });
  sim.Run();
  EXPECT_TRUE(pin_saw_a);
  EXPECT_TRUE(a_saw_b);
  EXPECT_EQ(a_thread, body_thread);
  EXPECT_EQ(b_thread, pin_thread);
  EXPECT_NE(b_thread, body_thread);
  const OffloadStats stats = sim.offload_stats();
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.pool_runs, 2u);
  EXPECT_EQ(stats.reclaimed, 1u);
  EXPECT_EQ(stats.pool_runs + stats.reclaimed + stats.solo, stats.calls);
}

TEST(Simulation, TeardownWithDetachedJobsOutstanding) {
  // Destruction while a blocked process has detached jobs both running
  // (one per pool thread) and still queued, on both tiers: the drain waits
  // out the running ones, discards the queued ones unrun, and the group's
  // destructor on the unwinding stack then returns without hanging — all
  // before the slots the jobs write into die.
  struct SetOnDestroy {
    std::atomic<int>* count;
    ~SetOnDestroy() { count->fetch_add(1); }
  };
  for (const bool use_fibers : {true, false}) {
    std::atomic<int> started{0};
    std::atomic<int> ran{0};
    std::atomic<int> destroyed{0};
    {
      SimTuning tuning = TierTuning(use_fibers);
      tuning.compute_threads = 2;
      Simulation sim(tuning);
      sim.AddProcess("p", [&]() {
        std::vector<int> slots(6, 0);
        OffloadGroup group(&sim);  // after slots: joined before they die
        for (int& slot : slots) {
          sim.StartDetached(
              &group, [&slot, &started, &ran,
                       guard = std::make_shared<SetOnDestroy>(&destroyed)]() {
                started.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                slot = 1;
                ran.fetch_add(1);
              });
        }
        // Let both pool threads claim a job, so the teardown meets running
        // and queued jobs at once.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        sim.Hold(1e9);  // blocked here when the Simulation dies
      });
      sim.Run(/*until=*/1.0);
      EXPECT_EQ(sim.live_processes(), 1) << "use_fibers=" << use_fibers;
    }
    // The running jobs finished (a pool thread that beat the teardown may
    // have claimed more); the rest were discarded unrun. Every closure was
    // destroyed exactly once.
    EXPECT_GE(ran.load(), 2) << "use_fibers=" << use_fibers;
    EXPECT_EQ(destroyed.load(), 6) << "use_fibers=" << use_fibers;
  }
}

TEST(Simulation, DetachedStartDuringTeardownRunsInline) {
  // A destructor on a killed process's stack may start a detached job; the
  // pool is gone by then, so the job runs inline and its join returns.
  struct DetachGuard {
    Simulation* sim;
    bool* ran;
    ~DetachGuard() {
      OffloadGroup group(sim);
      sim->StartDetached(&group, [this]() { *ran = true; });
      sim->JoinDetached(&group);
    }
  };
  bool ran = false;
  {
    SimTuning tuning;
    tuning.compute_threads = 2;
    Simulation sim(tuning);
    sim.AddProcess("guarded", [&]() {
      DetachGuard guard{&sim, &ran};
      sim.Hold(1e9);  // blocked here when the Simulation dies
    });
    sim.Run(/*until=*/1.0);
  }
  EXPECT_TRUE(ran);
}

TEST(ParallelMakespan, SingleLaneSums) {
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(ParallelMakespan, ManyLanesTakeMax) {
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 2.0, 3.0}, 3), 3.0);
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 2.0, 3.0}, 8), 3.0);
}

TEST(ParallelMakespan, GreedyAssignment) {
  // lanes=2: [4] | [1,2] -> makespan 4; greedy puts 2 after 1.
  EXPECT_DOUBLE_EQ(ParallelMakespan({4.0, 1.0, 2.0}, 2), 4.0);
  // lanes=2 submission order matters (list scheduling, not optimal).
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 1.0, 4.0}, 2), 5.0);
}

TEST(ParallelMakespan, EdgeCases) {
  EXPECT_DOUBLE_EQ(ParallelMakespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(ParallelMakespan({2.0}, 0), 2.0);  // lanes clamped to 1
}

}  // namespace
}  // namespace fsd::sim
