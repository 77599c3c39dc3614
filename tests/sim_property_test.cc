// Property tests for the DES kernel: randomized schedules must replay
// identically run-over-run AND across kernel tiers (fibers vs pooled
// threads with a semaphore handshake), and every run must
// uphold the kernel invariants — monotonic virtual time, no callback
// after quiesce, every scheduled event either fires or is drained.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "sim/simulation.h"

namespace fsd::sim {
namespace {

// A randomized schedule is generated as DATA first (from one Rng draw
// sequence), then executed against any tuning — so every execution of one
// seed runs the exact same program and only the kernel under test varies.
struct Op {
  enum Kind { kHold, kFire, kWait, kCallback, kSpawnJoin, kOffload };
  Kind kind = kHold;
  double amount = 0.0;  // hold/callback delay, wait timeout or offload charge
  int signal = 0;       // kFire / kWait target
};

struct Program {
  int num_signals = 1;
  std::vector<std::vector<Op>> processes;  // ops per process
  int callbacks = 0;                       // total kCallback ops
};

Program MakeProgram(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Program program;
  program.num_signals = 1 + static_cast<int>(rng.NextBounded(3));
  const int num_procs = 2 + static_cast<int>(rng.NextBounded(5));
  program.processes.resize(num_procs);
  for (auto& ops : program.processes) {
    const int num_ops = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < num_ops; ++i) {
      Op op;
      switch (rng.NextBounded(6)) {
        case 0:
          op.kind = Op::kHold;
          op.amount = rng.NextUniform(0.0, 2.0);
          break;
        case 1:
          op.kind = Op::kFire;
          op.signal = static_cast<int>(rng.NextBounded(program.num_signals));
          break;
        case 2:
          op.kind = Op::kWait;
          op.signal = static_cast<int>(rng.NextBounded(program.num_signals));
          op.amount = rng.NextUniform(0.1, 1.5);
          break;
        case 3:
          op.kind = Op::kCallback;
          op.amount = rng.NextUniform(0.0, 3.0);
          ++program.callbacks;
          break;
        case 4:
          op.kind = Op::kOffload;
          op.amount = rng.NextUniform(0.0, 1.0);
          break;
        default:
          op.kind = Op::kSpawnJoin;
          op.amount = rng.NextUniform(0.0, 1.0);
          break;
      }
      ops.push_back(op);
    }
  }
  return program;
}

struct RunResult {
  // One line per observable step: "<time> <who> <what>". Comparing the
  // whole trace across runs asserts identical ORDER, not just end state.
  std::vector<std::string> trace;
  double end_time = 0.0;
  uint64_t events_dispatched = 0;
  uint64_t pending_after_run = 0;
};

RunResult Execute(const Program& program, SimTuning tuning) {
  RunResult result;
  Simulation sim(tuning);
  std::vector<std::shared_ptr<SimSignal>> signals;
  for (int i = 0; i < program.num_signals; ++i) {
    signals.push_back(sim.MakeSignal());
  }
  auto record = [&](int who, const char* what) {
    result.trace.push_back(
        StrFormat("%.9f p%d %s", sim.Now(), who, what));
  };
  for (size_t p = 0; p < program.processes.size(); ++p) {
    const std::vector<Op>& ops = program.processes[p];
    const int who = static_cast<int>(p);
    sim.AddProcess(StrFormat("prop-%d", who), [&, ops, who]() {
      record(who, "start");
      for (const Op& op : ops) {
        switch (op.kind) {
          case Op::kHold:
            sim.Hold(op.amount);
            record(who, "held");
            break;
          case Op::kFire:
            signals[op.signal]->Fire();
            record(who, "fired");
            break;
          case Op::kWait: {
            const bool woke =
                sim.WaitSignal(signals[op.signal].get(), op.amount);
            record(who, woke ? "woke" : "timeout");
            break;
          }
          case Op::kCallback:
            sim.ScheduleCallback(op.amount,
                                 [&, who]() { record(who, "callback"); });
            break;
          case Op::kOffload: {
            // The closure writes op-local state only (the offload
            // contract); the value is observed AFTER the join so the
            // trace proves both the charge and the result handoff.
            int computed = 0;
            sim.Offload(op.amount, [&computed, who]() {
              computed = 1000 + who;
            });
            record(who, computed == 1000 + who ? "offloaded" : "LOST");
            break;
          }
          case Op::kSpawnJoin: {
            ProcessHandle child =
                sim.Spawn(StrFormat("child-%d", who), [&, who]() {
                  sim.Hold(op.amount);
                  record(who, "child-done");
                });
            sim.Join(child);
            record(who, "joined");
            break;
          }
        }
      }
      record(who, "end");
    });
  }
  sim.Run();
  result.end_time = sim.Now();
  result.events_dispatched = sim.events_dispatched();
  result.pending_after_run = sim.pending_events();
  return result;
}

constexpr int kSeeds = 120;

TEST(SimProperty, ReplayIsDeterministicPerSeed) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Program program = MakeProgram(seed);
    const RunResult a = Execute(program, SimTuning{});
    const RunResult b = Execute(program, SimTuning{});
    ASSERT_EQ(a.trace, b.trace) << "seed " << seed;
    ASSERT_EQ(a.end_time, b.end_time) << "seed " << seed;
    ASSERT_EQ(a.events_dispatched, b.events_dispatched) << "seed " << seed;
  }
}

TEST(SimProperty, FiberAndThreadTiersOrderIdentically) {
  // The tier changes HOW processes are resumed (fiber stack switch vs
  // pooled thread + semaphore handshake), never WHAT order events fire in —
  // each tier doubles as the oracle for the other. Sanitized builds have
  // no fibers, so there both runs take the thread tier.
  SimTuning threads;
  threads.use_fibers = false;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Program program = MakeProgram(seed);
    const RunResult fibers = Execute(program, SimTuning{});
    const RunResult threaded = Execute(program, threads);
    ASSERT_EQ(fibers.trace, threaded.trace) << "seed " << seed;
    ASSERT_EQ(fibers.end_time, threaded.end_time) << "seed " << seed;
    ASSERT_EQ(fibers.events_dispatched, threaded.events_dispatched)
        << "seed " << seed;
  }
}

TEST(SimProperty, ComputePoolSizesTraceIdentically) {
  // compute_threads moves closures onto real threads; virtual behaviour —
  // the full observable trace, the clock, the event count — must be
  // byte-identical for every pool size, inline included.
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Program program = MakeProgram(seed);
    SimTuning inline_tuning;
    inline_tuning.compute_threads = 0;
    const RunResult inline_run = Execute(program, inline_tuning);
    for (const int pool : {1, 4}) {
      SimTuning tuning;
      tuning.compute_threads = pool;
      const RunResult pooled = Execute(program, tuning);
      ASSERT_EQ(inline_run.trace, pooled.trace)
          << "seed " << seed << " pool " << pool;
      ASSERT_EQ(inline_run.end_time, pooled.end_time)
          << "seed " << seed << " pool " << pool;
      ASSERT_EQ(inline_run.events_dispatched, pooled.events_dispatched)
          << "seed " << seed << " pool " << pool;
    }
    // The pool must also compose with the thread tier.
    SimTuning threads_pooled;
    threads_pooled.use_fibers = false;
    threads_pooled.compute_threads = 2;
    ASSERT_EQ(inline_run.trace, Execute(program, threads_pooled).trace)
        << "seed " << seed;
  }
}

TEST(SimProperty, VirtualTimeIsMonotoneAndEveryEventResolves) {
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Program program = MakeProgram(seed);
    const RunResult result = Execute(program, SimTuning{});
    // Trace lines embed the observation time; parse them back and demand
    // global monotonicity (virtual time never runs backwards).
    double last = 0.0;
    for (const std::string& line : result.trace) {
      const double t = std::stod(line);
      ASSERT_GE(t, last) << "seed " << seed << ": " << line;
      last = t;
    }
    // Run-to-completion leaves nothing behind: every scheduled event
    // fired (and was counted) or was consumed by its process.
    ASSERT_EQ(result.pending_after_run, 0u) << "seed " << seed;
    ASSERT_GT(result.events_dispatched, 0u) << "seed " << seed;
  }
}

TEST(SimProperty, NoCallbackRunsAfterHorizonOrTeardown) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 17);
    int fired = 0;
    int beyond = 0;
    {
      Simulation sim;
      for (int i = 0; i < 20; ++i) {
        const double at = rng.NextUniform(0.0, 10.0);
        if (at > 5.0) ++beyond;
        sim.ScheduleCallback(at, [&fired]() { ++fired; });
      }
      sim.Run(5.0);
      // Events beyond the horizon are still pending, not fired.
      ASSERT_EQ(sim.pending_events(), static_cast<uint64_t>(beyond))
          << "seed " << seed;
      ASSERT_EQ(fired, 20 - beyond) << "seed " << seed;
    }
    // Teardown drained the remainder without running them.
    ASSERT_EQ(fired, 20 - beyond) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fsd::sim
