// Process-oriented discrete-event simulation (DES) kernel.
//
// The kernel drives "processes" — user functions that execute strictly one
// at a time under the scheduler's control (SimPy-style cooperative
// simulation). Virtual time only advances between events; a process blocks
// by calling Hold()/Wait*() which hands control back to the scheduler.
// Because exactly one process is ever runnable and the event queue orders
// by (time, sequence), simulations are fully deterministic and race-free
// regardless of host scheduling.
//
// Two execution tiers exist (SimTuning::use_fibers): the default runs
// process bodies as single-thread FIBERS (ucontext) — a handoff is one
// user-space stack switch, no OS scheduling at all, which is what lets a
// trace replay push millions of events through on one core. Where fibers
// are unavailable or switched off (sanitized builds instrument stack
// switches poorly) the thread tier binds process bodies lazily to a reused
// pool of worker threads and hands control over with a semaphore pair.
// Event ordering is byte-identical across both tiers — the tier only
// changes HOW a decision already made by the event heap is carried out —
// so each serves as the other's cross-validation oracle
// (tests/sim_property_test.cc, bench_trace_replay).
#ifndef FSD_SIM_SIMULATION_H_
#define FSD_SIM_SIMULATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

/// Fibers switch stacks under the sanitizers' feet (ASan's fake-stack and
/// TSan's shadow state both assume one stack per thread), so sanitized
/// builds fall back to the pooled-thread tier. Define FSD_SIM_NO_FIBERS to
/// force the fallback on any build.
#if defined(FSD_SIM_NO_FIBERS)
#define FSD_SIM_HAS_FIBERS 0
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FSD_SIM_HAS_FIBERS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FSD_SIM_HAS_FIBERS 0
#elif defined(__linux__)
#define FSD_SIM_HAS_FIBERS 1
#else
#define FSD_SIM_HAS_FIBERS 0
#endif
#elif defined(__linux__)
#define FSD_SIM_HAS_FIBERS 1
#else
#define FSD_SIM_HAS_FIBERS 0
#endif

#if FSD_SIM_HAS_FIBERS
#include <ucontext.h>
#endif

#include "common/check.h"

namespace fsd::sim {

class Simulation;

/// Virtual time in seconds.
using SimTime = double;

/// Kernel execution-cost knobs. Neither may change observable simulation
/// behaviour (event order, times, process semantics) — only the wall-clock
/// cost per event.
struct SimTuning {
  /// Run process bodies as ucontext fibers on the scheduler's own thread:
  /// a handoff is a user-space stack switch (~100ns) instead of an OS
  /// context-switch round trip — on a single-core host the difference is
  /// the whole kernel budget. Off, or when the build lacks fiber support
  /// (FSD_SIM_HAS_FIBERS == 0: sanitizers, non-Linux), process bodies run
  /// on a reused pool of worker threads bound at first resume, with a
  /// binary-semaphore handoff.
  bool use_fibers = true;
  /// Real threads for Simulation::Offload closures and detached jobs
  /// (Simulation::StartDetached). 0 runs every closure inline on the
  /// scheduler thread; N overlaps closures from distinct processes, and a
  /// process's detached jobs with its own later work, across N host cores.
  /// A closure whose virtual window holds no other event (a "solo" window)
  /// still runs inline, since nothing could overlap it, and a submitter
  /// that resumes before any pool thread claimed its closure takes it back
  /// and runs it itself (a help-first join) rather than sleeping on it.
  /// Like use_fibers this must never change observable simulation
  /// behaviour — the closure's virtual cost is charged analytically either
  /// way, so event order, outputs and ledgers are byte-identical for every
  /// value.
  int compute_threads = 0;
};

/// A waitable, one-shot signal processes can block on (with timeout).
/// Signals are created and consumed entirely inside the simulation; they are
/// the building block for queue wakeups, barriers and async completions.
class SimSignal {
 public:
  explicit SimSignal(Simulation* sim) : sim_(sim) {}

  /// Fires the signal, waking all current and future waiters immediately.
  void Fire();
  bool fired() const { return fired_; }
  /// Processes currently blocked on this signal (channel backends use this
  /// to skip re-arming arrival signals nobody is waiting for).
  bool has_waiters() const { return !waiting_pids_.empty(); }

 private:
  friend class Simulation;
  Simulation* sim_;
  bool fired_ = false;
  std::vector<uint64_t> waiting_pids_;
};

/// Handle to a spawned process; join-able from other processes.
class ProcessHandle {
 public:
  ProcessHandle() = default;
  explicit ProcessHandle(std::shared_ptr<SimSignal> done)
      : done_(std::move(done)) {}
  const std::shared_ptr<SimSignal>& done_signal() const { return done_; }

 private:
  std::shared_ptr<SimSignal> done_;
};

/// Counters for the compute-offload layer (see Simulation::Offload and
/// Simulation::StartDetached). `calls`/`virtual_s`/`solo` are virtual-time
/// facts and byte-identical across every `compute_threads` value;
/// `pool_runs`/`reclaimed`/`pool_busy_wall_s` depend on wall-clock timing
/// (all zero when compute_threads == 0). With a pool, every closure of a
/// completed run is counted exactly once: pool_runs + reclaimed + solo ==
/// calls.
struct OffloadStats {
  uint64_t calls = 0;           ///< Offload() closures + detached jobs
  double virtual_s = 0.0;       ///< virtual seconds charged for Offload()
  uint64_t solo = 0;            ///< Offload() closures run in a solo window
  uint64_t pool_runs = 0;       ///< closures actually run on pool threads
  uint64_t reclaimed = 0;       ///< queued closures a join took back
  double pool_busy_wall_s = 0.0;  ///< wall seconds pool threads spent busy
};

/// A set of detached offload jobs (Simulation::StartDetached) that one
/// process starts and later joins as a unit (Simulation::JoinDetached). The
/// destructor joins, so a group that goes out of scope on an error path
/// never leaves a job writing into freed memory. A group must not outlive
/// its Simulation.
class OffloadGroup {
 public:
  explicit OffloadGroup(Simulation* sim) : sim_(sim) {}
  ~OffloadGroup();

  OffloadGroup(const OffloadGroup&) = delete;
  OffloadGroup& operator=(const OffloadGroup&) = delete;

 private:
  friend class Simulation;
  Simulation* sim_;
  /// Jobs queued on or running on the pool (guarded by the pool mutex);
  /// the group's completion count, which a join waits down to zero.
  int outstanding_ = 0;
};

/// The DES kernel. Not thread-safe from outside: construct, AddProcess, Run.
class Simulation {
 public:
  explicit Simulation(SimTuning tuning = SimTuning{})
      : tuning_(tuning),
        fibers_(FSD_SIM_HAS_FIBERS != 0 && tuning.use_fibers) {}
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Registers a root process to start at time `start`.
  /// Returns a handle whose done-signal fires when the process returns.
  ProcessHandle AddProcess(std::string name, std::function<void()> body,
                           SimTime start = 0.0);

  /// Runs until no events remain or `until` (if >= 0) is reached.
  void Run(SimTime until = -1.0);

  /// Current virtual time. Callable from within processes.
  SimTime Now() const { return now_; }

  /// ---- Process-context API (must be called from inside a process) ----

  /// Advances this process's virtual time by `dt` seconds.
  void Hold(SimTime dt);

  /// Blocks until `signal` fires, or until `timeout` elapses (timeout < 0
  /// waits forever). Returns true if the signal fired.
  bool WaitSignal(SimSignal* signal, SimTime timeout = -1.0);

  /// Spawns a child process starting immediately; returns a join handle.
  ProcessHandle Spawn(std::string name, std::function<void()> body);

  /// Blocks until the given process has finished.
  void Join(const ProcessHandle& handle);

  /// Creates a signal owned by the caller.
  std::shared_ptr<SimSignal> MakeSignal() {
    return std::make_shared<SimSignal>(this);
  }

  /// Schedules `fn` to run inside the scheduler at now+delay (no process
  /// context; used for service-side events like message delivery).
  void ScheduleCallback(SimTime delay, std::function<void()> fn);

  /// Runs `fn` while this process's virtual time advances by `duration`:
  /// the process yields, other events dispatch inside the virtual window
  /// [now, now+duration], and the process resumes at now+duration with
  /// `fn`'s side effects complete. With SimTuning::compute_threads == 0, or
  /// when no other event falls inside the window, the closure runs inline
  /// at the resume point; otherwise it is queued for a real pool thread
  /// while the scheduler keeps dispatching, and the resuming process runs
  /// it itself if no pool thread has claimed it yet — byte-identical
  /// virtual behaviour, better wall-clock.
  ///
  /// Determinism contract for `fn`: it may touch state owned by the
  /// calling process (which is blocked until the closure completes) and
  /// immutable shared data; it must not touch the Simulation, other
  /// processes' state, or any shared-mutable state, and it must not throw
  /// (capture a status instead and surface it after the call returns).
  /// A null `fn` is a plain virtual sleep (equivalent to Hold(duration)).
  void Offload(SimTime duration, std::function<void()> fn);

  /// Starts `fn` as a detached job of `group` and returns at once, without
  /// charging virtual time: the caller charges the work analytically itself
  /// (as with Offload, the charge must not depend on what `fn` computes).
  /// With SimTuning::compute_threads == 0, or during teardown, `fn` runs
  /// inline before the call returns; otherwise it is queued for the pool,
  /// behind every job queued before it, and runs on whichever pool thread
  /// claims it first or on the joiner (see JoinDetached). Every job counts
  /// in OffloadStats::calls, whatever the pool size.
  ///
  /// Determinism contract for `fn`: it may touch only its own slot (state
  /// that nothing else reads or writes until the join) and immutable
  /// shared data; neither the slot nor anything `fn` writes may be read
  /// before JoinDetached(group) returns. As with Offload, `fn` must not
  /// touch the Simulation and must not throw.
  void StartDetached(OffloadGroup* group, std::function<void()> fn);

  /// Returns once every job of `group` has completed. Help-first, one job
  /// at a time: the group's oldest job no pool thread has claimed yet runs
  /// right here, on the caller's thread, then the queue is looked at
  /// again, so pool threads that wake meanwhile take the rest of the group
  /// in parallel; only claimed jobs are waited for. Consumes no virtual
  /// time, and a group with nothing outstanding returns at once.
  void JoinDetached(OffloadGroup* group);

  /// Snapshot of the offload counters (see OffloadStats).
  OffloadStats offload_stats() const;

  /// Name of the currently running process (for logs/metrics).
  const std::string& CurrentProcessName() const;

  /// Number of processes that have not yet finished.
  int live_processes() const { return live_processes_; }

  /// True while the destructor unwinds still-blocked processes. Kernel
  /// entry points become inert no-ops in this window so that destructors
  /// running on killed-process stacks (which may legitimately call Hold,
  /// fire signals or schedule callbacks) can never deadlock, crash on a
  /// missing scheduler, or race on kernel state from concurrently
  /// unwinding threads.
  bool tearing_down() const {
    return tearing_down_.load(std::memory_order_acquire);
  }

  /// Total events dispatched (diagnostic).
  uint64_t events_dispatched() const { return events_dispatched_; }
  /// Events still queued (undispatched); after a run-to-completion Run()
  /// this is 0 — every scheduled event was dispatched or the simulation
  /// was torn down with the remainder drained.
  uint64_t pending_events() const {
    return static_cast<uint64_t>(events_.size());
  }

 private:
  friend class SimSignal;

  struct Process;

  /// One OS thread of the thread tier. Bound to a process at its first
  /// resume and returned to an idle pool when the body finishes.
  struct Worker {
    std::thread thread;
    // Scheduler releases run_sem to transfer control to the process; the
    // process releases yield_sem to transfer it back. The semaphore
    // release/acquire pair carries the happens-before edge.
    std::binary_semaphore run_sem{0};
    std::binary_semaphore yield_sem{0};
    Process* proc = nullptr;  // bound process (null when idle)
    bool shutdown = false;    // pool teardown flag
  };

  struct Process {
    uint64_t pid = 0;
    std::string name;
    std::function<void()> body;
    bool started = false;         // body entered at least once
    bool finished = false;
    bool killed = false;          // set at teardown to unwind the stack
    bool wait_satisfied = false;  // signal-wait outcome
    uint64_t wait_epoch = 0;      // guards against stale timeout events
    std::shared_ptr<SimSignal> done;
    Worker* worker = nullptr;     // execution thread (null until bound)
#if FSD_SIM_HAS_FIBERS
    Simulation* sim = nullptr;    // back-pointer for the fiber trampoline
    ucontext_t context;           // fiber execution state
    std::unique_ptr<char[]> stack;  // fiber stack (lazily allocated)
#endif
  };

  /// One queued compute-offload closure and the group its completion is
  /// reported to.
  struct OffloadJob {
    std::function<void()> fn;
    OffloadGroup* group = nullptr;
  };

  /// The real thread pool behind Offload and StartDetached (lazily created
  /// on first use when compute_threads > 0). Pool threads only ever touch
  /// the job queue, the submitted closures and their groups' completion
  /// counts — never kernel state — so the scheduler stays single-threaded.
  struct OffloadPool {
    std::mutex mutex;
    std::condition_variable cv;       // workers wait for jobs/shutdown
    /// Notified after every job completion: joins wait for their group's
    /// count to reach zero, the teardown drain for active == 0.
    std::condition_variable idle_cv;
    std::deque<OffloadJob> queue;
    std::vector<std::thread> threads;
    int active = 0;        // jobs currently executing on pool threads
    bool shutdown = false;
    // Wall-clock pool counters (under mutex; see OffloadStats).
    uint64_t runs = 0;
    uint64_t reclaimed = 0;
    double busy_wall_s = 0.0;
  };

  enum class EventKind : uint8_t {
    kWake = 0,      // resume a process (start or Hold/signal wake)
    kTimeout = 1,   // signal-timeout wake (epoch-guarded)
    kCallback = 2,  // run a pooled callback slot in scheduler context
  };

  /// Trivially-copyable heap entry: callbacks live in a pooled slot vector
  /// (`target` indexes it) so heap sifts move 40 flat bytes instead of a
  /// std::function, and slot storage is recycled across events.
  struct Event {
    SimTime time = 0.0;
    uint64_t seq = 0;
    uint64_t target = 0;  // pid (kWake/kTimeout) or callback slot index
    uint64_t epoch = 0;
    EventKind kind = EventKind::kWake;
  };

  /// Max-heap comparator yielding earliest (time, seq) at the heap root.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Process* FindProcess(uint64_t pid) const;
  void PushEvent(SimTime delay, uint64_t target, uint64_t epoch,
                 EventKind kind);
  void ScheduleWake(Process* p, SimTime delay, bool is_timeout,
                    uint64_t epoch);
  void ResumeProcess(Process* p);
  void YieldToScheduler(Process* p);
  void WakeNow(uint64_t pid);
  void FinishProcess(Process* p);
  /// Binds `p` to an idle (or new) pool worker at its first resume.
  void BindWorker(Process* p);
  /// Thread-tier worker main loop: run bound process bodies until teardown.
  void WorkerMain(Worker* w);
  /// Frees a finished process's slot. Called by the scheduler after resume.
  void ReapProcess(Process* p);
  /// The one queue-submission path: counts `fn` against `group` and hands
  /// it to the pool (spawned on first use).
  void SubmitOffload(OffloadGroup* group, std::function<void()> fn);
  /// Pool-thread main loop: pop job, run closure, count down its group.
  void OffloadWorkerMain();
  /// Teardown: discard queued jobs (counting their groups down), wait out
  /// in-flight closures, join the pool. Must complete before any process
  /// stack (which closures may reference) is unwound or freed.
  void DrainOffloadPool();
#if FSD_SIM_HAS_FIBERS
  /// Allocates the fiber stack and context for `p`'s first resume.
  void StartFiber(Process* p);
  /// Fiber entry point; the Process* is split across the two makecontext
  /// int arguments (the portable ucontext pointer-passing idiom).
  static void FiberTrampoline(unsigned int hi, unsigned int lo);
#endif

  SimTuning tuning_;
  /// Fiber tier actually in effect (tuning_.use_fibers gated on build
  /// support); when false, the thread tier below carries the handoffs.
  bool fibers_ = false;
#if FSD_SIM_HAS_FIBERS
  ucontext_t sched_context_;  // where fibers yield back to
#endif
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_pid_ = 1;
  int live_processes_ = 0;
  uint64_t events_dispatched_ = 0;
  std::vector<Event> events_;  // binary heap via std::push_heap/pop_heap
  /// Pid-indexed slots (pid - 1). Finished processes are released back to
  /// the null slot so a long trace replay holds only live ones.
  std::vector<std::unique_ptr<Process>> processes_;
  /// All worker threads ever created (joined at teardown); idle_workers_
  /// is their reuse stack.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Worker*> idle_workers_;
  /// Pooled callback storage: `Event::target` indexes callback_slots_;
  /// dispatched/freed slots recycle through free_slots_.
  std::vector<std::function<void()>> callback_slots_;
  std::vector<uint32_t> free_slots_;
  Process* running_ = nullptr;
  bool in_run_ = false;
  std::atomic<bool> tearing_down_{false};
  /// Compute-offload pool (null until the first pooled job) and the
  /// scheduler-thread-owned virtual counters.
  std::unique_ptr<OffloadPool> offload_pool_;
  uint64_t offload_calls_ = 0;
  uint64_t offload_solo_ = 0;
  double offload_virtual_s_ = 0.0;
};

/// Computes the virtual-time makespan of running `latencies` on `lanes`
/// parallel lanes (greedy list scheduling in submission order). Models a
/// worker's IPC thread pool without spawning simulation processes.
SimTime ParallelMakespan(const std::vector<SimTime>& latencies, int lanes);

}  // namespace fsd::sim

#endif  // FSD_SIM_SIMULATION_H_
