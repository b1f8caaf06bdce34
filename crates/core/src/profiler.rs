//! The RL-Scope profiler: annotation API plus transparent interception.
//!
//! One [`Profiler`] instance profiles one simulated process. It implements
//! the substrate's [`CudaHooks`] and [`StackHooks`] (the CUPTI callbacks
//! and Python↔C wrappers of paper §3.2), records the user's high-level
//! operation/phase annotations (§3.1), and injects the configured
//! book-keeping overheads so that calibration has something real to
//! correct (§3.4).

use crate::event::{BookkeepingCounts, CpuCategory, Event, EventKind, GpuCategory};
use crate::trace::Trace;
use parking_lot::Mutex;
use rlscope_sim::cuda::{CudaApiKind, CudaContext};
use rlscope_sim::gpu::{KernelRecord, MemcpyRecord};
use rlscope_sim::hooks::{CudaHooks, NativeLib, StackHooks};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::python::PyRuntime;
use rlscope_sim::time::{DurationNs, TimeNs};
use rlscope_sim::VirtualClock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Which book-keeping code paths are enabled (and therefore inject their
/// CPU cost). Calibration toggles these one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Toggles {
    /// High-level annotation book-keeping.
    pub annotations: bool,
    /// Python↔C interception wrappers.
    pub py_interception: bool,
    /// CUDA API interception.
    pub cuda_interception: bool,
    /// CUPTI activity collection (with its closed-source inflation).
    pub cupti: bool,
}

impl Toggles {
    /// Everything enabled — the full-profiling configuration.
    pub fn all() -> Self {
        Toggles { annotations: true, py_interception: true, cuda_interception: true, cupti: true }
    }

    /// Everything disabled — records events with zero injected cost
    /// (the idealized observer used as calibration baseline).
    pub fn none() -> Self {
        Toggles {
            annotations: false,
            py_interception: false,
            cuda_interception: false,
            cupti: false,
        }
    }
}

/// Profiler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// The process being profiled.
    pub pid: ProcessId,
    /// Book-keeping cost injected per annotation edge (open and close).
    pub annotation_cost: DurationNs,
    /// Enabled book-keeping code paths.
    pub toggles: Toggles,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            pid: ProcessId(0),
            annotation_cost: DurationNs::from_nanos(600),
            toggles: Toggles::all(),
        }
    }
}

/// A consumer of finalized profiler events — the streaming half of the
/// live-collection path ([`Profiler::stream_to`]). Implementations ship
/// batches somewhere else (a socket to the `rlscope-collector` daemon, a
/// file, a test buffer) while the run is still in flight.
///
/// Batches arrive in record order and exactly once; the profiler retains
/// its own copy, so [`Profiler::finish`] still returns the complete
/// [`Trace`] regardless of streaming. Sinks are expected to uphold the
/// same exactly-once contract downstream: the collector sink, for
/// example, buffers unacknowledged batches and replays them across
/// daemon reconnects rather than dropping or duplicating them.
///
/// The profiler calls `emit` while it holds its own state lock, so the
/// order holds even when several threads record into one [`Profiler`];
/// the price is that every recording thread waits for `emit`. A sink
/// should therefore hand the batch off rather than deliver it, and it
/// must not call back into the profiler. `emit` may return before the
/// batch reaches its destination: the collector sink only queues it for
/// its sender thread, and its `query` and `finish` are the barriers
/// that wait for every queued batch.
pub trait EventSink: Send + Sync {
    /// Receives one batch of finalized events, in record order. May
    /// return before the batch is delivered.
    fn emit(&self, events: Vec<Event>);
}

/// An operation that is still open, with the transitions counted while
/// it was the innermost open scope (indexed by [`TransitionKind`]).
/// They fold into [`State::per_op_transitions`] when it closes.
struct OpenOp {
    name: Arc<str>,
    start: TimeNs,
    transitions: [u64; 3],
}

#[derive(Default)]
struct State {
    events: Vec<Event>,
    op_stack: Vec<OpenOp>,
    phase: Option<(Arc<str>, TimeNs)>,
    counts: BookkeepingCounts,
    /// Transition counts of closed operations. Open ones keep theirs on
    /// `op_stack`; transitions outside every operation wait in
    /// `untracked_transitions` until [`Profiler::finish`].
    per_op_transitions: BTreeMap<(Arc<str>, TransitionKind), u64>,
    untracked_transitions: [u64; 3],
    api_stats: BTreeMap<CudaApiKind, (u64, DurationNs)>,
    iterations: u64,
    /// Live streaming sink and its flush threshold, when attached.
    sink: Option<(Arc<dyn EventSink>, usize)>,
    /// Events `[..flushed]` have already been emitted to the sink.
    flushed: usize,
}

/// Transition kinds counted per operation (paper Figure 4c/4d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TransitionKind {
    /// Python → ML backend.
    Backend,
    /// Python → simulator.
    Simulator,
    /// ML backend → CUDA API.
    Cuda,
}

impl TransitionKind {
    /// Every kind, in the order of its index into a count array.
    const ALL: [TransitionKind; 3] =
        [TransitionKind::Backend, TransitionKind::Simulator, TransitionKind::Cuda];
}

/// Adds one scope's non-zero transition counts to `map` under `op`, so
/// the map holds exactly the keys a per-transition insert would.
fn fold_transitions(
    map: &mut BTreeMap<(Arc<str>, TransitionKind), u64>,
    op: &Arc<str>,
    counts: &[u64; 3],
) {
    for (kind, &n) in TransitionKind::ALL.iter().zip(counts) {
        if n > 0 {
            *map.entry((op.clone(), *kind)).or_insert(0) += n;
        }
    }
}

impl fmt::Display for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionKind::Backend => write!(f, "Backend"),
            TransitionKind::Simulator => write!(f, "Simulator"),
            TransitionKind::Cuda => write!(f, "CUDA"),
        }
    }
}

/// The names of the events whose label never varies, built once per
/// profiler so recording one clones a shared `Arc` instead of
/// allocating its name.
struct Labels {
    python: Arc<str>,
    backend: Arc<str>,
    simulator: Arc<str>,
    memcpy: Arc<str>,
    annotation: Arc<str>,
    untracked: Arc<str>,
    /// One per [`CudaApiKind::ALL`], indexed by the kind.
    cuda_api: [Arc<str>; CudaApiKind::ALL.len()],
}

impl Labels {
    fn new() -> Self {
        Labels {
            python: Arc::from("python"),
            backend: Arc::from("backend"),
            simulator: Arc::from("simulator"),
            memcpy: Arc::from("memcpy"),
            annotation: Arc::from("annotation"),
            untracked: Arc::from(crate::overlap::BucketKey::UNTRACKED),
            cuda_api: CudaApiKind::ALL.map(|api| Arc::from(api.to_string())),
        }
    }
}

struct Inner {
    clock: VirtualClock,
    config: ProfilerConfig,
    labels: Labels,
    state: Mutex<State>,
}

/// The profiler for one simulated process.
///
/// ```
/// use rlscope_core::profiler::{Profiler, ProfilerConfig};
/// use rlscope_sim::VirtualClock;
/// use rlscope_sim::time::DurationNs;
///
/// let clock = VirtualClock::new();
/// let rls = Profiler::new(clock.clone(), ProfilerConfig::default());
/// rls.set_phase("data_collection");
/// {
///     let _op = rls.operation("mcts_tree_search");
///     clock.advance(DurationNs::from_micros(10));
/// }
/// let trace = rls.finish();
/// assert_eq!(trace.counts.annotations, 1);
/// ```
#[derive(Clone)]
pub struct Profiler {
    inner: Arc<Inner>,
}

impl fmt::Debug for Profiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("Profiler")
            .field("pid", &self.inner.config.pid)
            .field("events", &state.events.len())
            .field("iterations", &state.iterations)
            .finish_non_exhaustive()
    }
}

/// RAII guard closing an operation annotation on drop.
#[derive(Debug)]
pub struct OperationGuard {
    profiler: Profiler,
    name: Arc<str>,
}

impl Drop for OperationGuard {
    fn drop(&mut self) {
        self.profiler.close_operation(&self.name);
    }
}

impl Profiler {
    /// Creates a profiler over `clock`.
    pub fn new(clock: VirtualClock, config: ProfilerConfig) -> Self {
        Profiler {
            inner: Arc::new(Inner {
                clock,
                config,
                labels: Labels::new(),
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ProfilerConfig {
        &self.inner.config
    }

    /// Registers this profiler's hooks on a Python runtime and CUDA
    /// context, and applies the overhead toggles (the `rls-prof` launcher
    /// of the paper's Figure 2).
    pub fn attach(&self, py: &mut PyRuntime, cuda: &mut CudaContext) {
        let hooks: Arc<dyn StackHooks> = Arc::new(self.clone());
        py.set_hooks(hooks);
        let cuda_hooks: Arc<dyn CudaHooks> = Arc::new(self.clone());
        cuda.set_hooks(cuda_hooks);
        let t = self.inner.config.toggles;
        py.set_interception_enabled(t.py_interception);
        cuda.set_interception_enabled(t.cuda_interception);
        cuda.set_cupti_enabled(t.cupti);
    }

    /// Attaches a live streaming sink: every `flush_every` finalized
    /// events, the newly-recorded batch is emitted to `sink` (in record
    /// order, exactly once). Events recorded **before** the sink was
    /// attached — including any already-closed phases — are delivered
    /// first, immediately, so attach order cannot lose data.
    ///
    /// Streaming adds delivery; it does not change ownership: the
    /// profiler keeps its full event buffer and [`Profiler::finish`]
    /// returns the same complete [`Trace`] it would without a sink (the
    /// tail not yet flushed — e.g. the final phase close — is emitted to
    /// the sink at `finish`).
    ///
    /// Open annotations stream only when they close (the profiler
    /// records intervals at their end); [`Profiler::snapshot`] is the
    /// view that synthesizes still-open ones.
    ///
    /// The sink's `emit` runs under the profiler's state lock (see
    /// [`EventSink`]), so batches reach it in record order even when
    /// several threads record into this profiler.
    pub fn stream_to(&self, sink: Arc<dyn EventSink>, flush_every: usize) {
        let mut state = self.inner.state.lock();
        state.sink = Some((sink, flush_every.max(1)));
        Self::flush_locked(&mut state, 1);
    }

    /// Emits all recorded-but-unflushed events to the streaming sink
    /// (no-op without one) — e.g. right before a mid-run live query, so
    /// the collector observes everything recorded so far.
    pub fn flush(&self) {
        Self::flush_locked(&mut self.inner.state.lock(), 1);
    }

    /// Emits `state.events[flushed..]` to the sink when it holds at
    /// least `min` events. The caller holds the state lock through the
    /// emit, so no other thread's batch can overtake this one.
    #[expect(clippy::indexing_slicing, reason = "`flushed <= events.len()`: set only from it")]
    fn flush_locked(state: &mut State, min: usize) {
        let Some((sink, _)) = &state.sink else { return };
        let pending = state.events.len() - state.flushed;
        if pending < min.max(1) {
            return;
        }
        sink.emit(state.events[state.flushed..].to_vec());
        state.flushed = state.events.len();
    }

    /// Flushes at the sink's configured threshold — called after every
    /// event-recording site.
    fn flush_if_due(state: &mut State) {
        let Some((_, every)) = &state.sink else { return };
        let every = *every;
        Self::flush_locked(state, every);
    }

    /// A non-consuming snapshot of the trace **as of now**: everything
    /// recorded so far, plus synthesized events for the still-open phase
    /// and operations (clipped at the current clock), so live analysis
    /// mid-run sees the time they have accrued. The profiler is
    /// untouched — annotations stay open, streaming watermarks keep
    /// their position, and a later [`Profiler::finish`] returns the
    /// normal complete trace.
    ///
    /// This is also what makes a phase set before [`Profiler::attach`]
    /// (or before any work) visible to the live path: an open phase is
    /// profiler *state*, not yet an event, and a naive copy of the event
    /// buffer would silently drop it.
    pub fn snapshot(&self) -> Trace {
        let state = self.inner.state.lock();
        // Clock read under the lock: reading it first could let a
        // concurrently-recorded event end *after* the snapshot's `now`,
        // leaving it outside the synthesized open-phase interval.
        let now = self.inner.clock.now();
        let pid = self.inner.config.pid;
        let mut events = state.events.clone();
        if let Some((name, start)) = &state.phase {
            events.push(Event::new(pid, EventKind::Phase, name.clone(), *start, now));
        }
        let mut per_op_transitions = state.per_op_transitions.clone();
        for op in &state.op_stack {
            events.push(Event::new(pid, EventKind::Operation, op.name.clone(), op.start, now));
            fold_transitions(&mut per_op_transitions, &op.name, &op.transitions);
        }
        fold_transitions(
            &mut per_op_transitions,
            &self.inner.labels.untracked,
            &state.untracked_transitions,
        );
        Trace {
            pid,
            events,
            counts: state.counts,
            per_op_transitions: per_op_transitions.into_iter().collect(),
            api_stats: state.api_stats.clone().into_iter().collect(),
            iterations: state.iterations,
            wall_end: now,
        }
    }

    /// Starts (or switches) the training phase.
    pub fn set_phase(&self, name: &str) {
        let now = self.inner.clock.now();
        let mut state = self.inner.state.lock();
        let pid = self.inner.config.pid;
        if let Some((prev, start)) = state.phase.take() {
            state.events.push(Event::new(pid, EventKind::Phase, prev, start, now));
        }
        state.phase = Some((Arc::from(name), now));
        Self::flush_if_due(&mut state);
    }

    /// Opens an operation annotation; the returned guard closes it.
    ///
    /// Nesting is supported (inner operations claim their own time, as in
    /// the paper's `mcts_tree_search` / `expand_leaf` example).
    pub fn operation(&self, name: &str) -> OperationGuard {
        self.annotation_overhead();
        let now = self.inner.clock.now();
        let name: Arc<str> = Arc::from(name);
        let mut state = self.inner.state.lock();
        state.counts.annotations += 1;
        state.op_stack.push(OpenOp { name: name.clone(), start: now, transitions: [0; 3] });
        drop(state);
        OperationGuard { profiler: self.clone(), name }
    }

    /// Marks the end of one training-loop iteration (denominator for
    /// per-iteration transition reports).
    pub fn mark_iteration(&self) {
        self.inner.state.lock().iterations += 1;
    }

    /// Finalizes the trace, closing any open phase.
    ///
    /// # Panics
    ///
    /// Panics if operations are still open.
    #[expect(clippy::disallowed_macros, reason = "documented panic: operations still open")]
    pub fn finish(&self) -> Trace {
        let now = self.inner.clock.now();
        let mut state = self.inner.state.lock();
        assert!(
            state.op_stack.is_empty(),
            "finish() with open operations: {:?}",
            state.op_stack.iter().map(|op| op.name.clone()).collect::<Vec<_>>()
        );
        let pid = self.inner.config.pid;
        if let Some((prev, start)) = state.phase.take() {
            state.events.push(Event::new(pid, EventKind::Phase, prev, start, now));
        }
        // Deliver the unflushed tail (e.g. the phase close above) so a
        // streaming sink holds the complete stream, then hand the full
        // buffer to the trace.
        Self::flush_locked(&mut state, 1);
        state.flushed = 0;
        state.sink = None;
        let untracked = std::mem::take(&mut state.untracked_transitions);
        fold_transitions(&mut state.per_op_transitions, &self.inner.labels.untracked, &untracked);
        Trace {
            pid,
            events: std::mem::take(&mut state.events),
            counts: state.counts,
            per_op_transitions: std::mem::take(&mut state.per_op_transitions).into_iter().collect(),
            api_stats: std::mem::take(&mut state.api_stats).into_iter().collect(),
            iterations: state.iterations,
            wall_end: now,
        }
    }

    #[expect(
        clippy::expect_used,
        clippy::disallowed_macros,
        reason = "annotation misuse (an unmatched or out-of-order close) is a bug in the profiled program"
    )]
    fn close_operation(&self, name: &Arc<str>) {
        self.annotation_overhead();
        let now = self.inner.clock.now();
        let mut state = self.inner.state.lock();
        let op = state.op_stack.pop().expect("operation stack underflow");
        assert_eq!(&op.name, name, "operations closed out of order");
        fold_transitions(&mut state.per_op_transitions, &op.name, &op.transitions);
        let pid = self.inner.config.pid;
        state.events.push(Event::new(pid, EventKind::Operation, op.name, op.start, now));
        Self::flush_if_due(&mut state);
    }

    /// Injects annotation book-keeping cost, recorded as Python time (the
    /// annotation code runs in the Python tracer).
    fn annotation_overhead(&self) {
        let cfg = &self.inner.config;
        if cfg.toggles.annotations && !cfg.annotation_cost.is_zero() {
            let start = self.inner.clock.now();
            let end = self.inner.clock.advance(cfg.annotation_cost);
            let mut state = self.inner.state.lock();
            state.events.push(Event::new(
                cfg.pid,
                EventKind::Cpu(CpuCategory::Python),
                self.inner.labels.annotation.clone(),
                start,
                end,
            ));
            Self::flush_if_due(&mut state);
        }
    }

    /// Counts one transition against the innermost open operation, or
    /// against untracked time outside every operation.
    #[expect(clippy::indexing_slicing, reason = "one counter per `TransitionKind` variant")]
    fn count_transition(state: &mut State, kind: TransitionKind) {
        let counts = match state.op_stack.last_mut() {
            Some(op) => &mut op.transitions,
            None => &mut state.untracked_transitions,
        };
        counts[kind as usize] += 1;
    }
}

impl StackHooks for Profiler {
    fn on_python_span(&self, start: TimeNs, end: TimeNs) {
        let mut state = self.inner.state.lock();
        state.events.push(Event::new(
            self.inner.config.pid,
            EventKind::Cpu(CpuCategory::Python),
            self.inner.labels.python.clone(),
            start,
            end,
        ));
        Self::flush_if_due(&mut state);
    }

    fn on_native_enter(&self, lib: NativeLib, _t: TimeNs) {
        let mut state = self.inner.state.lock();
        match lib {
            NativeLib::Backend => {
                state.counts.backend_transitions += 1;
                Self::count_transition(&mut state, TransitionKind::Backend);
            }
            NativeLib::Simulator => {
                state.counts.simulator_transitions += 1;
                Self::count_transition(&mut state, TransitionKind::Simulator);
            }
        }
    }

    fn on_native_exit(&self, lib: NativeLib, enter: TimeNs, exit: TimeNs) {
        let labels = &self.inner.labels;
        let (cat, name) = match lib {
            NativeLib::Backend => (CpuCategory::Backend, &labels.backend),
            NativeLib::Simulator => (CpuCategory::Simulator, &labels.simulator),
        };
        let mut state = self.inner.state.lock();
        state.events.push(Event::new(
            self.inner.config.pid,
            EventKind::Cpu(cat),
            name.clone(),
            enter,
            exit,
        ));
        Self::flush_if_due(&mut state);
    }
}

impl CudaHooks for Profiler {
    fn on_api_enter(&self, _api: CudaApiKind, _t: TimeNs) {}

    #[expect(clippy::indexing_slicing, reason = "one label per `CudaApiKind` variant")]
    fn on_api_exit(&self, api: CudaApiKind, enter: TimeNs, exit: TimeNs) {
        let mut state = self.inner.state.lock();
        state.counts.cuda_api_calls += 1;
        Self::count_transition(&mut state, TransitionKind::Cuda);
        let entry = state.api_stats.entry(api).or_insert((0, DurationNs::ZERO));
        entry.0 += 1;
        entry.1 += exit - enter;
        state.events.push(Event::new(
            self.inner.config.pid,
            EventKind::Cpu(CpuCategory::CudaApi),
            self.inner.labels.cuda_api[api as usize].clone(),
            enter,
            exit,
        ));
        Self::flush_if_due(&mut state);
    }

    fn on_kernel(&self, rec: &KernelRecord) {
        let mut state = self.inner.state.lock();
        state.events.push(Event::new(
            self.inner.config.pid,
            EventKind::Gpu(GpuCategory::Kernel),
            rec.name.clone(),
            rec.start,
            rec.end,
        ));
        Self::flush_if_due(&mut state);
    }

    fn on_memcpy(&self, rec: &MemcpyRecord) {
        let mut state = self.inner.state.lock();
        state.events.push(Event::new(
            self.inner.config.pid,
            EventKind::Gpu(GpuCategory::Memcpy),
            self.inner.labels.memcpy.clone(),
            rec.start,
            rec.end,
        ));
        Self::flush_if_due(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlscope_sim::cuda::CudaCostConfig;
    use rlscope_sim::gpu::{GpuDevice, KernelDesc};
    use rlscope_sim::python::PyCostConfig;

    fn profiler(toggles: Toggles) -> (Profiler, VirtualClock) {
        let clock = VirtualClock::new();
        let cfg = ProfilerConfig { toggles, ..ProfilerConfig::default() };
        (Profiler::new(clock.clone(), cfg), clock)
    }

    #[test]
    fn operations_nest_and_record() {
        let (rls, clock) = profiler(Toggles::none());
        {
            let _outer = rls.operation("outer");
            clock.advance(DurationNs::from_micros(5));
            {
                let _inner = rls.operation("inner");
                clock.advance(DurationNs::from_micros(3));
            }
            clock.advance(DurationNs::from_micros(2));
        }
        let trace = rls.finish();
        let ops: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Operation)
            .map(|e| (&*e.name, e.duration().as_nanos()))
            .collect();
        assert_eq!(ops, vec![("inner", 3_000), ("outer", 10_000)]);
        assert_eq!(trace.counts.annotations, 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn misordered_guards_panic() {
        let (rls, _clock) = profiler(Toggles::none());
        let outer = rls.operation("outer");
        let inner = rls.operation("inner");
        // Leak the inner guard so its Drop does not double-panic during
        // unwinding; the misuse is closing `outer` while `inner` is open.
        std::mem::forget(inner);
        drop(outer);
    }

    #[test]
    fn annotation_overhead_injected_only_when_enabled() {
        let (rls_off, clock_off) = profiler(Toggles::none());
        {
            let _op = rls_off.operation("x");
        }
        assert_eq!(clock_off.now(), TimeNs::ZERO);

        let (rls_on, clock_on) = profiler(Toggles { annotations: true, ..Toggles::none() });
        {
            let _op = rls_on.operation("x");
        }
        // Two edges × default 600ns.
        assert_eq!(clock_on.now(), TimeNs::from_nanos(1_200));
        let trace = rls_on.finish();
        let py_events = trace.events.iter().filter(|e| &*e.name == "annotation").count();
        assert_eq!(py_events, 2);
    }

    #[test]
    fn attach_wires_full_stack() {
        let clock = VirtualClock::new();
        let rls = Profiler::new(clock.clone(), ProfilerConfig::default());
        let mut py = PyRuntime::new(clock.clone(), PyCostConfig::default());
        let mut cuda =
            CudaContext::new(clock.clone(), GpuDevice::new(1), CudaCostConfig::default());
        rls.attach(&mut py, &mut cuda);

        let _op = rls.operation("inference");
        py.exec(DurationNs::from_micros(2));
        py.call_native(NativeLib::Backend, || {
            let s = cuda.default_stream();
            cuda.launch_kernel(s, KernelDesc::new("gemm", DurationNs::from_micros(10)));
        });
        drop(_op);
        let trace = rls.finish();

        assert_eq!(trace.counts.backend_transitions, 1);
        assert_eq!(trace.counts.cuda_api_calls, 1);
        let kinds: Vec<&EventKind> = trace.events.iter().map(|e| &e.kind).collect();
        assert!(kinds.contains(&&EventKind::Cpu(CpuCategory::Python)));
        assert!(kinds.contains(&&EventKind::Cpu(CpuCategory::Backend)));
        assert!(kinds.contains(&&EventKind::Cpu(CpuCategory::CudaApi)));
        assert!(kinds.contains(&&EventKind::Gpu(GpuCategory::Kernel)));
    }

    #[test]
    fn phases_close_on_switch_and_finish() {
        let (rls, clock) = profiler(Toggles::none());
        rls.set_phase("collect");
        clock.advance(DurationNs::from_micros(10));
        rls.set_phase("train");
        clock.advance(DurationNs::from_micros(5));
        let trace = rls.finish();
        let phases: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Phase)
            .map(|e| (&*e.name, e.duration().as_nanos()))
            .collect();
        assert_eq!(phases, vec![("collect", 10_000), ("train", 5_000)]);
    }

    /// Transitions count against the innermost open operation, or
    /// against untracked time outside every operation; a mid-run
    /// snapshot folds in the open scopes' counts without closing them.
    #[test]
    fn per_op_transitions_scoped_to_operations() {
        use TransitionKind::{Backend, Cuda, Simulator};
        let clock = VirtualClock::new();
        let rls = Profiler::new(
            clock.clone(),
            ProfilerConfig { toggles: Toggles::none(), ..ProfilerConfig::default() },
        );
        let mut py = PyRuntime::new(clock.clone(), PyCostConfig::default());
        let mut cuda =
            CudaContext::new(clock.clone(), GpuDevice::new(1), CudaCostConfig::default());
        rls.attach(&mut py, &mut cuda);
        let counts = |trace: &Trace| -> Vec<(String, TransitionKind, u64)> {
            trace.per_op_transitions.iter().map(|((op, k), n)| (op.to_string(), *k, *n)).collect()
        };
        let row = |op: &str, k, n| (op.to_string(), k, n);

        py.call_native(NativeLib::Simulator, || {});
        {
            let _op = rls.operation("simulation");
            py.call_native(NativeLib::Simulator, || {});
            py.call_native(NativeLib::Simulator, || {});
        }
        py.call_native(NativeLib::Backend, || {});
        let snap;
        {
            let _outer = rls.operation("backprop");
            py.call_native(NativeLib::Backend, || {});
            {
                let _inner = rls.operation("step");
                py.call_native(NativeLib::Backend, || {
                    let s = cuda.default_stream();
                    cuda.launch_kernel(s, KernelDesc::new("gemm", DurationNs::from_micros(1)));
                });
                snap = rls.snapshot();
            }
            py.call_native(NativeLib::Backend, || {});
        }
        rls.mark_iteration();
        let trace = rls.finish();

        // Mid-run, both `backprop` and `step` were open.
        assert_eq!(
            counts(&snap),
            vec![
                row("(untracked)", Backend, 1),
                row("(untracked)", Simulator, 1),
                row("backprop", Backend, 1),
                row("simulation", Simulator, 2),
                row("step", Backend, 1),
                row("step", Cuda, 1),
            ]
        );
        // The snapshot folded copies: nothing is counted twice.
        assert_eq!(trace.iterations, 1);
        assert_eq!(
            counts(&trace),
            vec![
                row("(untracked)", Backend, 1),
                row("(untracked)", Simulator, 1),
                row("backprop", Backend, 2),
                row("simulation", Simulator, 2),
                row("step", Backend, 1),
                row("step", Cuda, 1),
            ]
        );
        assert_eq!(trace.transitions_for("backprop", TransitionKind::Simulator), 0);
        assert_eq!(trace.counts.backend_transitions, 4);
        assert_eq!(trace.counts.simulator_transitions, 3);
    }

    /// Every CUDA API event carries the API's own name, from the labels
    /// built once per profiler.
    #[test]
    fn cuda_api_labels_name_their_api() {
        let (rls, _clock) = profiler(Toggles::none());
        for api in CudaApiKind::ALL {
            rls.on_api_exit(api, TimeNs::ZERO, TimeNs::from_nanos(1));
        }
        let names: Vec<String> = rls.finish().events.iter().map(|e| e.name.to_string()).collect();
        let want: Vec<String> = CudaApiKind::ALL.iter().map(|api| api.to_string()).collect();
        assert_eq!(names, want);
    }

    #[test]
    #[should_panic(expected = "open operations")]
    fn finish_with_open_operation_panics() {
        let (rls, _clock) = profiler(Toggles::none());
        let guard = rls.operation("left_open");
        let _ = rls.finish();
        drop(guard);
    }

    /// Collects emitted batches for streaming assertions.
    #[derive(Default)]
    struct VecSink(Mutex<Vec<Vec<Event>>>);

    impl EventSink for VecSink {
        fn emit(&self, events: Vec<Event>) {
            self.0.lock().push(events);
        }
    }

    impl VecSink {
        fn concat(&self) -> Vec<Event> {
            self.0.lock().iter().flatten().cloned().collect()
        }
    }

    /// Streaming delivers every event exactly once, in record order, and
    /// the finished trace is byte-identical to a non-streamed run.
    #[test]
    fn streaming_sink_receives_the_full_stream_once() {
        let (rls, clock) = profiler(Toggles::none());
        rls.set_phase("warmup");
        {
            let _op = rls.operation("early");
            clock.advance(DurationNs::from_micros(2));
        }
        let sink = Arc::new(VecSink::default());
        // Attaching mid-run delivers the backlog immediately.
        rls.stream_to(sink.clone(), 2);
        assert_eq!(sink.concat().len(), 1, "backlog (closed `early` op) delivered on attach");
        for i in 0..5 {
            let _op = rls.operation(if i % 2 == 0 { "a" } else { "b" });
            clock.advance(DurationNs::from_micros(1));
        }
        let trace = rls.finish();
        // The sink saw exactly the trace's event stream, in order.
        assert_eq!(sink.concat(), trace.events);
        // And the phase close (recorded at finish) arrived too.
        assert!(sink.concat().iter().any(|e| e.kind == EventKind::Phase));
    }

    /// A sink sees batches in record order even when two threads record
    /// into one profiler and the first batch's `emit` is slow: the
    /// second thread's batch must not overtake it.
    #[test]
    fn batches_reach_the_sink_in_record_order_across_threads() {
        #[derive(Default)]
        struct SlowFirstSink {
            emits: std::sync::atomic::AtomicUsize,
            batches: VecSink,
        }
        impl EventSink for SlowFirstSink {
            fn emit(&self, events: Vec<Event>) {
                if self.emits.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                self.batches.emit(events);
            }
        }

        let (rls, clock) = profiler(Toggles::none());
        let sink = Arc::new(SlowFirstSink::default());
        rls.stream_to(sink.clone(), 1);
        let first = {
            let rls = rls.clone();
            let clock = clock.clone();
            std::thread::spawn(move || {
                let _op = rls.operation("first");
                clock.advance(DurationNs::from_micros(1));
            })
        };
        while sink.emits.load(std::sync::atomic::Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        {
            let _op = rls.operation("second");
            clock.advance(DurationNs::from_micros(1));
        }
        first.join().unwrap();
        let trace = rls.finish();
        let names: Vec<&str> = trace.events.iter().map(|e| &*e.name).collect();
        assert_eq!(names, ["first", "second"]);
        assert_eq!(sink.batches.concat(), trace.events);
    }

    /// Regression: a phase set before `attach` (or before any recorded
    /// work) is profiler state, not yet an event — it must survive into
    /// both the finished trace and a mid-run [`Profiler::snapshot`],
    /// which synthesizes the still-open phase. A naive snapshot that
    /// copied only the event buffer silently lost it.
    #[test]
    fn phase_set_before_attach_is_not_lost() {
        let clock = VirtualClock::new();
        let rls = Profiler::new(
            clock.clone(),
            ProfilerConfig { toggles: Toggles::none(), ..ProfilerConfig::default() },
        );
        rls.set_phase("bootstrap");
        let mut py = PyRuntime::new(clock.clone(), PyCostConfig::default());
        let mut cuda = CudaContext::new(
            clock.clone(),
            rlscope_sim::gpu::GpuDevice::new(1),
            rlscope_sim::cuda::CudaCostConfig::default(),
        );
        rls.attach(&mut py, &mut cuda);
        py.exec(DurationNs::from_micros(4));

        // Mid-run: the open phase appears as a synthesized event.
        let snap = rls.snapshot();
        let phases: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Phase)
            .map(|e| (&*e.name, e.start.as_nanos(), e.end.as_nanos()))
            .collect();
        assert_eq!(phases, vec![("bootstrap", 0, 4_000)]);

        // The snapshot did not close anything: the run continues and the
        // finished trace carries the real phase once, spanning the run.
        py.exec(DurationNs::from_micros(6));
        let trace = rls.finish();
        let phases: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Phase)
            .map(|e| (&*e.name, e.start.as_nanos(), e.end.as_nanos()))
            .collect();
        assert_eq!(phases, vec![("bootstrap", 0, 10_000)]);
    }

    /// `snapshot` synthesizes open operations at the current clock and
    /// leaves the profiler untouched.
    #[test]
    fn snapshot_synthesizes_open_operations_nondestructively() {
        let (rls, clock) = profiler(Toggles::none());
        let _outer = rls.operation("outer");
        clock.advance(DurationNs::from_micros(3));

        let snap = rls.snapshot();
        assert_eq!(snap.wall_end, TimeNs::from_nanos(3_000));
        let ops: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Operation)
            .map(|e| (&*e.name, e.duration().as_nanos()))
            .collect();
        assert_eq!(ops, vec![("outer", 3_000)]);

        clock.advance(DurationNs::from_micros(2));
        drop(_outer);
        let trace = rls.finish();
        let ops: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Operation)
            .map(|e| (&*e.name, e.duration().as_nanos()))
            .collect();
        assert_eq!(ops, vec![("outer", 5_000)]);
    }
}
