//! The seeded synthetic event generator: one profiler-shaped stream per
//! session — 4 processes, 8 operation names, operations nesting CPU and
//! GPU activity, phases closing every few trace-seconds — emitted in
//! close order like a real profiler's.
//!
//! Density is about 40 k events per second of
//! *trace* time, so a 400 k-event session spans about ten of the
//! daemon's default 1 s rollup segments: rollup cost scales with the
//! segment count, which a nanosecond-stride fixture hides.

use rlscope_core::event::{CpuCategory, Event, EventKind, GpuCategory};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::rng::SimRng;
use rlscope_sim::time::TimeNs;
use std::sync::Arc;

/// Approximate generated events per second of trace time.
#[cfg(test)]
const EVENTS_PER_TRACE_SEC: u64 = 40_000;
/// Processes per session.
pub const PIDS: u32 = 4;
/// Operation annotation names.
pub const OPERATIONS: [&str; 8] = [
    "inference",
    "simulation",
    "backpropagation",
    "replay_sample",
    "env_reset",
    "target_update",
    "log_metrics",
    "checkpoint",
];
/// Phase names, cycled per process.
pub const PHASES: [&str; 3] = ["collect", "train", "evaluate"];

const BACKEND_CALLS: [&str; 4] = ["matmul", "relu", "adam_step", "softmax"];
const CUDA_APIS: [&str; 2] = ["cudaLaunchKernel", "cudaMemcpyAsync"];
const KERNELS: [&str; 4] = ["sgemm", "relu_fwd", "adam_update", "reduce_sum"];
const SIMULATOR_CALLS: [&str; 2] = ["physics_step", "render"];

/// Interned names, so generating millions of events allocates each
/// string once (as a chunk decode's string table would).
struct Names {
    operations: Vec<Arc<str>>,
    phases: Vec<Arc<str>>,
    backend: Vec<Arc<str>>,
    cuda: Vec<Arc<str>>,
    kernels: Vec<Arc<str>>,
    simulator: Vec<Arc<str>>,
    python: Arc<str>,
    memcpy: Arc<str>,
}

impl Names {
    fn new() -> Names {
        let intern = |names: &[&str]| names.iter().map(|n| Arc::from(*n)).collect();
        Names {
            operations: intern(&OPERATIONS),
            phases: intern(&PHASES),
            backend: intern(&BACKEND_CALLS),
            cuda: intern(&CUDA_APIS),
            kernels: intern(&KERNELS),
            simulator: intern(&SIMULATOR_CALLS),
            python: Arc::from("python"),
            memcpy: Arc::from("memcpy_h2d"),
        }
    }
}

struct Proc {
    pid: ProcessId,
    cursor: u64,
    phase_start: u64,
    phase_len: u64,
    phase_idx: usize,
}

/// Generates exactly `n` events for one session. The same `(seed, n)`
/// always gives the same events; `pid_base` offsets the process ids so
/// sessions merged by a fleet query keep distinct processes.
pub fn session_events(seed: u64, pid_base: u32, n: usize) -> Vec<Event> {
    let names = Names::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut procs: Vec<Proc> = (0..PIDS)
        .map(|i| Proc {
            pid: ProcessId(pid_base + i),
            // Stagger the processes so their operations interleave.
            cursor: rng.below(200_000) as u64,
            phase_start: 0,
            phase_len: 2_000_000_000 + rng.below(1_000_000_000) as u64,
            phase_idx: i as usize % PHASES.len(),
        })
        .collect();
    let mut out: Vec<Event> = Vec::with_capacity(n + 32);
    let ev = |pid, kind, name: &Arc<str>, start: u64, end: u64| {
        Event::new(pid, kind, name.clone(), TimeNs::from_nanos(start), TimeNs::from_nanos(end))
    };
    while out.len() < n {
        // The process furthest behind runs its next operation, which
        // keeps the merged stream roughly close-ordered across pids.
        let p = procs.iter_mut().min_by_key(|p| p.cursor).expect("PIDS > 0");
        let op_start = p.cursor;
        let mut t = op_start + rng.below(5_000) as u64;
        for _ in 0..6 + rng.below(10) {
            let dur = 50_000 + rng.below(180_000) as u64;
            let end = t + dur;
            match rng.below(20) {
                0..=6 => {
                    out.push(ev(p.pid, EventKind::Cpu(CpuCategory::Python), &names.python, t, end))
                }
                7..=11 => {
                    // A backend call launching a kernel: the CUDA API
                    // call nests inside it, the kernel runs on past it.
                    let api = &names.cuda[rng.below(names.cuda.len())];
                    out.push(ev(
                        p.pid,
                        EventKind::Cpu(CpuCategory::CudaApi),
                        api,
                        t + dur / 4,
                        t + dur / 2,
                    ));
                    let call = &names.backend[rng.below(names.backend.len())];
                    out.push(ev(p.pid, EventKind::Cpu(CpuCategory::Backend), call, t, end));
                    let kernel = &names.kernels[rng.below(names.kernels.len())];
                    out.push(ev(
                        p.pid,
                        EventKind::Gpu(GpuCategory::Kernel),
                        kernel,
                        t + dur / 2,
                        end + dur / 4,
                    ));
                }
                12..=14 => {
                    let call = &names.simulator[rng.below(names.simulator.len())];
                    out.push(ev(p.pid, EventKind::Cpu(CpuCategory::Simulator), call, t, end));
                }
                15..=17 => {
                    let kernel = &names.kernels[rng.below(names.kernels.len())];
                    out.push(ev(p.pid, EventKind::Gpu(GpuCategory::Kernel), kernel, t, end));
                }
                _ => {
                    out.push(ev(p.pid, EventKind::Gpu(GpuCategory::Memcpy), &names.memcpy, t, end))
                }
            }
            t = end + rng.below(40_000) as u64;
        }
        let op = &names.operations[rng.below(names.operations.len())];
        out.push(ev(p.pid, EventKind::Operation, op, op_start, t));
        p.cursor = t + rng.below(10_000) as u64;
        if p.cursor - p.phase_start >= p.phase_len {
            out.push(ev(
                p.pid,
                EventKind::Phase,
                &names.phases[p.phase_idx],
                p.phase_start,
                p.cursor,
            ));
            p.phase_start = p.cursor;
            p.phase_idx = (p.phase_idx + 1) % PHASES.len();
            p.phase_len = 2_000_000_000 + rng.below(1_000_000_000) as u64;
        }
    }
    out.truncate(n);
    out
}

/// `[min start, max end)` of a stream, in nanoseconds.
pub fn span_ns(events: &[Event]) -> (u64, u64) {
    let lo = events.iter().map(|e| e.start.as_nanos()).min().unwrap_or(0);
    let hi = events.iter().map(|e| e.end.as_nanos()).max().unwrap_or(0);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = session_events(7, 0, 5_000);
        assert_eq!(a.len(), 5_000);
        assert_eq!(a, session_events(7, 0, 5_000));
        assert_ne!(a, session_events(8, 0, 5_000));
        // A longer stream from the same seed extends the shorter one.
        assert_eq!(a[..], session_events(7, 0, 6_000)[..5_000]);
    }

    #[test]
    fn stream_has_the_documented_shape() {
        // Five trace-seconds: long enough for every process to close a phase.
        let events = session_events(1, 8, 200_000);
        let pids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.pid.as_u32()).collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![8, 9, 10, 11]);
        let ops: std::collections::BTreeSet<&str> =
            events.iter().filter(|e| e.kind == EventKind::Operation).map(|e| &*e.name).collect();
        assert_eq!(ops.len(), OPERATIONS.len());
        assert!(events.iter().any(|e| e.kind == EventKind::Phase));
        assert!(events.iter().all(|e| e.end >= e.start));
        // Density: within 25% of the documented events per trace-second.
        let (lo, hi) = span_ns(&events);
        let per_sec = events.len() as f64 / ((hi - lo) as f64 / 1e9);
        let want = EVENTS_PER_TRACE_SEC as f64;
        assert!((per_sec - want).abs() < 0.25 * want, "{per_sec} events per trace-second");
    }
}
