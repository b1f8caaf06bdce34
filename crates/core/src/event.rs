//! The cross-stack event model.
//!
//! Everything RL-Scope records is an interval on a process timeline: pure
//! Python execution, native-library (simulator / ML backend) intervals,
//! CUDA API calls, GPU kernel and memcpy activity, and the user's
//! algorithmic operation annotations. The offline overlap sweep
//! ([`crate::overlap`]) consumes these directly.

use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::{DurationNs, TimeNs};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// CPU-side stack levels (the "patterns" of the paper's breakdown plots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CpuCategory {
    /// High-level language execution.
    Python,
    /// Simulator native library.
    Simulator,
    /// ML backend native library.
    Backend,
    /// CPU time inside CUDA API calls.
    CudaApi,
}

impl CpuCategory {
    /// Priority when multiple CPU categories are simultaneously active:
    /// the *finest* (most deeply nested) level wins — CUDA API time is
    /// carved out of Backend time, which is carved out of Python time.
    pub fn priority(self) -> u8 {
        match self {
            CpuCategory::Python => 0,
            CpuCategory::Simulator => 1,
            CpuCategory::Backend => 1,
            CpuCategory::CudaApi => 2,
        }
    }
}

impl fmt::Display for CpuCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpuCategory::Python => "Python",
            CpuCategory::Simulator => "Simulator",
            CpuCategory::Backend => "Backend",
            CpuCategory::CudaApi => "CUDA",
        };
        f.write_str(s)
    }
}

/// GPU-side activity kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GpuCategory {
    /// Kernel execution.
    Kernel,
    /// Memory copy.
    Memcpy,
}

impl fmt::Display for GpuCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuCategory::Kernel => write!(f, "GPU kernel"),
            GpuCategory::Memcpy => write!(f, "GPU memcpy"),
        }
    }
}

/// What an event interval represents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// CPU execution at a given stack level.
    Cpu(CpuCategory),
    /// GPU activity.
    Gpu(GpuCategory),
    /// A user operation annotation (`rls.operation(...)`).
    Operation,
    /// A training phase annotation (`rls.set_phase(...)`).
    Phase,
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// The process this event belongs to.
    pub pid: ProcessId,
    /// What the interval represents.
    pub kind: EventKind,
    /// Detail name: operation name, CUDA API, kernel name, or a static
    /// category label.
    pub name: Arc<str>,
    /// Interval start.
    pub start: TimeNs,
    /// Interval end.
    pub end: TimeNs,
}

impl Event {
    /// Creates an event.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented debug-build check that `end >= start`"
    )]
    pub fn new(
        pid: ProcessId,
        kind: EventKind,
        name: impl Into<Arc<str>>,
        start: TimeNs,
        end: TimeNs,
    ) -> Self {
        debug_assert!(end >= start, "event ends before it starts");
        Event { pid, kind, name: name.into(), start, end }
    }

    /// Interval length.
    pub fn duration(&self) -> DurationNs {
        self.end - self.start
    }

    /// True if this interval intersects `[start, end)`.
    pub fn overlaps(&self, start: TimeNs, end: TimeNs) -> bool {
        self.start < end && self.end > start
    }
}

/// Book-keeping occurrence counters accumulated during a profiled run —
/// the "number of times the book-keeping code was called" denominators of
/// the paper's delta calibration (Appendix C.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BookkeepingCounts {
    /// Operation annotations recorded (each costs two timestamps).
    pub annotations: u64,
    /// Python→Backend transitions intercepted.
    pub backend_transitions: u64,
    /// Python→Simulator transitions intercepted.
    pub simulator_transitions: u64,
    /// CUDA API calls intercepted.
    pub cuda_api_calls: u64,
}

impl BookkeepingCounts {
    /// Total Python↔C transitions (both libraries).
    pub fn total_transitions(&self) -> u64 {
        self.backend_transitions + self.simulator_transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u64, end: u64) -> Event {
        Event::new(
            ProcessId(0),
            EventKind::Cpu(CpuCategory::Python),
            "python",
            TimeNs::from_nanos(start),
            TimeNs::from_nanos(end),
        )
    }

    #[test]
    fn duration_and_overlap() {
        let e = ev(10, 30);
        assert_eq!(e.duration(), DurationNs::from_nanos(20));
        assert!(e.overlaps(TimeNs::from_nanos(29), TimeNs::from_nanos(40)));
        assert!(!e.overlaps(TimeNs::from_nanos(30), TimeNs::from_nanos(40)));
        assert!(!e.overlaps(TimeNs::from_nanos(0), TimeNs::from_nanos(10)));
    }

    #[test]
    fn cpu_priority_nests_cuda_inside_backend_inside_python() {
        assert!(CpuCategory::CudaApi.priority() > CpuCategory::Backend.priority());
        assert!(CpuCategory::Backend.priority() > CpuCategory::Python.priority());
        assert_eq!(CpuCategory::Backend.priority(), CpuCategory::Simulator.priority());
    }

    #[test]
    fn counters_sum_transitions() {
        let c = BookkeepingCounts {
            backend_transitions: 3,
            simulator_transitions: 4,
            ..Default::default()
        };
        assert_eq!(c.total_transitions(), 7);
    }
}
