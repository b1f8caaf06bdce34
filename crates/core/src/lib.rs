//! # rlscope-core — the RL-Scope cross-stack profiler
//!
//! The paper's primary contribution (MLSys 2021): a profiler for deep-RL
//! training workloads that
//!
//! 1. lets developers annotate high-level **algorithmic operations** and
//!    training **phases** ([`profiler::Profiler::operation`],
//!    [`profiler::Profiler::set_phase`] — paper §3.1);
//! 2. **transparently intercepts** CUDA API calls, GPU activity, and
//!    Python↔C transitions via hooks ([`profiler::Profiler::attach`] —
//!    §3.2);
//! 3. computes **cross-stack event overlap**, scoping every instant of
//!    CPU/GPU time to the training phase, process, innermost operation,
//!    and finest stack level ([`overlap`], [`analysis`] — §3.3, Figure 3);
//! 4. **calibrates and corrects profiling overhead**: delta calibration
//!    for type-uniform book-keeping, difference-of-average calibration for
//!    closed-source CUPTI inflation, and per-bucket subtraction at the
//!    occurrence points ([`mod@calibrate`],
//!    [`analysis::Analysis::corrected`] — §3.4, Appendix C);
//! 5. stores traces **asynchronously** in rotated binary chunks
//!    ([`store`] — Appendix A.1);
//! 6. renders the paper's reports: time breakdowns (overall, per phase,
//!    per process), transition counts, and the multi-process view with
//!    the `nvidia-smi` comparison ([`report`]).
//!
//! # The unified query API
//!
//! Every breakdown flows through one composable pipeline,
//! [`analysis::Analysis`]:
//!
//! ```text
//! source            filters            grouping           sinks
//! ─────────────     ──────────────     ───────────────    ─────────────────
//! of(&trace)        .phase(..)         .group_by([        .table()
//! merged(&[..])     .process(..)          Dim::Phase,     .tables()
//! of_events(..)     .operation(..)        Dim::Process,   .report()
//! from_chunk_dir    .time_window(..)      Dim::Operation  .profile()
//! of_live(..)       .corrected(&cal)   ])                 .canonical_json()
//! ```
//!
//! ```
//! use rlscope_core::analysis::{Analysis, Dim};
//! use rlscope_core::prelude::*;
//! use rlscope_sim::VirtualClock;
//! use rlscope_sim::time::DurationNs;
//!
//! let clock = VirtualClock::new();
//! // Zero-overhead observer configuration, so durations below are exact.
//! let config = ProfilerConfig { toggles: Toggles::none(), ..ProfilerConfig::default() };
//! let rls = Profiler::new(clock.clone(), config);
//! rls.set_phase("data_collection");
//! {
//!     let _op = rls.operation("mcts_tree_search");
//!     clock.advance(DurationNs::from_millis(2));
//!     let _inner = rls.operation("expand_leaf");
//!     clock.advance(DurationNs::from_millis(1));
//! }
//! let mut trace = rls.finish();
//! assert_eq!(trace.counts.annotations, 2);
//!
//! // The observer above records annotations only; stand in for the
//! // intercepted Python span the full stack would have captured, so the
//! // sweep has CPU time to attribute.
//! use rlscope_sim::ids::ProcessId;
//! use rlscope_sim::time::TimeNs;
//! trace.events.push(Event::new(
//!     ProcessId(0),
//!     EventKind::Cpu(CpuCategory::Python),
//!     "python",
//!     TimeNs::ZERO,
//!     trace.wall_end,
//! ));
//!
//! // One pipeline for every scope: overall, per phase, per process.
//! let overall = Analysis::of(&trace).table().unwrap();
//! assert_eq!(overall.total(), DurationNs::from_millis(3));
//! let by_phase = Analysis::of(&trace).group_by([Dim::Phase]).tables().unwrap();
//! assert_eq!(by_phase.len(), 1); // everything ran inside data_collection
//! let phase_total: DurationNs = by_phase.iter().map(|(_, t)| t.total()).sum();
//! assert_eq!(phase_total, overall.total());
//! ```
//!
//! # Migrating from the historical entry points
//!
//! Two pre-`Analysis` entry points remain as thin wrappers, each exactly
//! one query; the others are gone (corrected and uncorrected profiles
//! are `Analysis::of(&trace)[.corrected(&cal)].profile()`, a chunk
//! directory is read through [`analysis::Analysis::from_chunk_dir`]):
//!
//! | historical entry point                      | `Analysis` query |
//! |---------------------------------------------|------------------|
//! | `compute_overlap(events)`                   | `Analysis::of_events(events).table()` |
//! | `trace.breakdown()`                         | `Analysis::of(&trace).table()` |
//!
//! Queries the old doors could not express — per-phase tables, phase ×
//! process cross products, time windows, corrected per-phase views — are
//! just more combinations of the same builder.
//!
//! # Phase tagging and how much a streamed query holds
//!
//! The profiler records a phase event when the phase **closes**, so in a
//! raw stream a long-lived phase arrives late with an early start time.
//! A chunk-directory query reads each chunk once and keeps, per sweep,
//! only the boundaries the footers of the chunks still to come say may
//! yet be preceded ([`overlap::OverlapSweep::release_to`]; see the
//! [`analysis`] docs on the release frontier). The late phase event's
//! early start is in its chunk's footer, so the frontier waits for it:
//! a raw dump with a whole-run phase is held whole, its start-sorted
//! rewrite ([`store::reorder_chunk_dir`]) about one chunk at a time, and
//! the tables are identical. There is no knob — the bound is derived
//! from the data — and a footer that misstates it is a typed
//! corruption error, never a wrong table. See
//! [`overlap::OverlapSweep::with_phase_tagging`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod calibrate;
pub mod correct;
pub mod event;
pub mod intern;
pub mod overlap;
pub mod profiler;
pub mod report;
pub mod rollup;
pub mod store;
pub mod trace;

/// Convenient glob-import of the most-used types.
pub mod prelude {
    pub use crate::analysis::{Analysis, AnalysisError, Dim, GroupKey, LiveState, LiveTables};
    pub use crate::calibrate::{calibrate, Calibration, RunStats};
    pub use crate::correct::{CorrectedProfile, OverheadBreakdown};
    pub use crate::event::{BookkeepingCounts, CpuCategory, Event, EventKind, GpuCategory};
    pub use crate::overlap::{compute_overlap, BreakdownTable, BucketKey, OverlapSweep, NO_PHASE};
    pub use crate::profiler::{OperationGuard, Profiler, ProfilerConfig, Toggles, TransitionKind};
    pub use crate::report::{
        BreakdownReport, MultiPhaseReport, MultiProcessReport, TransitionReport,
    };
    pub use crate::trace::Trace;
}

pub use analysis::{Analysis, AnalysisError, Dim, GroupKey, LiveState, LiveTables};
pub use calibrate::{calibrate, Calibration, RunStats};
pub use correct::{CorrectedProfile, OverheadBreakdown};
pub use event::{BookkeepingCounts, CpuCategory, Event, EventKind, GpuCategory};
pub use overlap::{compute_overlap, BreakdownTable, BucketKey, OverlapSweep, NO_PHASE};
pub use profiler::{OperationGuard, Profiler, ProfilerConfig, Toggles, TransitionKind};
pub use report::{BreakdownReport, MultiPhaseReport, MultiProcessReport, TransitionReport};
pub use trace::Trace;
