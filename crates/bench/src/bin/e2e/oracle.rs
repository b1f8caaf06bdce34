//! The correctness oracle: every daemon answer is compared byte for
//! byte, as canonical JSON, with an in-process `Analysis` over the same
//! generated events. A mismatch is a failed operation, and a failed
//! operation fails the run.

use rlscope_collector::{CollectorError, ErrorCode, QuerySpec};
use rlscope_core::analysis::Analysis;
use rlscope_core::event::Event;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::fmt::Display;

/// Operations attempted and failed, with the first few failure
/// messages. Counted as failed: refused connections, `ERROR` frames
/// that are not expected typed answers, reference mismatches, timeouts.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Server `ERROR` frames seen, expected typed refusals included.
    pub error_frames: u64,
}

/// Failure messages kept verbatim; the count is always exact.
const KEPT_FAILURES: usize = 8;

impl Checks {
    pub fn fail(&mut self, what: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what.to_string());
        }
    }

    /// One operation that must hold.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what);
        }
    }

    /// One operation that must have succeeded; returns its value. A
    /// refused connection, an unexpected `ERROR` frame and an expired
    /// read timeout all arrive here as the `Err`.
    pub fn ok<T>(&mut self, result: Result<T, CollectorError>, what: &str) -> Option<T> {
        match result {
            Ok(value) => {
                self.attempted += 1;
                Some(value)
            }
            Err(e) => {
                self.error_frames += u64::from(matches!(e, CollectorError::Remote { .. }));
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// One answer that must equal the reference byte for byte.
    pub fn same_json(&mut self, got: &str, want: &str, what: impl Display) {
        if got == want {
            self.attempted += 1;
        } else {
            let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
            self.fail(format!(
                "{what}: answer differs from the reference at byte {at} \
                 (got {} bytes, want {})",
                got.len(),
                want.len()
            ));
        }
    }

    /// One probe that must be refused with the typed `code` — an
    /// expected answer, not a failure.
    pub fn typed_refusal<T>(
        &mut self,
        result: Result<T, CollectorError>,
        code: ErrorCode,
        what: impl Display,
    ) {
        self.error_frames += u64::from(matches!(result, Err(CollectorError::Remote { .. })));
        match result {
            Err(CollectorError::Remote { code: Some(got), .. }) if got == code => {
                self.attempted += 1;
            }
            Err(e) => self.fail(format!("{what}: wanted {code:?}, got {e}")),
            Ok(_) => self.fail(format!("{what}: wanted {code:?}, got an answer")),
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.error_frames += other.error_frames;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// The reference answer to `spec` over `events`: the same filters and
/// grouping the daemon applies, run through the in-memory row engine.
pub fn reference(events: &[Event], spec: &QuerySpec) -> String {
    let mut analysis = Analysis::of_events(events);
    if let Some(phase) = &spec.phase {
        analysis = analysis.phase(phase);
    }
    if let Some(pid) = spec.process {
        analysis = analysis.process(ProcessId(pid));
    }
    if let Some(op) = &spec.operation {
        analysis = analysis.operation(op);
    }
    if let Some((lo, hi)) = spec.window {
        analysis = analysis.time_window(TimeNs::from_nanos(lo), TimeNs::from_nanos(hi));
    }
    analysis
        .group_by(spec.dims.iter().copied())
        .canonical_json()
        .expect("an in-memory analysis without correction cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlscope_core::analysis::Dim;

    #[test]
    fn checks_count_every_operation_and_keep_first_failures() {
        let mut checks = Checks::default();
        checks.check(true, "fine");
        checks.same_json("{\"a\":1}", "{\"a\":1}", "equal");
        checks.same_json("{\"a\":1}", "{\"a\":2}", "q7");
        let refusal = |code| Err::<(), _>(CollectorError::Remote { code, message: "no".into() });
        let timed_out = std::io::Error::from(std::io::ErrorKind::TimedOut);
        assert_eq!(checks.ok(Err::<(), _>(timed_out.into()), "query"), None);
        assert_eq!(checks.ok(refusal(Some(ErrorCode::Io)), "query"), None);
        assert_eq!(checks.ok(Ok(5), "connect"), Some(5));
        checks.typed_refusal(
            refusal(Some(ErrorCode::UnsupportedQuery)),
            ErrorCode::UnsupportedQuery,
            "probe",
        );
        checks.typed_refusal(refusal(Some(ErrorCode::Io)), ErrorCode::UnsupportedQuery, "probe");
        assert_eq!((checks.attempted, checks.failed, checks.error_frames), (8, 4, 3));
        assert!(checks.failures[0].contains("q7") && checks.failures[0].contains("byte 5"));
        let mut total = Checks::default();
        total.merge(checks);
        assert_eq!((total.attempted, total.failed, total.failures.len()), (8, 4, 4));
    }

    #[test]
    fn reference_applies_the_spec() {
        let events = crate::synth::session_events(3, 0, 4_000);
        let all = reference(&events, &QuerySpec::session("s"));
        let grouped = reference(&events, &QuerySpec::session("s").group_by([Dim::Process]));
        let one = reference(&events, &QuerySpec::session("s").process(0));
        assert_ne!(all, grouped);
        assert_ne!(all, one);
        assert_eq!(all, Analysis::of_events(&events).canonical_json().unwrap());
    }
}
