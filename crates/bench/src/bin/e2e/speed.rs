//! How fast the machine is during this run, so that a run taken in one
//! of its slow stretches can be compared with one that was not.
//!
//! The benchmark runs on a shared two-core virtual machine whose host
//! slows it, with nothing else running in the guest, by 1.3× to 1.6×
//! for minutes at a time: wall time and CPU time alike, every kind of
//! work, no steal time shown. Ten back-to-back runs of which five fall
//! into such a stretch spread 25–45 % (inter-quartile ÷ median) on every
//! timing, where the builder's contract allows 25 % at most; ten runs
//! outside one spread 2–10 %. No estimator over a run's own samples can
//! tell the two apart, because the whole run is slow.
//!
//! So between a workload's rounds — never inside a timed window, and
//! never while a generator thread runs — the harness times a fixed
//! piece of work (the *probe*), and each run's gated timings are divided
//! by the run's median probe time over [`REFERENCE_MS`]. The measured
//! value is kept beside the corrected one (`raw` in the record).

use crate::stats::median;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The probe's time on this box outside a slow stretch, so that a
/// corrected time reads in the same unit as a measured one. On another
/// machine every corrected value is off by one constant factor, alike
/// for parent and change.
pub const REFERENCE_MS: f64 = 1.05;

/// One probe: both cores at once, each running a fixed sequence of
/// small allocations — each touched, a sliding window of them kept
/// alive — three times over; a thread's time is the median of its
/// three, the probe's the longer of the two. Two threads because nearly
/// all the timed work keeps two busy (a client and the daemon, or the
/// daemon's decode workers). Of the kernels tried — ALU, random memory
/// walk, streaming fill, an uninstrumented training run — this one's
/// time followed the slowdown of the real work most closely. Takes
/// 5–8 ms.
fn probe_ms() -> f64 {
    fn one_core() -> f64 {
        let mut parts = [churn_ms(), churn_ms(), churn_ms()];
        parts.sort_by(f64::total_cmp);
        parts[1]
    }
    let (mine, other) = std::thread::scope(|scope| {
        let other = scope.spawn(one_core);
        (one_core(), other.join().expect("the probe does not panic"))
    });
    mine.max(other)
}

fn churn_ms() -> f64 {
    let mut x = 0xdead_beef_cafe_f00du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let started = Instant::now();
    let mut keep: Vec<Vec<u64>> = Vec::with_capacity(257);
    for _ in 0..2_700 {
        let n = 16 + (next() % 2048) as usize;
        keep.push(vec![n as u64; n]);
        if keep.len() > 256 {
            keep.swap_remove((next() % 256) as usize);
        }
    }
    std::hint::black_box(&keep);
    started.elapsed().as_secs_f64() * 1e3
}

/// How long [`warm_up`] keeps the cores busy.
const WARM_UP: Duration = Duration::from_millis(2500);

/// Keeps every core busy for [`WARM_UP`], before a run's first set-up.
///
/// On this virtual machine the latency of waking a halted core has two
/// self-sustaining regimes: after a couple of seconds of full load
/// wake-ups are quick and stay quick while some load continues; after
/// some seconds of idling they are slow and stay slow under a load that
/// does not fill both cores. A training run streamed into the daemon,
/// whose threads block and wake thousands of times a second, reads
/// 3.2 M events/s in the one and 2.4 M in the other, and which one a run
/// met depended on what the machine did before it started — the probe
/// reads the same in both. Starting every run from full load makes it
/// the one.
pub fn warm_up() {
    let until = Instant::now() + WARM_UP;
    let spin = move || {
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    };
    let others = std::thread::available_parallelism().map_or(1, usize::from) - 1;
    std::thread::scope(|scope| {
        for _ in 0..others {
            scope.spawn(spin);
        }
        spin();
    });
}

/// The probes of one run.
#[derive(Debug, Default)]
pub struct Speed(Mutex<Vec<f64>>);

impl Speed {
    /// Takes one probe. Call between rounds only: it loads both cores.
    pub fn probe(&self) {
        let ms = probe_ms();
        self.0.lock().expect("nothing panics holding the lock").push(ms);
    }

    /// The run's slowdown factor, 1.0 meaning reference speed: the
    /// median of its probes (one alone reads ±10 % on a calm machine)
    /// over [`REFERENCE_MS`].
    pub fn factor(&self) -> f64 {
        let probes = self.0.lock().expect("see Speed::probe");
        if probes.is_empty() {
            return 1.0;
        }
        median(&probes) / REFERENCE_MS
    }

    pub fn probes(&self) -> usize {
        self.0.lock().expect("see Speed::probe").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_the_median_probe_over_the_reference() {
        let speed = Speed::default();
        assert_eq!((speed.factor(), speed.probes()), (1.0, 0));
        for ms in [1.0, 3.0, 2.0] {
            speed.0.lock().unwrap().push(ms * REFERENCE_MS);
        }
        assert_eq!((speed.factor(), speed.probes()), (2.0, 3));
        speed.probe();
        assert!(speed.probes() == 4 && speed.factor().is_finite() && speed.factor() > 0.0);
    }
}
