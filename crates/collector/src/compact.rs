//! Compaction and retention: the machinery that ages a finished session
//! down the storage ladder (raw → sorted → rollup → gone) without ever
//! losing a queryable tier.
//!
//! This module holds the pieces that are independent of the daemon's
//! session table: the [`RetentionPolicy`] dial and its parser, and the
//! **atomic tier transitions** themselves. It holds no thread and no
//! lock: a transition runs on whichever thread calls it. The daemon side
//! — the retention pass, which runs the due transitions one after
//! another on the timer thread, per-session eligibility, and query
//! routing across tiers — lives in [`crate::daemon`].
//!
//! # The transition protocol
//!
//! Every tier transition on a session directory `D` follows the same
//! four steps, in order:
//!
//! 1. build the new tier into the temp dir `D/.tier.tmp` (a stale temp
//!    dir from an earlier crash is wiped first);
//! 2. `rename(D/.tier.tmp, D/<tier>)` — the atomic publish;
//! 3. rewrite `D/SESSION` with the new [`StorageTier`] (itself atomic:
//!    temp file + rename);
//! 4. delete the prior tier's files.
//!
//! A crash at any point leaves the session queryable at the tier its
//! registry record names: before step 3 the record still names the
//! prior tier (whose files steps 1–2 never touch), after step 3 the new
//! tier is durably complete. Startup recovery runs `reconcile_tiers`
//! to finish the protocol — it removes the temp dir and any tier
//! directory the record does not name, which both cleans a pre-step-3
//! crash (stale new tier) and completes a post-step-3 one (stale prior
//! tier). A job interrupted before step 3 simply re-runs.

use crate::registry::StorageTier;
use rlscope_core::rollup::{rollup_chunk_dir, RollupStats};
use rlscope_core::store::{
    list_chunk_files, reorder_chunk_dir, ReorderStats, TraceIoError, MANIFEST_FILE,
};
use std::fs;
use std::path::Path;
use std::time::Duration;

/// Temp directory (inside the session directory) tier builds write
/// into before the atomic publish rename.
pub(crate) const TIER_TMP: &str = ".tier.tmp";

/// Chunk size for the sorted tier's rewritten v3 chunks.
const SORTED_CHUNK_BYTES: usize = 1 << 20;

/// How long a finished session may dwell at each tier before the
/// retention timer ages it down the ladder — the "retention as a dial"
/// knob (`rlscoped --retention raw=30m,sorted=12h,rollup=7d`).
///
/// Each field is the dwell *at that tier*: `raw` elapsed ⇒ compact to
/// sorted, `sorted` elapsed ⇒ roll up, `rollup` elapsed ⇒ prune (data
/// dir and registry record removed; the name becomes reusable). A
/// `None` field means sessions stay at that tier forever, so e.g.
/// `raw=1h` alone gives sorted-forever storage. Dwell is measured from
/// the session's last durable transition (the `SESSION` record's
/// mtime). Aborted sessions never compact — their partial data ages
/// straight from raw to pruned after the `raw` dwell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Dwell at the raw tier before compaction to sorted.
    pub raw: Option<Duration>,
    /// Dwell at the sorted tier before rollup.
    pub sorted: Option<Duration>,
    /// Dwell at the rollup tier before the session is pruned.
    pub rollup: Option<Duration>,
}

impl RetentionPolicy {
    /// Parses the `--retention` flag syntax: comma-separated
    /// `key=duration` pairs, keys `raw` / `sorted` / `rollup`, durations
    /// an integer with an `ms`, `s`, `m`, `h`, or `d` suffix
    /// (`raw=30m,sorted=12h,rollup=7d`). Keys may appear in any order;
    /// each at most once.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending pair.
    pub fn parse(s: &str) -> Result<RetentionPolicy, String> {
        let mut policy = RetentionPolicy::default();
        for pair in s.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("retention pair {pair:?} is not key=duration"))?;
            let dur = parse_duration(value.trim())
                .map_err(|e| format!("retention pair {pair:?}: {e}"))?;
            let slot = match key.trim() {
                "raw" => &mut policy.raw,
                "sorted" => &mut policy.sorted,
                "rollup" => &mut policy.rollup,
                other => {
                    return Err(format!(
                        "retention key {other:?} unknown (want raw, sorted, or rollup)"
                    ))
                }
            };
            if slot.replace(dur).is_some() {
                return Err(format!("retention key {key:?} given twice"));
            }
        }
        Ok(policy)
    }

    /// True when no dwell is configured (the retention timer has
    /// nothing to do).
    pub fn is_empty(&self) -> bool {
        self.raw.is_none() && self.sorted.is_none() && self.rollup.is_none()
    }

    /// The shortest configured dwell — what the retention timer's tick
    /// is derived from.
    pub(crate) fn min_dwell(&self) -> Option<Duration> {
        [self.raw, self.sorted, self.rollup].into_iter().flatten().min()
    }
}

/// Parses `30m`-style durations (integer + `ms`/`s`/`m`/`h`/`d`).
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, unit) = match s.find(|c: char| !c.is_ascii_digit()) {
        Some(split) => s.split_at(split),
        None => return Err(format!("duration {s:?} is missing a unit (ms, s, m, h, d)")),
    };
    let n: u64 = digits.parse().map_err(|_| format!("duration {s:?} has no leading integer"))?;
    let millis = match unit {
        "ms" => n,
        "s" => n.saturating_mul(1000),
        "m" => n.saturating_mul(60 * 1000),
        "h" => n.saturating_mul(60 * 60 * 1000),
        "d" => n.saturating_mul(24 * 60 * 60 * 1000),
        other => return Err(format!("duration unit {other:?} unknown (want ms, s, m, h, d)")),
    };
    Ok(Duration::from_millis(millis))
}

/// What a compaction job does to its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// Rewrite the raw close-ordered chunks into a start-sorted v3
    /// directory (`sorted/`).
    Sort,
    /// Roll the sorted tier up into segment summaries (`rollup/`).
    Rollup,
    /// Remove the session entirely (data dir, registry record, name).
    Prune,
}

/// Steps 1–2 of the transition protocol for raw → sorted: rewrites the
/// session's raw chunks into a start-sorted v3 directory and publishes
/// it at `dir/sorted` atomically. The raw tier is untouched; the caller
/// records the new tier and then calls [`drop_raw_files`].
///
/// # Errors
///
/// Filesystem or decode failures from the rewrite; the temp dir is
/// removed and the prior tier is intact.
pub(crate) fn sort_tier(dir: &Path) -> Result<ReorderStats, TraceIoError> {
    let tmp = dir.join(TIER_TMP);
    let _ = fs::remove_dir_all(&tmp);
    let stats = match reorder_chunk_dir(dir, &tmp, SORTED_CHUNK_BYTES) {
        Ok(stats) => stats,
        Err(e) => {
            let _ = fs::remove_dir_all(&tmp);
            return Err(e);
        }
    };
    let target = dir.join(StorageTier::Sorted.subdir().unwrap_or_default());
    let _ = fs::remove_dir_all(&target);
    fs::rename(&tmp, &target)?;
    Ok(stats)
}

/// Steps 1–2 for sorted → rollup: builds segment summaries from the
/// sorted tier (start-sorted input is what makes rollup group order
/// exact — see [`rlscope_core::rollup`]) and publishes them at
/// `dir/rollup` atomically.
///
/// # Errors
///
/// Filesystem or decode failures from the build; the temp dir is
/// removed and the prior tier is intact.
pub(crate) fn rollup_tier(dir: &Path, segment_ns: u64) -> Result<RollupStats, TraceIoError> {
    let src = dir.join(StorageTier::Sorted.subdir().unwrap_or_default());
    let tmp = dir.join(TIER_TMP);
    let _ = fs::remove_dir_all(&tmp);
    let stats = match rollup_chunk_dir(&src, &tmp, segment_ns) {
        Ok(stats) => stats,
        Err(e) => {
            let _ = fs::remove_dir_all(&tmp);
            return Err(e);
        }
    };
    let target = dir.join(StorageTier::Rollup.subdir().unwrap_or_default());
    let _ = fs::remove_dir_all(&target);
    fs::rename(&tmp, &target)?;
    Ok(stats)
}

/// Step 4 for raw → sorted: removes the top-level raw chunks, and the
/// `MANIFEST` an earlier daemon version wrote beside them. Best-effort
/// by contract — the new tier is already
/// recorded, so leftovers are cosmetic and recovery re-sweeps them.
pub(crate) fn drop_raw_files(dir: &Path) {
    if let Ok(files) = list_chunk_files(dir) {
        for file in files {
            let _ = fs::remove_file(file);
        }
    }
    let _ = fs::remove_file(dir.join(MANIFEST_FILE));
}

/// Step 4 for sorted → rollup.
pub(crate) fn drop_sorted_dir(dir: &Path) {
    if let Some(sub) = StorageTier::Sorted.subdir() {
        let _ = fs::remove_dir_all(dir.join(sub));
    }
}

/// Startup reconciliation: finish whatever transition a crash
/// interrupted, trusting the registry record's tier (see the module
/// docs). Removes the temp dir, every tier directory the record does
/// not name, and — when the record says the session has left the raw
/// tier — any leftover raw chunks.
pub(crate) fn reconcile_tiers(dir: &Path, tier: StorageTier) {
    let _ = fs::remove_dir_all(dir.join(TIER_TMP));
    for stale in [StorageTier::Sorted, StorageTier::Rollup] {
        if stale == tier {
            continue;
        }
        if let Some(sub) = stale.subdir() {
            let _ = fs::remove_dir_all(dir.join(sub));
        }
    }
    if tier != StorageTier::Raw {
        drop_raw_files(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_parse_round_trips_the_flag_syntax() {
        let policy = RetentionPolicy::parse("raw=30m,sorted=12h,rollup=7d").unwrap();
        assert_eq!(policy.raw, Some(Duration::from_secs(30 * 60)));
        assert_eq!(policy.sorted, Some(Duration::from_secs(12 * 3600)));
        assert_eq!(policy.rollup, Some(Duration::from_secs(7 * 24 * 3600)));
        assert_eq!(policy.min_dwell(), Some(Duration::from_secs(30 * 60)));

        let partial = RetentionPolicy::parse("raw=500ms").unwrap();
        assert_eq!(partial.raw, Some(Duration::from_millis(500)));
        assert_eq!(partial.sorted, None);
        assert!(!partial.is_empty());
        assert!(RetentionPolicy::parse("").unwrap().is_empty());
    }

    #[test]
    fn retention_parse_rejects_malformed_pairs() {
        for bad in ["raw", "raw=", "raw=10", "raw=x5s", "lukewarm=5s", "raw=5s,raw=6s", "raw=5w"] {
            assert!(RetentionPolicy::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn reconcile_removes_everything_the_record_does_not_name() {
        let dir = std::env::temp_dir().join(format!("rlss-reconcile-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join(TIER_TMP)).unwrap();
        fs::create_dir_all(dir.join("sorted")).unwrap();
        fs::create_dir_all(dir.join("rollup")).unwrap();
        fs::write(dir.join("chunk_00000.rls"), b"raw").unwrap();
        fs::write(dir.join(MANIFEST_FILE), b"manifest").unwrap();

        reconcile_tiers(&dir, StorageTier::Sorted);
        assert!(!dir.join(TIER_TMP).exists(), "temp dir survives reconciliation");
        assert!(dir.join("sorted").exists(), "the recorded tier must survive");
        assert!(!dir.join("rollup").exists(), "unrecorded tier survives");
        assert!(!dir.join("chunk_00000.rls").exists(), "raw chunks survive a sorted record");
        assert!(!dir.join(MANIFEST_FILE).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
