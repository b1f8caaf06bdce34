//! Tiered-storage integration suite: sessions age down the raw →
//! sorted → rollup → gone ladder (explicitly via `compact_session`,
//! automatically via the retention policy), every tier answers coarse
//! queries canonical-JSON-identically, rollups reject sub-segment
//! windows with the typed `UnsupportedQuery`, pruned names become
//! reusable, and `QUERY_ALL` federates across sessions sitting at
//! different tiers.
//!
//! Every settled read (`QUERY`, `QUERY_ALL`, `LIST_SESSIONS`) races the
//! tier transitions the same way: it reads a tier's index with no lock
//! held, and its answer stands only if the tiers it read still hold.
//! Stress tests race retention against query loops; the park tests hold
//! one read at a park point (`daemon::park`) while a transition or a
//! prune runs, to pin the windows a stress race reaches too rarely.

mod common;

use common::{scratch, session_events, wait_phase};
use rlscope::collector::daemon::park::{ParkedQuery, Parks};
use rlscope::collector::{
    Collector, CollectorClient, CollectorConfig, CollectorError, ErrorCode, QuerySpec,
    ReconnectPolicy, RetentionPolicy, SessionInfo, SessionPhase, StorageTier,
};
use rlscope::core::analysis::{Analysis, Dim};
use rlscope::core::event::Event;
use rlscope::sim::time::TimeNs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streams `events` into a fresh finished session over the socket.
fn finish_session(socket: &std::path::Path, name: &str, events: &[Event]) -> CollectorClient {
    let mut client = CollectorClient::open_session(socket, name).unwrap();
    for chunk in events.chunks(256) {
        client.send_events(chunk).unwrap();
    }
    client.finish().unwrap();
    client
}

/// Polls until the session is pruned (the registry drops the name and
/// the retention pass removes the directory).
fn wait_pruned(collector: &Collector, name: &str, dir: &std::path::Path) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if collector.session_tier(name).is_none() && !dir.exists() {
            return;
        }
        assert!(Instant::now() < deadline, "session '{name}' was never pruned");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole acceptance walk: one session, compacted explicitly down
/// the ladder, must answer the same coarse queries with byte-identical
/// canonical JSON at every tier — while the prior tier's files actually
/// disappear from disk. Rollups additionally serve segment-aligned
/// windows exactly and reject sub-segment windows with the typed
/// `UnsupportedQuery`.
#[test]
fn tiers_answer_identically_down_the_ladder() {
    let (_scratch, socket, data) = scratch("ladder");
    let mut config = CollectorConfig::new(&socket, &data);
    config.rollup_segment_ns = 10_000;
    let collector = Collector::bind(config).unwrap();
    let events = session_events(0, 2_000);
    let mut client = finish_session(&socket, "ladder", &events);

    let plain = QuerySpec::session("ladder");
    let grouped = QuerySpec::session("ladder").group_by([Dim::Phase, Dim::Operation]);
    let base_plain = client.query(&plain).unwrap();
    let base_grouped = client.query(&grouped).unwrap();
    assert_eq!(base_plain.canonical_json, Analysis::of_events(&events).canonical_json().unwrap());
    let dir = data.join("ladder");

    // Raw → sorted: same answers, raw chunk files gone.
    assert_eq!(collector.compact_session("ladder").unwrap(), StorageTier::Sorted);
    assert_eq!(collector.session_tier("ladder"), Some(StorageTier::Sorted));
    let sorted_plain = client.query(&plain).unwrap();
    assert_eq!(sorted_plain.canonical_json, base_plain.canonical_json);
    assert_eq!(sorted_plain.events_observed, base_plain.events_observed);
    assert_eq!(client.query(&grouped).unwrap().canonical_json, base_grouped.canonical_json);
    assert!(dir.join("sorted").is_dir());
    assert!(!dir.join("MANIFEST").exists(), "raw manifest must be deleted after the transition");
    let raw_chunks = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("chunk_"))
        .count();
    assert_eq!(raw_chunks, 0, "raw chunks must be deleted after the transition");

    // Sorted → rollup: coarse queries answered from segment summaries.
    assert_eq!(collector.compact_session("ladder").unwrap(), StorageTier::Rollup);
    let roll_plain = client.query(&plain).unwrap();
    assert_eq!(roll_plain.canonical_json, base_plain.canonical_json);
    assert_eq!(roll_plain.events_observed, base_plain.events_observed);
    assert_eq!(client.query(&grouped).unwrap().canonical_json, base_grouped.canonical_json);
    assert!(dir.join("rollup").is_dir());
    assert!(!dir.join("sorted").exists(), "sorted tier must be deleted after the transition");

    // A segment-aligned window answers exactly (equal to the batch
    // sweep over raw events with the same window).
    let windowed = client.query(&QuerySpec::session("ladder").window(10_000, 30_000)).unwrap();
    let batch = Analysis::of_events(&events)
        .time_window(TimeNs::from_nanos(10_000), TimeNs::from_nanos(30_000))
        .canonical_json()
        .unwrap();
    assert_eq!(windowed.canonical_json, batch);

    // A window that splits a segment needs raw resolution: typed
    // rejection, not a wrong answer.
    let err = client.query(&QuerySpec::session("ladder").window(5_000, 30_000)).unwrap_err();
    assert!(
        matches!(err, CollectorError::Remote { code: Some(ErrorCode::UnsupportedQuery), .. }),
        "expected UnsupportedQuery for a sub-segment window, got {err:?}"
    );
    collector.shutdown();
}

/// Retention as a dial: with all dwells at zero, successive retention
/// passes age a finished session raw → sorted → rollup → gone, and the
/// pruned name is immediately reusable for a brand-new session.
#[test]
fn retention_ages_sessions_down_to_pruned() {
    let (_scratch, socket, data) = scratch("age");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let events = session_events(0, 1_024);
    let client = finish_session(&socket, "ager", &events);
    drop(client);
    let dir = data.join("ager");
    let policy = RetentionPolicy::parse("raw=0ms,sorted=0ms,rollup=0ms").unwrap();

    collector.run_retention_pass(&policy);
    assert_eq!(collector.session_tier("ager"), Some(StorageTier::Sorted));
    collector.run_retention_pass(&policy);
    assert_eq!(collector.session_tier("ager"), Some(StorageTier::Rollup));
    collector.run_retention_pass(&policy);
    wait_pruned(&collector, "ager", &dir);

    // Name-reuse regression: a pruned name opens fresh (no
    // SessionExists from a stale registry entry or leftover dir).
    let mut reuse = finish_session(&socket, "ager", &events);
    let reply = reuse.query(&QuerySpec::session("ager")).unwrap();
    assert_eq!(reply.events_observed, events.len() as u64);
    assert_eq!(reply.canonical_json, Analysis::of_events(&events).canonical_json().unwrap());
    collector.shutdown();
}

/// Aborted sessions never compact — they sit at the raw tier until the
/// raw dwell expires, then are pruned (registry record and directory
/// both), freeing the name.
#[test]
fn aborted_sessions_prune_after_raw_dwell() {
    let (_scratch, socket, data) = scratch("abprune");
    let mut config = CollectorConfig::new(&socket, &data);
    config.idle_timeout = Some(Duration::from_millis(200));
    let collector = Collector::bind(config).unwrap();
    let events = session_events(0, 512);
    let mut client =
        CollectorClient::open_session_with(&socket, "doomed", ReconnectPolicy::disabled()).unwrap();
    client.send_events(&events[..256]).unwrap();
    wait_phase(&collector, "doomed", SessionPhase::Aborted);
    drop(client);
    let dir = data.join("doomed");
    assert!(dir.exists());

    // An aborted session must never advance a tier, even with sorted
    // and rollup dwells at zero — only the raw dwell governs its prune.
    let policy = RetentionPolicy::parse("raw=0ms,sorted=0ms,rollup=0ms").unwrap();
    collector.run_retention_pass(&policy);
    wait_pruned(&collector, "doomed", &dir);

    let mut reuse = finish_session(&socket, "doomed", &events);
    assert_eq!(
        reuse.query(&QuerySpec::session("doomed")).unwrap().events_observed,
        events.len() as u64
    );
    collector.shutdown();
}

/// `QUERY_ALL` federates transparently across tiers: one session rolled
/// all the way up, one still raw, and the fleet-style reply counts and
/// groups both without the caller knowing which tier served which.
#[test]
fn query_all_spans_mixed_tiers() {
    let (_scratch, socket, data) = scratch("mixed");
    let mut config = CollectorConfig::new(&socket, &data);
    config.rollup_segment_ns = 10_000;
    let collector = Collector::bind(config).unwrap();
    let a = session_events(1, 1_024);
    let b = session_events(2, 768);
    let _ca = finish_session(&socket, "cold", &a);
    let mut cb = finish_session(&socket, "hot", &b);
    assert_eq!(collector.compact_session("cold").unwrap(), StorageTier::Sorted);
    assert_eq!(collector.compact_session("cold").unwrap(), StorageTier::Rollup);

    let reply = cb.query_all(&QuerySpec::all_sessions()).unwrap();
    assert_eq!(reply.events_observed, (a.len() + b.len()) as u64);
    let mut sessions = reply.sessions.clone();
    sessions.sort();
    assert_eq!(sessions, vec!["cold".to_string(), "hot".to_string()]);

    // The per-session groups match each session's own (tier-routed)
    // answer: the rollup-backed one equals its raw in-memory sweep.
    let by_session = cb.query_all(&QuerySpec::all_sessions().group_by([Dim::Session])).unwrap();
    for (key, table) in &by_session.groups {
        let name = key.session.as_deref().unwrap();
        let events = if name == "cold" { &a } else { &b };
        let batch = Analysis::of_events(events).tables().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(table, &batch[0].1, "QUERY_ALL group for '{name}' diverges from batch");
    }
    collector.shutdown();
}

/// A query that races a prune gets `QUERY_OK` or `UnknownTarget` — the
/// answer a query sent just before or just after the prune gets — never
/// the `Io` of a directory vanishing mid-read: six rolled-up sessions
/// are pruned by one retention pass while two query loops keep asking
/// for each of them.
#[test]
fn queries_racing_a_prune_get_an_answer_or_unknown_target() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const SEGMENT_NS: u64 = 100_000;
    let (_scratch, socket, data) = scratch("prunerace");
    let mut config = CollectorConfig::new(&socket, &data);
    config.rollup_segment_ns = SEGMENT_NS;
    let collector = Collector::bind(config).unwrap();
    let names: Vec<String> = (0..6).map(|i| format!("doomed-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        finish_session(&socket, name, &session_events(i as u32, 4_096));
        assert_eq!(collector.compact_session(name).unwrap(), StorageTier::Sorted);
        assert_eq!(collector.compact_session(name).unwrap(), StorageTier::Rollup);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let loops: Vec<_> = (0..2u64)
        .map(|t| {
            let (socket, names, stop) = (socket.clone(), names.clone(), stop.clone());
            std::thread::spawn(move || {
                let (mut answered, mut unknown) = (0usize, 0usize);
                let mut client = CollectorClient::connect(&socket).unwrap();
                for i in 0u64.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Segment-aligned windows, so the seal never answers:
                    // each one reads the dir.
                    let name = &names[(i % names.len() as u64) as usize];
                    let hi = SEGMENT_NS * (1 + (2 * i + t) % 5_000);
                    let spec = QuerySpec::session(name).group_by([Dim::Phase]).window(0, hi);
                    match client.query(&spec) {
                        Ok(_) => answered += 1,
                        Err(CollectorError::Remote {
                            code: Some(ErrorCode::UnknownTarget),
                            ..
                        }) => {
                            unknown += 1;
                            // An error ends the connection it answers.
                            client = CollectorClient::connect(&socket).unwrap();
                        }
                        Err(e) => panic!("{spec:?}: {e}"),
                    }
                }
                (answered, unknown)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    collector.run_retention_pass(&RetentionPolicy::parse("rollup=0ms").unwrap());
    for name in &names {
        wait_pruned(&collector, name, &data.join(name));
    }
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let (mut answered, mut unknown) = (0, 0);
    for handle in loops {
        let (a, u) = handle.join().expect("query loop panicked");
        answered += a;
        unknown += u;
    }
    assert!(answered > 0 && unknown > 0, "{answered} answered, {unknown} unknown");
    collector.shutdown();
}

/// The tier re-check after a failed read, pinned: a query held just
/// before it reads its tier's index while a retention pass prunes the
/// session answers `UnknownTarget`, as a query sent after the prune
/// does. A stress race reaches that window too rarely to pin it; a park
/// holds the query there. The parked query's read of the pruned
/// directory fails, and the re-check after the failed read finds the
/// prune.
#[test]
fn a_query_parked_across_a_prune_names_the_prune() {
    query_parked_across_a_prune("parkprune", Parks::park_next_index_read);
}

/// The same prune, while the query is held after its answer was
/// computed and before the tier re-check (in `settled_read`): the read
/// succeeded, so only the re-check can turn the answer into the prune's
/// `UnknownTarget`.
#[test]
fn a_query_parked_after_its_answer_across_a_prune_names_the_prune() {
    query_parked_across_a_prune("parkanswer", Parks::park_next_settled_answer);
}

/// An in-process daemon in `data`, with parks for its settled reads.
fn bind_parked(socket: &Path, data: &Path) -> (Collector, Arc<Parks>) {
    let parks = Parks::new();
    let mut config = CollectorConfig::new(socket, data);
    config.parks = Some(parks.clone());
    (Collector::bind(config).unwrap(), parks)
}

/// Finishes a session, ages it to the rollup tier, parks its next
/// directory query where `park` says, prunes it, and expects the
/// prune's `UnknownTarget`.
fn query_parked_across_a_prune(tag: &str, park: fn(&Parks) -> ParkedQuery) {
    let (_scratch, socket, data) = scratch(tag);
    let (collector, parks) = bind_parked(&socket, &data);
    let events = session_events(0, 1_024);
    let mut client = finish_session(&socket, "parked", &events);
    let spec = QuerySpec::session("parked").group_by([Dim::Phase]);
    let expected = Analysis::of_events(&events).group_by([Dim::Phase]).canonical_json().unwrap();
    // The seal answers first; then, aged to the rollup tier, a query
    // reads the rollup directory.
    assert_eq!(client.query(&spec).unwrap().canonical_json, expected);
    assert_eq!(collector.compact_session("parked").unwrap(), StorageTier::Sorted);
    assert_eq!(collector.compact_session("parked").unwrap(), StorageTier::Rollup);
    assert!(!client.query(&spec).unwrap().cache_hit);

    let parked = park(&parks);
    let asking = std::thread::spawn(move || client.query(&spec));
    assert!(parked.wait_parked(Duration::from_secs(20)), "the query never reached the park");
    collector.run_retention_pass(&RetentionPolicy::parse("rollup=0ms").unwrap());
    wait_pruned(&collector, "parked", &data.join("parked"));
    parked.release();
    match asking.join().unwrap() {
        Err(CollectorError::Remote { code: Some(ErrorCode::UnknownTarget), message }) => {
            assert!(message.contains("\"parked\""), "{message}");
        }
        other => panic!("expected the UnknownTarget of the prune, got {other:?}"),
    }
    collector.shutdown();
}

/// `LIST_SESSIONS` counts a settled session from its tier's index, read
/// as `QUERY` reads it: a listing held just before that read while the
/// session moves a tier lists the session with its whole count. The
/// move raw → sorted deletes the raw chunks the listing was about to
/// read (the re-check after the answer finds the move); sorted → rollup
/// deletes the sorted directory (the read fails, and the re-check after
/// it finds the move). Each time the listing reads the new tier again.
#[test]
fn a_listing_parked_across_a_tier_move_lists_the_session() {
    let (_scratch, socket, data) = scratch("parklist");
    let (collector, parks) = bind_parked(&socket, &data);
    let events = session_events(0, 1_024);
    drop(finish_session(&socket, "moving", &events));
    let listed = SessionInfo { name: "moving".into(), live: false, events: events.len() as u64 };
    for tier in [StorageTier::Sorted, StorageTier::Rollup] {
        let parked = parks.park_next_index_read();
        let mut client = CollectorClient::connect(&socket).unwrap();
        let asking = std::thread::spawn(move || client.list_sessions());
        assert!(parked.wait_parked(Duration::from_secs(20)), "the listing never reached the park");
        assert_eq!(collector.compact_session("moving").unwrap(), tier);
        parked.release();
        let list = asking.join().unwrap().unwrap();
        assert_eq!(
            list.sessions,
            std::slice::from_ref(&listed),
            "listed across the move to {tier:?}"
        );
    }
    collector.shutdown();
}

/// Whether `name` is one a writer puts in a session directory: chunks,
/// the registry record, the tier directories and their build
/// scratch, and the rollup tier's segments and index.
fn written_by_a_writer(name: &str) -> bool {
    ["chunk_", "SESSION", "sorted", "rollup", "ROLLUP", ".tier.tmp", ".reorder_spill", "run_"]
        .iter()
        .any(|prefix| name.starts_with(prefix))
}

/// Appends every path under `dir` whose name no writer uses to `out`;
/// a directory vanishing mid-walk is skipped.
fn stray_files(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if !written_by_a_writer(&entry.file_name().to_string_lossy()) {
            out.push(path.clone());
        }
        if path.is_dir() {
            stray_files(&path, out);
        }
    }
}

/// An answer counts only if the tier it read still held. Two query
/// loops ask every finished session for segment-aligned windows and
/// process-grouped tables while a millisecond retention policy ages
/// each one raw → sorted → rollup → gone underneath them. Every answer
/// equals the in-process reference, every failure is the typed
/// `UnknownTarget` of a pruned session, and no session directory ever
/// holds a file no writer puts there — a read that wrote an index back
/// into a directory being dropped would leave one behind. Every fourth
/// question is the same shape as a `QUERY_ALL` fan-out grouped by
/// session: it always answers, a pruned session drops out of it, and
/// each finished session it names contributes exactly its reference.
#[test]
fn queries_racing_retention_answer_exactly_or_name_the_prune() {
    use rlscope::core::analysis::GroupKey;
    use rlscope::core::overlap::BreakdownTable;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    const SEGMENT_NS: u64 = 100_000;
    const SHAPES: u64 = 26;
    let (_scratch, socket, data) = scratch("agerace");
    let mut config = CollectorConfig::new(&socket, &data);
    config.rollup_segment_ns = SEGMENT_NS;
    config.retention = Some(RetentionPolicy::parse("raw=1ms,sorted=1ms,rollup=40ms").unwrap());
    let collector = Collector::bind(config).unwrap();
    let names: Arc<Vec<String>> = Arc::new((0..6).map(|i| format!("aging-{i}")).collect());
    let streams: Vec<Vec<Event>> = (0..6).map(|i| session_events(i, 2_048)).collect();
    // Shape 0 groups by process; shape k a phase-grouped window of k
    // segments. Every tier answers both exactly.
    let spec = |name: &str, shape: u64| match shape {
        0 => QuerySpec::session(name).group_by([Dim::Process]),
        k => QuerySpec::session(name).group_by([Dim::Phase]).window(0, k * SEGMENT_NS),
    };
    let fan_out = |shape: u64| match shape {
        0 => QuerySpec::all_sessions().group_by([Dim::Session, Dim::Process]),
        k => {
            QuerySpec::all_sessions().group_by([Dim::Session, Dim::Phase]).window(0, k * SEGMENT_NS)
        }
    };
    // Each session's reference for each shape: its canonical JSON, and
    // its groups as a map (what a fan-out's groups for that session are
    // compared with).
    type Groups = HashMap<GroupKey, BreakdownTable>;
    let expected: Arc<Vec<Vec<(String, Groups)>>> = Arc::new(
        streams
            .iter()
            .map(|events| {
                (0..SHAPES)
                    .map(|shape| {
                        let all = Analysis::of_events(events);
                        let query = match shape {
                            0 => all.group_by([Dim::Process]),
                            k => all
                                .group_by([Dim::Phase])
                                .time_window(TimeNs::ZERO, TimeNs::from_nanos(k * SEGMENT_NS)),
                        };
                        let groups = query.tables().unwrap().into_iter().collect();
                        (query.canonical_json().unwrap(), groups)
                    })
                    .collect()
            })
            .collect(),
    );
    let finished = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (data, names, stop) = (data.clone(), names.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut strays = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                for name in names.iter() {
                    stray_files(&data.join(name), &mut strays);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            strays
        })
    };
    let loops: Vec<_> = (0..2u64)
        .map(|t| {
            let (socket, names, expected) = (socket.clone(), names.clone(), expected.clone());
            let (finished, stop) = (finished.clone(), stop.clone());
            std::thread::spawn(move || {
                let (mut answered, mut pruned) = (0usize, 0usize);
                let mut client = CollectorClient::connect(&socket).unwrap();
                for i in 0u64.. {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Only settled sessions: a streaming one answers live.
                    let ready = finished.load(Ordering::SeqCst) as u64;
                    if ready == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    let s = ((i + t) % ready) as usize;
                    let shape = (i * 7 + t) % SHAPES;
                    if i % 4 == 3 {
                        // A session still streaming answers live, and a
                        // live snapshot answers no window.
                        let shape = if ready < names.len() as u64 { 0 } else { shape };
                        let reply = client
                            .query_all(&fan_out(shape))
                            .unwrap_or_else(|e| panic!("QUERY_ALL shape {shape}: {e}"));
                        for (s, name) in names.iter().enumerate().take(ready as usize) {
                            if !reply.sessions.contains(name) {
                                continue; // pruned
                            }
                            let own: Groups = reply
                                .groups
                                .iter()
                                .filter(|(key, _)| key.session.as_deref() == Some(name.as_str()))
                                .map(|(key, table)| {
                                    (GroupKey { session: None, ..key.clone() }, table.clone())
                                })
                                .collect();
                            assert_eq!(
                                own, expected[s][shape as usize].1,
                                "QUERY_ALL {name} shape {shape}"
                            );
                        }
                        answered += 1;
                        continue;
                    }
                    match client.query(&spec(&names[s], shape)) {
                        Ok(reply) => {
                            assert_eq!(
                                reply.canonical_json, expected[s][shape as usize].0,
                                "{} shape {shape}",
                                names[s]
                            );
                            answered += 1;
                        }
                        Err(CollectorError::Remote {
                            code: Some(ErrorCode::UnknownTarget),
                            ..
                        }) => {
                            pruned += 1;
                            // An error ends the connection it answers.
                            client = CollectorClient::connect(&socket).unwrap();
                        }
                        Err(e) => panic!("{} shape {shape}: {e}", names[s]),
                    }
                }
                (answered, pruned)
            })
        })
        .collect();
    for (name, events) in names.iter().zip(&streams) {
        finish_session(&socket, name, events);
        finished.fetch_add(1, Ordering::SeqCst);
    }
    for name in names.iter() {
        wait_pruned(&collector, name, &data.join(name));
    }
    stop.store(true, Ordering::SeqCst);
    let (mut answered, mut pruned) = (0, 0);
    for handle in loops {
        let (a, p) = handle.join().expect("query loop panicked");
        answered += a;
        pruned += p;
    }
    let strays = watcher.join().expect("watcher panicked");
    assert!(strays.is_empty(), "files no writer puts there: {strays:?}");
    assert!(answered > 0, "{answered} answered, {pruned} pruned");
    collector.shutdown();
}
