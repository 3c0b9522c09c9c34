//! Telemetry span-stream property tests: randomized DAGs executed over
//! 1–16 workers with tracing on, asserting the invariants the exporters
//! rely on:
//!
//! 1. **exactly-once** — every task produces exactly one `TaskExec` span
//!    carrying its task id;
//! 2. **per-track ordering** — spans on one worker track never overlap
//!    (a worker runs one task at a time, and the collected stream is
//!    globally timestamp-sorted);
//! 3. **export validity** — the Chrome `trace_event` document produced
//!    from the stream passes the schema validator with one complete span
//!    per task;
//! 4. **overflow accounting** — a ring never grows past its capacity and
//!    counts every dropped record;
//! 5. **track identity** — a one-worker run emits on track 0, and the
//!    calling thread keeps `MAIN_TRACK` after `execute` returns.
//!
//! Every test holds [`obs::test_guard`] — the enable flag, the ring
//! registry, and the metric registry are process-global.

use mixedp_obs as obs;
use mixedp_runtime::{execute, ExecOptions, ExecStats, TaskGraph};
use proptest::prelude::*;

/// Deterministic word stream for shaping random dependencies.
fn pick(words: &[u64], i: usize, salt: u64) -> u64 {
    let w = words[i % words.len()];
    w.rotate_left((salt % 63) as u32) ^ salt.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Random sparse DAG: each task depends on up to 3 distinct earlier tasks.
fn build_graph(n: usize, words: &[u64]) -> TaskGraph {
    let mut g = TaskGraph::with_capacity(n);
    for i in 0..n {
        let mut deps: Vec<usize> = (0..3)
            .filter_map(|k| {
                if i == 0 {
                    None
                } else {
                    Some((pick(words, i, k + 1) % i as u64) as usize)
                }
            })
            .collect();
        deps.sort_unstable();
        deps.dedup();
        g.add_task(deps, 0);
    }
    g
}

/// Run `graph` with empty task bodies on `workers` threads.
fn run_empty(graph: &TaskGraph, workers: usize) -> ExecStats {
    execute(graph, workers, |_| (), |_, _| (), &ExecOptions::default()).expect("execution failed")
}

/// Run `graph` with tracing on and assert the span-stream invariants.
fn check_span_stream(graph: &TaskGraph, workers: usize) {
    let _g = obs::test_guard();
    let n = graph.len();
    obs::collect(); // drain records left over from other tests
    obs::set_enabled(true);
    let stats = run_empty(graph, workers);
    obs::set_enabled(false);
    let t = obs::collect();
    assert_eq!(t.dropped, 0, "empty-body run must not overflow the rings");

    // exactly one TaskExec span per task id, each on a worker track
    let mut seen = vec![0usize; n];
    for r in t
        .records
        .iter()
        .filter(|r| r.kind == obs::EventKind::TaskExec)
    {
        assert!(
            r.track != obs::MAIN_TRACK && (r.track as usize) < workers,
            "task span on unexpected track {} with {workers} workers",
            r.track
        );
        seen[r.arg as usize] += 1;
    }
    for (id, &count) in seen.iter().enumerate() {
        assert_eq!(count, 1, "task {id} emitted {count} spans");
    }

    // per-track: spans sorted and non-overlapping (>= allows zero-length
    // spans sharing a timestamp on coarse clocks)
    for track in t.tracks() {
        let mut last_end = 0u64;
        for r in t
            .records
            .iter()
            .filter(|r| r.track == track && r.kind == obs::EventKind::TaskExec)
        {
            assert!(
                r.ts_ns >= last_end,
                "span at {} overlaps previous span ending at {last_end} on track {track}",
                r.ts_ns
            );
            last_end = r.ts_ns + r.dur_ns;
        }
    }

    // span stream agrees with the scheduler's counters, and exports to a
    // schema-valid Chrome document with one complete span per task
    assert_eq!(stats.total().tasks as usize, n);
    let json = obs::chrome_trace_json(&t);
    let summary = obs::validate_chrome_trace(&json).expect("chrome export must validate");
    assert_eq!(summary.complete_spans, n);
    assert!(summary.tracks >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn span_stream_invariants_hold(
        n in 2usize..80,
        workers in 1usize..=16,
        words in prop::collection::vec(0u64..u64::MAX, 8),
    ) {
        let graph = build_graph(n, &words);
        check_span_stream(&graph, workers);
    }
}

#[test]
fn ring_overflow_is_counted_not_grown() {
    let _g = obs::test_guard();
    obs::set_default_ring_capacity(8);
    obs::reset_rings();
    obs::set_enabled(true);
    // emit from fresh worker threads so each gets a capacity-8 ring
    let mut flood = TaskGraph::with_capacity(20);
    for _ in 0..20 {
        flood.add_task(vec![], 0);
    }
    run_empty(&flood, 1);
    obs::set_enabled(false);
    let t = obs::collect();
    obs::set_default_ring_capacity(obs::ring::DEFAULT_RING_CAPACITY);
    obs::reset_rings();
    for track in t.tracks() {
        let count = t.records.iter().filter(|r| r.track == track).count();
        assert!(
            count <= 8,
            "track {track} grew past its ring capacity ({count} records)"
        );
    }
    // 20 task spans plus any steal/park/wake instants competed for 8 slots
    assert!(
        t.dropped >= 12,
        "overflow must be drop-counted (got {} drops)",
        t.dropped
    );
}

#[test]
fn disabled_run_emits_nothing() {
    let _g = obs::test_guard();
    obs::collect();
    obs::set_enabled(false);
    let mut g = TaskGraph::with_capacity(16);
    for _ in 0..16 {
        g.add_task(vec![], 0);
    }
    run_empty(&g, 4);
    let t = obs::collect();
    assert!(
        t.records.is_empty(),
        "tracing off must emit no records (got {})",
        t.records.len()
    );
}

#[test]
fn one_worker_spans_land_on_track_zero_and_caller_keeps_main_track() {
    let _g = obs::test_guard();
    obs::collect();
    obs::set_enabled(true);
    let graph = build_graph(40, &[3, 141, 59, 26, 5358, 97, 93, 23846]);
    run_empty(&graph, 1);
    obs::set_enabled(false);
    assert_eq!(
        obs::ring::thread_track(),
        obs::MAIN_TRACK,
        "execute must not retag the calling thread"
    );
    let t = obs::collect();
    let tasks: Vec<_> = t
        .records
        .iter()
        .filter(|r| r.kind == obs::EventKind::TaskExec)
        .collect();
    assert_eq!(tasks.len(), graph.len());
    assert!(
        tasks.iter().all(|r| r.track == 0),
        "one-worker task spans must land on track 0"
    );
}
