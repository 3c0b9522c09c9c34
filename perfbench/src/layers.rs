//! The traced run: per-layer metrics for one workload.
//!
//! 1. The workload's own evaluation alternately untraced and traced for
//!    about a third of `--seconds` — the median ratio is the tracing
//!    overhead — and one single-threaded evaluation.
//! 2. Traced staged replays of one evaluation (`stages::replay`) for
//!    another third, whose spans, joined with the spans the program emits
//!    (`TaskExec`, `Kernel*`, `Convert`), split the evaluation across the
//!    layers. These metrics are per evaluation, the median over replays.
//! 3. The layers the evaluation does not reach: a fixed-budget MLE fit
//!    ([`wl::FIT`]), and a traced distributed factorization of the
//!    workload's Σ (`WirePack`, `WireUnpack` spans) with its DES replay.
//! 4. The isolated kernel probe at the workload's tile size.

use crate::probe::{self, kind_label};
use crate::report::{median, Report};
use crate::stages::{self, Replay, Span};
use crate::workloads::{self as wl, prec_label, Spec, THETA};
use mixedp_core::{DistStats, MpBackend, WirePolicy};
use mixedp_geostats::Matern2d;
use mixedp_kernels::{kernel_flops, KernelKind};
use mixedp_obs::{self as obs, EventKind, Record, TraceData};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric with its unit. A traced run reports all of them
/// on every workload; a layer the workload does not run reads 0.
pub fn metric_units() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("kernels.busy_s", "s");
    for (kind, p) in probe::KERNELS {
        let key = format!("kernels.{}.{}", kind_label(kind), prec_label(p));
        add(&format!("{key}.share"), "ratio");
        add(&format!("{key}.calls"), "count");
        add(&format!("{key}.gflops"), "GFLOP/s");
        add(&format!("{key}.isolated_gflops"), "GFLOP/s");
    }
    for (name, unit) in [
        ("kernels.convert.share", "ratio"),
        ("kernels.convert.bytes", "B"),
        ("geostats.assemble_s", "s"),
        ("geostats.assemble_share", "ratio"),
        ("geostats.fit_s", "s"),
        ("geostats.optimizer_evals", "count"),
        ("geostats.optimizer_failed_evals", "count"),
        ("tile.norms_s", "s"),
        ("tile.dense_copy_s", "s"),
        ("tile.dense_copy_bytes", "B"),
        ("mle.eval_s", "s"),
        ("mle.solve_s", "s"),
        ("mle.other_s", "s"),
        ("mle.loglik_rel_err", "ratio"),
        ("precision_map.build_s", "s"),
        ("precision_map.tiles_fp64", "count"),
        ("precision_map.tiles_fp32", "count"),
        ("precision_map.tiles_fp16_32", "count"),
        ("precision_map.tiles_fp16", "count"),
        ("conversion.plan_s", "s"),
        ("conversion.stc_senders", "count"),
        ("factorize.factor_s", "s"),
        ("factorize.gflops", "GFLOP/s"),
        ("factorize.attempts", "count"),
        ("factorize.escalations", "count"),
        ("factorize.task_retries", "count"),
        ("factorize.conversions_performed", "count"),
        ("factorize.conversions_avoided", "count"),
        ("factorize.stc_avoidance_ratio", "ratio"),
        ("runtime.tasks", "count"),
        ("runtime.occupancy", "ratio"),
        ("runtime.idle_s", "s"),
        ("runtime.steals", "count"),
        ("runtime.failed_steals", "count"),
        ("runtime.parks", "count"),
        ("runtime.wakes", "count"),
        ("runtime.speedup_1_to_n", "ratio"),
        ("wire.pack_s", "s"),
        ("wire.unpack_s", "s"),
        ("wire.pack_bytes", "B"),
        ("wire.pack_gbs", "GB/s"),
        ("wire.unpack_gbs", "GB/s"),
        ("distributed.factor_s", "s"),
        ("distributed.wire_bytes", "B"),
        ("distributed.wire_messages", "count"),
        ("distributed.payload_bytes", "B"),
        ("distributed.frames", "count"),
        ("distributed.broadcasts", "count"),
        ("distributed.consumer_ttc_bytes", "B"),
        ("distributed.reduction_vs_consumer_ttc", "ratio"),
        ("distributed.link_time_tree", "model_s"),
        ("distributed.kernel_share", "ratio"),
        ("gpusim.sim_s", "s"),
        ("gpusim.makespan", "sim_s"),
        ("gpusim.nic_bytes", "B"),
        ("gpusim.energy_j", "J"),
        ("gpusim.tflops", "TFLOP/s"),
        ("obs.tracing_overhead_pct", "%"),
        ("obs.dropped_records", "count"),
    ] {
        add(name, unit);
    }
    m
}

fn kernel_kind(k: EventKind) -> Option<KernelKind> {
    match k {
        EventKind::KernelPotrf => Some(KernelKind::Potrf),
        EventKind::KernelTrsm => Some(KernelKind::Trsm),
        EventKind::KernelSyrk => Some(KernelKind::Syrk),
        EventKind::KernelGemm => Some(KernelKind::Gemm),
        _ => None,
    }
}

fn end(r: &Record) -> u64 {
    r.ts_ns + r.dur_ns
}

/// A conversion instant (a `Convert` record without duration; the
/// conversion planner emits `Convert` as a span).
fn is_conversion(r: &Record) -> bool {
    r.kind == EventKind::Convert && r.dur_ns == 0
}

/// Time of tasks that performed a tile conversion, minus the kernel spans
/// inside them (conversion instants carry no duration). `window` holds one
/// time window's records sorted by `(ts, track)`.
pub fn conversion_task_s(window: &[Record]) -> f64 {
    let mut by_track: BTreeMap<u16, Vec<&Record>> = BTreeMap::new();
    for r in window {
        by_track.entry(r.track).or_default().push(r);
    }
    let mut total_ns = 0u64;
    for recs in by_track.values() {
        for (i, task) in recs.iter().enumerate() {
            if task.kind != EventKind::TaskExec {
                continue;
            }
            let inside = recs[i + 1..].iter().take_while(|r| r.ts_ns < end(task));
            let (mut kernel_ns, mut converts) = (0u64, false);
            for r in inside {
                if kernel_kind(r.kind).is_some() {
                    kernel_ns += r.dur_ns.min(end(task).saturating_sub(r.ts_ns));
                }
                converts |= is_conversion(r);
            }
            if converts {
                total_ns += task.dur_ns.saturating_sub(kernel_ns);
            }
        }
    }
    total_ns as f64 * 1e-9
}

/// Kernel spans in a window: per (kind, precision) busy ns and calls, plus
/// the window's total flops and kernel ns.
struct KernelTotals {
    per_pair: BTreeMap<String, (u64, u64)>,
    flops: f64,
    ns: u64,
}

fn kernel_totals(window: &[Record]) -> KernelTotals {
    let mut t = KernelTotals {
        per_pair: BTreeMap::new(),
        flops: 0.0,
        ns: 0,
    };
    for r in window {
        if let Some(kind) = kernel_kind(r.kind) {
            let (p, nb) = obs::kernel_arg_decode(r.arg);
            let e = t
                .per_pair
                .entry(format!("kernels.{}.{}", kind_label(kind), prec_label(p)))
                .or_default();
            e.0 += r.dur_ns;
            e.1 += 1;
            t.flops += kernel_flops(kind, nb);
            t.ns += r.dur_ns;
        }
    }
    t
}

/// The records that start and end inside `[start_ns, end_ns]`.
fn window(trace: &TraceData, start_ns: u64, end_ns: u64) -> Vec<Record> {
    let lo = trace.records.partition_point(|r| r.ts_ns < start_ns);
    let hi = trace.records.partition_point(|r| r.ts_ns < end_ns);
    trace.records[lo..hi]
        .iter()
        .filter(|r| end(r) <= end_ns)
        .copied()
        .collect()
}

type Metrics = BTreeMap<String, f64>;

/// The per-layer numbers of one replay, from its stage spans, its factor
/// statistics and the program's records inside its factor stage.
fn replay_metrics(spec: &Spec, rp: &Replay, trace: &TraceData) -> Metrics {
    let mut m = Metrics::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let f = rp.span("factor");
    let factor_s = f.secs();
    let window = window(trace, f.start_ns, f.end_ns);
    let kernels = kernel_totals(&window);
    set("kernels.busy_s", kernels.ns as f64 * 1e-9);
    for (kind, p) in probe::KERNELS {
        let key = format!("kernels.{}.{}", kind_label(kind), prec_label(p));
        let (ns, calls) = kernels.per_pair.get(&key).copied().unwrap_or_default();
        set(&format!("{key}.share"), ns as f64 / kernels.ns as f64);
        set(&format!("{key}.calls"), calls as f64);
        let gf = if ns > 0 {
            calls as f64 * kernel_flops(kind, spec.nb) / ns as f64
        } else {
            0.0
        };
        set(&format!("{key}.gflops"), gf);
    }
    let convert_s = conversion_task_s(&window);
    let conv_bytes: u64 = window
        .iter()
        .filter(|r| is_conversion(r))
        .map(|r| r.arg)
        .sum();
    set("kernels.convert.share", convert_s / factor_s);
    set("kernels.convert.bytes", conv_bytes as f64);

    let wall = rp.wall_s();
    let assemble = rp.span("assemble").secs();
    let staged: f64 = rp.spans.iter().map(|s| s.secs()).sum();
    set("geostats.assemble_s", assemble);
    set("geostats.assemble_share", assemble / wall);
    set("tile.norms_s", rp.span("norms").secs());
    set("tile.dense_copy_s", rp.span("dense_copy").secs());
    set("tile.dense_copy_bytes", (spec.n * spec.n * 8) as f64);
    set("mle.eval_s", wall);
    set("mle.solve_s", rp.span("solve").secs());
    set("mle.other_s", wall - staged);
    set("precision_map.build_s", rp.span("map").secs());
    for (p, c) in wl::tile_counts(&rp.map) {
        set(&format!("precision_map.tiles_{}", prec_label(p)), c as f64);
    }
    set("conversion.plan_s", rp.span("plan").secs());
    set("conversion.stc_senders", rp.stc_senders as f64);

    let st = &rp.factor;
    set("factorize.factor_s", factor_s);
    set("factorize.gflops", kernels.flops / factor_s * 1e-9);
    set("factorize.attempts", st.factor_attempts as f64);
    set("factorize.escalations", st.escalations.len() as f64);
    set("factorize.task_retries", st.task_retries as f64);
    set(
        "factorize.conversions_performed",
        st.conversions_performed as f64,
    );
    set(
        "factorize.conversions_avoided",
        st.conversions_avoided as f64,
    );
    set("factorize.stc_avoidance_ratio", st.stc_avoidance_ratio());

    let tasks: Vec<&Record> = window
        .iter()
        .filter(|r| r.kind == EventKind::TaskExec)
        .collect();
    let busy: f64 = tasks.iter().map(|r| r.dur_ns as f64 * 1e-9).sum();
    let capacity = spec.threads as f64 * factor_s;
    set("runtime.tasks", tasks.len() as f64);
    set("runtime.occupancy", busy / capacity);
    set("runtime.idle_s", (capacity - busy).max(0.0));
    let s = &st.sched_totals;
    set("runtime.steals", s.steals as f64);
    set("runtime.failed_steals", s.failed_steals as f64);
    set("runtime.parks", s.parks as f64);
    set("runtime.wakes", s.wakes as f64);
    m
}

/// Wire and distributed-engine metrics of one traced distributed
/// factorization spanning `span`.
fn dist_metrics(st: &DistStats, span: &Span, trace: &TraceData, report: &mut Report) {
    let window = window(trace, span.start_ns, span.end_ns);
    let sum = |kind: EventKind| {
        window
            .iter()
            .filter(|r| r.kind == kind)
            .fold((0u64, 0u64), |(ns, b), r| (ns + r.dur_ns, b + r.arg))
    };
    let (pack_ns, pack_b) = sum(EventKind::WirePack);
    let (unpack_ns, unpack_b) = sum(EventKind::WireUnpack);
    let gbs = |bytes: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            bytes as f64 / ns as f64
        }
    };
    let kernel_ns = kernel_totals(&window).ns;
    for (name, v, unit) in [
        ("wire.pack_s", pack_ns as f64 * 1e-9, "s"),
        ("wire.unpack_s", unpack_ns as f64 * 1e-9, "s"),
        ("wire.pack_bytes", pack_b as f64, "B"),
        ("wire.pack_gbs", gbs(pack_b, pack_ns), "GB/s"),
        ("wire.unpack_gbs", gbs(unpack_b, unpack_ns), "GB/s"),
        ("distributed.factor_s", span.secs(), "s"),
        ("distributed.wire_bytes", st.wire_bytes as f64, "B"),
        ("distributed.wire_messages", st.messages as f64, "count"),
        ("distributed.payload_bytes", st.payload_bytes as f64, "B"),
        ("distributed.frames", st.frames as f64, "count"),
        ("distributed.broadcasts", st.broadcasts as f64, "count"),
        (
            "distributed.consumer_ttc_bytes",
            st.consumer_ttc_bytes as f64,
            "B",
        ),
        (
            "distributed.reduction_vs_consumer_ttc",
            1.0 - st.wire_bytes as f64 / st.consumer_ttc_bytes as f64,
            "ratio",
        ),
        ("distributed.link_time_tree", st.link_time_tree_s, "model_s"),
        (
            "distributed.kernel_share",
            kernel_ns as f64 * 1e-9 / span.secs(),
            "ratio",
        ),
    ] {
        report.metric(name, v, unit);
    }
}

/// Run `op` alternately with telemetry off and on for about `seconds`;
/// returns the untraced and traced medians. `op` yields the seconds to
/// count, or `None` on failure.
fn overhead_pair(
    seconds: f64,
    report: &mut Report,
    mut op: impl FnMut() -> Option<f64>,
) -> (f64, f64) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while off.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        for (traced, sink) in [(false, &mut off), (true, &mut on)] {
            obs::set_enabled(traced);
            let r = op();
            report.attempt(r.is_some());
            sink.extend(r);
        }
    }
    obs::set_enabled(false);
    if off.is_empty() || on.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    (median(&off), median(&on))
}

/// Run `f` with telemetry on, inside a benchmark span named `stage`.
fn traced<R>(stage: &'static str, spans: &mut Vec<Span>, f: impl FnOnce() -> R) -> R {
    obs::set_enabled(true);
    let start_ns = obs::now_ns();
    let r = f();
    spans.push(Span {
        stage,
        start_ns,
        end_ns: obs::now_ns(),
    });
    obs::set_enabled(false);
    r
}

/// Fill `report` with the per-layer metrics of one traced run and write
/// the Chrome trace of its traced parts to `chrome_path`.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    chrome_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let inp = wl::inputs(spec.n, seed)?;
    for (name, unit) in metric_units() {
        report.metric(name, 0.0, unit);
    }
    let phase = seconds / 3.0;
    obs::set_enabled(false);
    obs::collect();
    let eval = |threads: usize| {
        let t0 = Instant::now();
        MpBackend::new(spec.u_req, spec.nb, threads)
            .loglik_detailed(&Matern2d, &inp.locs, &THETA, &inp.z)
            .map(|(ll, _)| (ll, t0.elapsed().as_secs_f64()))
    };

    // Phase 1: tracing overhead on the workload's own operation, and one
    // single-threaded evaluation.
    let (off, on) = overhead_pair(phase, report, || eval(spec.threads).map(|(_, t)| t));
    report.metric("obs.tracing_overhead_pct", (on / off - 1.0) * 100.0, "%");
    let serial = eval(1);
    report.attempt(serial.is_some());
    if let Some((_, t1)) = serial {
        report.metric("runtime.speedup_1_to_n", t1 / off, "ratio");
    }
    let mut dropped = obs::collect().dropped;

    // Phase 2: traced staged replays.
    let backend_ll = eval(spec.threads).map(|(ll, _)| ll);
    let mut replays = Vec::new();
    obs::set_enabled(true);
    let t0 = Instant::now();
    while replays.is_empty() || t0.elapsed().as_secs_f64() < phase {
        let r = stages::replay(spec, &inp.locs, &THETA, &inp.z);
        report.attempt(r.is_ok());
        match r {
            Ok(r) => replays.push(r),
            Err(e) => {
                obs::set_enabled(false);
                return Err(format!("replay failed: {e}"));
            }
        }
    }
    obs::set_enabled(false);
    let mut trace = obs::collect();
    dropped += trace.dropped;
    let ll = replays[0].loglik;
    let same =
        backend_ll.is_some_and(|b| replays.iter().all(|r| r.loglik.to_bits() == b.to_bits()));
    report.check("replay_bit_identical", same, || {
        format!("replay ℓ {ll} vs backend ℓ {backend_ll:?}")
    });
    let err = wl::check_loglik(
        report,
        "loglik_within_tolerance",
        spec,
        ll,
        inp.loglik_exact,
    );
    report.metric("mle.loglik_rel_err", err, "ratio");
    report.info("replays", replays.len() as f64);
    let per_replay: Vec<Metrics> = replays
        .iter()
        .map(|r| replay_metrics(spec, r, &trace))
        .collect();
    for key in per_replay[0].keys() {
        let vals: Vec<f64> = per_replay.iter().map(|m| m[key]).collect();
        let unit = report.metrics[key].1;
        report.metric(key.clone(), median(&vals), unit);
    }
    for (p, c) in wl::tile_counts(&replays[0].map) {
        report.info(format!("tiles_{}", prec_label(p)), c as f64);
    }
    let mut spans: Vec<Span> = replays
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();

    // Phase 3: the layers the evaluation does not reach. First the MLE
    // fit, then the distributed factorization and its DES replay.
    let fin = wl::inputs(wl::FIT.n, seed)?;
    let mut fits = Vec::new();
    for on in [false, true] {
        let be = wl::CountingBackend::new(&wl::FIT);
        let t0 = Instant::now();
        let r = if on {
            traced("fit", &mut spans, || wl::fit(&fin, &be))
        } else {
            wl::fit(&fin, &be)
        };
        let dt = t0.elapsed().as_secs_f64();
        report.attempt(r.is_ok());
        fits.push((r?, dt, be.evals.into_inner(), be.failed.into_inner()));
    }
    let bits = |i: usize| {
        fits[i]
            .0
            .theta_hat
            .iter()
            .map(|t| t.to_bits())
            .collect::<Vec<_>>()
    };
    report.check("fit_theta_hat_repeats_bitwise", bits(0) == bits(1), || {
        "θ̂ changed between fits".into()
    });
    let th = &fits[0].0.theta_hat;
    let fit_ll = MpBackend::new(wl::FIT.u_req, wl::FIT.nb, wl::FIT.threads)
        .loglik_detailed(&Matern2d, &fin.locs, th, &fin.z)
        .ok_or("backend failed at θ̂")?
        .0;
    let fit_exact = wl::exact(&fin.locs, th, &fin.z)?;
    wl::check_loglik(
        report,
        "fit_loglik_within_tolerance",
        &wl::FIT,
        fit_ll,
        fit_exact,
    );
    report.metric("geostats.fit_s", fits[0].1, "s");
    report.metric("geostats.optimizer_evals", fits[0].2 as f64, "count");
    report.metric("geostats.optimizer_failed_evals", fits[0].3 as f64, "count");
    wl::check_dist(spec, &inp, report)?;
    let (sigma, map) = wl::sigma_and_map(spec, &inp);
    let mut a = sigma.clone();
    let stats = traced("dist_factor", &mut spans, || {
        wl::factor_dist(&mut a, &map, WirePolicy::Auto)
    });
    report.attempt(stats.is_ok());
    let stats = stats?;
    let sim = traced("simulate", &mut spans, || wl::simulate(spec, &map));
    let n = spans.len();
    let (dist_span, sim_span) = (spans[n - 2], spans[n - 1]);
    report.metric("gpusim.sim_s", sim_span.secs(), "s");
    report.metric("gpusim.makespan", sim.makespan_s, "sim_s");
    report.metric("gpusim.nic_bytes", sim.nic_bytes as f64, "B");
    report.metric("gpusim.energy_j", sim.energy_joules(), "J");
    report.metric("gpusim.tflops", sim.tflops(), "TFLOP/s");
    let dist_trace = obs::collect();
    dist_metrics(&stats, &dist_span, &dist_trace, report);
    trace.records.extend(dist_trace.records);
    trace.dropped += dist_trace.dropped;
    dropped += obs::collect().dropped;
    report.metric("obs.dropped_records", dropped as f64, "count");
    trace.records.sort_by_key(|r| (r.ts_ns, r.track));
    std::fs::write(chrome_path, chrome_trace(&trace, &spans))
        .map_err(|e| format!("writing {}: {e}", chrome_path.display()))?;

    // Phase 4: isolated kernels.
    probe::run(spec.nb, report);
    Ok(())
}

/// The program's records as a Chrome trace, with the benchmark's own spans
/// added on a track of their own.
fn chrome_trace(trace: &TraceData, spans: &[Span]) -> String {
    let doc = obs::chrome_trace_json(trace);
    let t0 = trace.min_ts() as f64;
    let tid = 1000;
    let mut extra = format!(
        "  {{\"ph\": \"M\", \"pid\": 0, \"tid\": {tid}, \"name\": \"thread_name\", \"args\": {{\"name\": \"perfbench\"}}}}"
    );
    for s in spans {
        write!(
            extra,
            ",\n  {{\"ph\": \"X\", \"pid\": 0, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \"name\": \"{}\", \"args\": {{}}}}",
            (s.start_ns as f64 - t0) / 1e3,
            s.secs() * 1e6,
            s.stage
        )
        .expect("write to String");
    }
    let head = "\"traceEvents\": [\n";
    let Some(i) = doc.find(head) else { return doc };
    let at = i + head.len();
    let sep = if trace.records.is_empty() { "" } else { ",\n" };
    format!("{}{extra}{sep}{}", &doc[..at], &doc[at..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: EventKind, track: u16, ts: u64, dur: u64, arg: u64) -> Record {
        Record {
            ts_ns: ts,
            dur_ns: dur,
            arg,
            kind,
            track,
        }
    }

    #[test]
    fn conversion_time_is_task_time_outside_same_track_kernels() {
        let w = vec![
            rec(EventKind::TaskExec, 0, 100, 100, 0),
            rec(EventKind::TaskExec, 1, 105, 50, 1),
            rec(EventKind::KernelTrsm, 0, 110, 60, 0),
            rec(EventKind::KernelGemm, 1, 110, 40, 0),
            rec(EventKind::Convert, 0, 180, 0, 4096),
            rec(EventKind::Convert, 1, 200, 0, 4096),
            rec(EventKind::TaskExec, 0, 300, 30, 2),
        ];
        // Only track 0's first task converted inside its span: 100 - 60 ns.
        // Track 1's conversion lies after its task ended.
        let s = conversion_task_s(&w);
        assert!((s - 40e-9).abs() < 1e-15, "{s}");
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let names: Vec<_> = metric_units().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}
