//! Turns passes into the benchmark's metrics and prints them.

use crate::calib;
use crate::meter::{CallLedger, CodecTimes, Counters, Harness, Pass, FORMATS};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (timings only).
    pub samples: Option<usize>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit, samples: None }
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile where each value counts `weight` times.
fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|s| s.1).sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (value, weight) in v {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Documents per second of engine time in one pass.
pub fn docs_per_s(p: &Pass) -> f64 {
    ratio(p.docs() as f64, p.engine_ns() as f64 / 1e9)
}

/// How much faster than the reference speed the host ran during a pass:
/// times multiplied by this read as times at the reference speed.
fn scale(p: &Pass) -> f64 {
    calib::scale(p.reference_ns())
}

/// The end-to-end metrics: each the median over passes of its per-pass
/// value, except `setup_s`, the median over the run's set-ups. Times and
/// rates are scaled to the reference speed (see [`calib`]).
pub fn end_to_end(passes: &[&Pass], setups: &[f64]) -> Vec<Metric> {
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let with = |mut m: Metric, n: usize| {
        m.samples = Some(n);
        m
    };
    let n_init = passes.iter().map(|p| p.initiate_us.len()).sum();
    let n_docs = passes.iter().map(|p| p.docs() as usize).sum();
    let initiate_us = |p: &Pass, q| quantile(&sorted(&p.initiate_us), q) * scale(p);
    let doc_latency_ms = |p: &Pass, q| weighted_quantile(&p.doc_latency, q) * scale(p);
    vec![
        with(metric("setup_s", median(setups), "s"), setups.len()),
        with(metric("docs_per_s", per_pass(&|p| docs_per_s(p) / scale(p)), "1/s"), n_docs),
        with(metric("initiate_us_p50", per_pass(&|p| initiate_us(p, 0.5)), "us"), n_init),
        with(metric("initiate_us_p99", per_pass(&|p| initiate_us(p, 0.99)), "us"), n_init),
        with(metric("doc_latency_ms_p50", per_pass(&|p| doc_latency_ms(p, 0.5)), "ms"), n_docs),
        with(metric("doc_latency_ms_p99", per_pass(&|p| doc_latency_ms(p, 0.99)), "ms"), n_docs),
        metric(
            "allocs_per_doc",
            per_pass(&|p| {
                ratio((p.initiate.alloc.calls + p.pump.alloc.calls) as f64, p.docs() as f64)
            }),
            "count",
        ),
        metric(
            "live_bytes_per_session",
            per_pass(&|p| ratio(p.traffic_alloc.live as f64, p.sessions as f64)),
            "B",
        ),
        metric("peak_live_mb", per_pass(&|p| p.peak_live as f64 / 1e6), "MB"),
    ]
}

/// Median over passes of the mean reference slice time, ms.
pub fn reference_ms(passes: &[&Pass]) -> f64 {
    median(&passes.iter().map(|p| p.reference_ns() / 1e6).collect::<Vec<_>>())
}

/// Protocol guards: sim-time from initiate to completion over completed
/// sessions, and sessions that failed or missed their expected outcome
/// over sessions initiated. Simulated time is deterministic for a seed
/// and a correct run's error rate is 0, so these are printed with the
/// end-to-end table and reported in the traced ledger, not as bounded
/// end-to-end metrics.
pub fn guards(passes: &[&Pass]) -> Vec<Metric> {
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let n_sessions = passes.iter().map(|p| p.session_sim_ms.len()).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let sessions: u64 = passes.iter().map(|p| p.sessions).sum();
    vec![
        Metric {
            samples: Some(n_sessions),
            ..metric(
                "session.sim_ms_p50",
                per_pass(&|p| quantile(&sorted(&p.session_sim_ms), 0.5)),
                "ms",
            )
        },
        Metric {
            samples: Some(n_sessions),
            ..metric(
                "session.sim_ms_p99",
                per_pass(&|p| quantile(&sorted(&p.session_sim_ms), 0.99)),
                "ms",
            )
        },
        metric("session.error_rate", ratio(failed as f64, sessions as f64), "1"),
    ]
}

/// Totals of the traced passes, per pass.
struct Traced {
    n: f64,
    initiate: CallLedger,
    pump: CallLedger,
    counters: Counters,
    codec: CodecTimes,
    harness_ns: [u64; 3],
    wall_ns: u64,
    traffic_allocs: u64,
    sessions: u64,
}

impl Traced {
    fn of(passes: &[&Pass]) -> Self {
        let mut t = Traced {
            n: passes.len() as f64,
            initiate: CallLedger::default(),
            pump: CallLedger::default(),
            counters: Counters::default(),
            codec: CodecTimes::default(),
            harness_ns: [0; 3],
            wall_ns: 0,
            traffic_allocs: 0,
            sessions: 0,
        };
        for p in passes {
            t.initiate.add(&p.initiate);
            t.pump.add(&p.pump);
            t.counters.add(&p.counters);
            t.codec.add(&p.codec);
            for (sum, ns) in t.harness_ns.iter_mut().zip(p.harness_ns) {
                *sum += ns;
            }
            t.wall_ns += p.wall_ns;
            t.traffic_allocs += p.traffic_alloc.calls;
            t.sessions += p.sessions;
        }
        t
    }
}

/// The per-layer ledger of the traced passes, plus the tracing overhead
/// against the untraced passes of the same run.
pub fn per_layer(traced: &[&Pass], untraced: &[&Pass]) -> Vec<Metric> {
    let mut m = guards(traced);
    let t = Traced::of(traced);
    let n = t.n;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    let s = |ns: u64| ns as f64 / 1e9 / n;
    let per = |x: u64| x as f64 / n;
    let c = &t.counters;
    let st = &c.stage;
    let settle_ns = t.pump.stages.execute + t.initiate.stages.execute;
    let emit_ns = t.pump.stages.emit + t.initiate.stages.emit;
    let creation_ns = t.initiate.ns - t.initiate.stages.total();
    let other_ns = t.pump.ns - t.pump.stages.total();
    let engine_ns = t.initiate.ns + t.pump.ns;
    let engine_allocs = t.initiate.alloc.calls + t.pump.alloc.calls;
    let harness_ns: u64 = t.harness_ns.iter().sum();
    let untraced_rate = median(&untraced.iter().map(|p| docs_per_s(p)).collect::<Vec<_>>());
    let traced_rate = median(&traced.iter().map(|p| docs_per_s(p)).collect::<Vec<_>>());
    let codec_us = |(calls, ns): (u64, u64)| ratio(ns as f64 / 1e3, calls as f64);

    m.extend([
        metric("host.reference_ms", reference_ms(traced), "ms"),
        metric("wall_s", s(t.wall_ns), "s"),
        metric("engine_s", s(engine_ns), "s"),
        metric("engine.initiate.us", us(creation_ns), "us"),
        metric(
            "engine.initiate.us_per_session",
            ratio(creation_ns as f64 / 1e3, t.sessions as f64),
            "us",
        ),
        metric(
            "engine.initiate.allocs_per_session",
            ratio(t.initiate.alloc.calls as f64, t.sessions as f64),
            "count",
        ),
        metric(
            "engine.initiate.live_bytes_per_session",
            ratio(t.initiate.alloc.live as f64, t.sessions as f64),
            "B",
        ),
        metric("engine.initiate.allocs", per(t.initiate.alloc.calls), "count"),
        metric("engine.pump.allocs", per(t.pump.alloc.calls), "count"),
        metric("engine.allocs", per(engine_allocs), "count"),
        metric("engine.frees", per(t.initiate.alloc.frees + t.pump.alloc.frees), "count"),
        metric("runtime.edge.us", us(t.pump.stages.edge), "us"),
        metric(
            "runtime.edge.us_per_payload",
            ratio(t.pump.stages.edge as f64 / 1e3, st.edge_payloads as f64),
            "us",
        ),
        metric("runtime.edge.payloads", per(st.edge_payloads), "count"),
        metric("runtime.edge.duplicates", per(st.edge_duplicates), "count"),
        metric("runtime.edge.memo_hits", per(c.memo_hits), "count"),
        metric("runtime.edge.memo_misses", per(c.memo_misses), "count"),
        metric("runtime.route.us", us(t.pump.stages.route), "us"),
        metric(
            "runtime.route.us_per_doc",
            ratio(t.pump.stages.route as f64 / 1e3, st.routed_documents as f64),
            "us",
        ),
        metric("runtime.route.docs", per(st.routed_documents), "count"),
        metric("wfms.settle.us", us(settle_ns), "us"),
        metric(
            "wfms.settle.us_per_pass",
            ratio(settle_ns as f64 / 1e3, st.settle_passes as f64),
            "us",
        ),
        metric("wfms.settle.passes", per(st.settle_passes), "count"),
        metric("wfms.settle.rounds", per(c.settle_rounds), "count"),
        metric("wfms.settle.touched", per(c.settle_touched), "count"),
        metric("wfms.settle.moved", per(c.settle_moved), "count"),
        metric("runtime.emit.us", us(emit_ns), "us"),
        metric(
            "runtime.emit.us_per_doc",
            ratio(emit_ns as f64 / 1e3, st.emitted_documents as f64),
            "us",
        ),
        metric("runtime.emit.docs", per(st.emitted_documents), "count"),
        metric("runtime.emit.encode_batches", per(st.encode_batches), "count"),
        metric("runtime.emit.coalesced_frames", per(st.coalesced_frames), "count"),
        metric("runtime.other.us", us(other_ns), "us"),
        metric("network.reliable.sends", per(c.reliable_sends), "count"),
        metric("network.reliable.retries", per(c.reliable_retries), "count"),
        metric("network.reliable.acks", per(c.reliable_acks), "count"),
        metric("network.reliable.dead_letters", per(c.dead_letters), "count"),
        metric("wfms.pool.rounds", per(c.pool_rounds), "count"),
        metric("wfms.pool.steals", per(c.pool_steals), "count"),
        metric("wfms.pool.idle_wakeups", per(c.pool_idle_wakeups), "count"),
        metric(
            "session.table_bytes_per_session",
            ratio(c.table_bytes as f64, c.table_sessions as f64),
            "B",
        ),
    ]);
    for (i, format) in FORMATS.iter().enumerate() {
        m.push(metric(format!("document.decode_us.{format}"), codec_us(t.codec.decode[i]), "us"));
        m.push(metric(format!("document.encode_us.{format}"), codec_us(t.codec.encode[i]), "us"));
    }
    m.extend([
        metric("transform.us_per_call", codec_us(t.codec.transform), "us"),
        metric("rules.invocations", per(c.rule_invocations), "count"),
        metric("backend.orders", per(c.backend_orders), "count"),
        metric("harness.partner_s", s(t.harness_ns[Harness::Partner as usize]), "s"),
        metric("harness.network_s", s(t.harness_ns[Harness::Network as usize]), "s"),
        metric("harness.probe_s", s(t.harness_ns[Harness::Probe as usize]), "s"),
        metric("harness.loop_s", s(t.wall_ns - engine_ns - harness_ns), "s"),
        metric("harness.allocs", per(t.traffic_allocs - engine_allocs), "count"),
        metric("trace.docs_per_s_untraced", untraced_rate, "1/s"),
        metric("trace.docs_per_s_traced", traced_rate, "1/s"),
    ]);
    m
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
}

/// Prints the end-to-end metrics and protocol guards as a table.
pub fn print_end_to_end(workload: &str, metrics: &[Metric], guards: &[Metric], passes: &[&Pass]) {
    println!("== {workload}: end-to-end metrics (median of {} untraced passes) ==", passes.len());
    println!(
        "  times scaled to the reference speed: reference workload {:.2} ms here, {:.2} ms at reference",
        reference_ms(passes),
        calib::REFERENCE_NS / 1e6
    );
    for m in metrics.iter().chain(guards) {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<24} {:>16.4} {:<6}{samples}", m.name, m.value, m.unit);
    }
}

/// Prints the traced ledger as one per-layer table: each layer's time
/// with its share of wall time, rows that sum to the wall, and the
/// engine allocations by call that sum to the engine total.
pub fn print_per_layer(workload: &str, m: &[Metric], traced: usize) {
    let v = |name: &str| value(m, name);
    let wall_ms = v("wall_s") * 1e3;
    let row = |layer: &str, ms: f64, detail: String| {
        println!("  {layer:<18} {ms:>10.1} ms {:>6.1}%  {detail}", 100.0 * ms / wall_ms);
    };
    println!("== {workload}: per-layer ledger (per traced pass, {traced} traced) ==");
    row(
        "engine.initiate",
        v("engine.initiate.us") / 1e3,
        format!(
            "{:.2} us/session, {:.1} allocs/session, {:.0} B live/session",
            v("engine.initiate.us_per_session"),
            v("engine.initiate.allocs_per_session"),
            v("engine.initiate.live_bytes_per_session")
        ),
    );
    row(
        "runtime.edge",
        v("runtime.edge.us") / 1e3,
        format!(
            "{:.2} us/payload, {:.0} payloads, {:.0} dups, memo {:.0}/{:.0} hit/miss",
            v("runtime.edge.us_per_payload"),
            v("runtime.edge.payloads"),
            v("runtime.edge.duplicates"),
            v("runtime.edge.memo_hits"),
            v("runtime.edge.memo_misses")
        ),
    );
    row(
        "runtime.route",
        v("runtime.route.us") / 1e3,
        format!("{:.2} us/doc, {:.0} docs", v("runtime.route.us_per_doc"), v("runtime.route.docs")),
    );
    row(
        "wfms.settle",
        v("wfms.settle.us") / 1e3,
        format!(
            "{:.2} us/pass, {:.0} passes, {:.0} rounds, {:.0} touched, {:.0} moved",
            v("wfms.settle.us_per_pass"),
            v("wfms.settle.passes"),
            v("wfms.settle.rounds"),
            v("wfms.settle.touched"),
            v("wfms.settle.moved")
        ),
    );
    row(
        "runtime.emit",
        v("runtime.emit.us") / 1e3,
        format!(
            "{:.2} us/doc, {:.0} docs, {:.0} encode batches, {:.0} frames",
            v("runtime.emit.us_per_doc"),
            v("runtime.emit.docs"),
            v("runtime.emit.encode_batches"),
            v("runtime.emit.coalesced_frames")
        ),
    );
    row("runtime.other", v("runtime.other.us") / 1e3, "remainder of pump time".into());
    row("harness.partner", v("harness.partner_s") * 1e3, "simulated partners".into());
    row("harness.network", v("harness.network_s") * 1e3, "SimNetwork::advance".into());
    row("harness.probe", v("harness.probe_s") * 1e3, "codec probe calls".into());
    row("harness.loop", v("harness.loop_s") * 1e3, "plan, quiescence, bookkeeping".into());
    let sum_ms = (v("engine.initiate.us")
        + v("runtime.edge.us")
        + v("runtime.route.us")
        + v("wfms.settle.us")
        + v("runtime.emit.us")
        + v("runtime.other.us"))
        / 1e3
        + (v("harness.partner_s")
            + v("harness.network_s")
            + v("harness.probe_s")
            + v("harness.loop_s"))
            * 1e3;
    println!("  {:<18} {sum_ms:>10.1} ms  (wall {wall_ms:.1} ms)", "sum");
    println!(
        "  allocs: engine.initiate {:.0} + engine.pump {:.0} = engine {:.0} ; harness {:.0}",
        v("engine.initiate.allocs"),
        v("engine.pump.allocs"),
        v("engine.allocs"),
        v("harness.allocs")
    );
    println!(
        "  reliable: {:.0} sends, {:.0} retries, {:.0} acks, {:.0} dead letters; pool: {:.0} rounds, {:.0} steals, {:.0} idle wakeups",
        v("network.reliable.sends"),
        v("network.reliable.retries"),
        v("network.reliable.acks"),
        v("network.reliable.dead_letters"),
        v("wfms.pool.rounds"),
        v("wfms.pool.steals"),
        v("wfms.pool.idle_wakeups")
    );
    let codec: Vec<String> = FORMATS
        .iter()
        .map(|f| {
            format!(
                "{f} decode {:.2} / encode {:.2}",
                v(&format!("document.decode_us.{f}")),
                v(&format!("document.encode_us.{f}"))
            )
        })
        .collect();
    println!(
        "  codec us: {}; transform {:.2} us/call",
        codec.join(", "),
        v("transform.us_per_call")
    );
    println!(
        "  session table {:.0} B/session; {:.0} rule invocations; {:.0} back-end orders",
        v("session.table_bytes_per_session"),
        v("rules.invocations"),
        v("backend.orders")
    );
    let (untraced, traced_rate) = (v("trace.docs_per_s_untraced"), v("trace.docs_per_s_traced"));
    println!(
        "  tracing overhead: {untraced:.0} docs/s untraced vs {traced_rate:.0} traced ({:+.1}%)",
        100.0 * (untraced / traced_rate - 1.0)
    );
}

/// The result line: one JSON object, printed last.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
