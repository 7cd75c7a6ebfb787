//! Tracing for the per-layer run: an in-memory span sink over the spans the
//! program already emits, and the value layer's standalone calls.

use crate::stats::{Metrics, Rng};
use nested_synth::obs::{self, Event, EventKind, EventSink};
use nested_synth::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Blocking-path stages of a synthesis run, by the program's span names.
#[derive(Clone, Copy, Debug)]
pub enum Stage {
    Prove,
    Plan,
    Assemble,
}

fn stage_of(span: &str) -> Option<Stage> {
    match span {
        "synth.prove_batch" | "synth.workload.prove_batch" | "synth.goal" => Some(Stage::Prove),
        "synth.collect" | "synth.workload.plan" => Some(Stage::Plan),
        "synth.assemble" | "synth.workload.assemble" => Some(Stage::Assemble),
        _ => None,
    }
}

#[derive(Default)]
struct Totals {
    /// Open spans: id → whether it or an ancestor is a staged span.
    open: HashMap<u64, bool>,
    ns: [u64; 3],
}

/// Sums the wall time of the outermost staged spans opened on the thread
/// that installed the sink — the benchmark's caller thread, whose time is
/// the blocking path (prover workers report to it through their batches).
pub struct SpanTotals {
    caller: ThreadId,
    totals: Mutex<Totals>,
}

static INSTALLED: OnceLock<Mutex<Option<Arc<SpanTotals>>>> = OnceLock::new();

fn installed() -> &'static Mutex<Option<Arc<SpanTotals>>> {
    INSTALLED.get_or_init(|| Mutex::new(None))
}

/// Stage totals read since the last reset, in milliseconds.
#[derive(Default, Clone, Copy)]
pub struct StageMs([f64; 3]);

impl StageMs {
    pub fn ms(&self, s: Stage) -> f64 {
        self.0[s as usize]
    }
}

impl SpanTotals {
    /// Install the sink process-wide, which turns the program's spans on.
    pub fn install() {
        let sink = Arc::new(SpanTotals {
            caller: std::thread::current().id(),
            totals: Mutex::new(Totals::default()),
        });
        *installed().lock().expect("sink registry lock") = Some(sink.clone());
        obs::install_sink(sink);
    }

    /// Remove the sink, which turns the program's spans off again.
    pub fn uninstall() {
        obs::clear_sink();
        *installed().lock().expect("sink registry lock") = None;
    }

    pub fn reset() {
        if let Some(s) = installed().lock().expect("sink registry lock").as_ref() {
            s.totals.lock().expect("span totals lock").ns = [0; 3];
        }
    }

    /// Totals since the last reset (zeros when no sink is installed).
    pub fn read() -> StageMs {
        let guard = installed().lock().expect("sink registry lock");
        let Some(s) = guard.as_ref() else {
            return StageMs::default();
        };
        let ns = s.totals.lock().expect("span totals lock").ns;
        StageMs(ns.map(|n| n as f64 / 1e6))
    }
}

impl EventSink for SpanTotals {
    fn emit(&self, event: &Event) {
        if std::thread::current().id() != self.caller {
            return;
        }
        let mut t = self.totals.lock().expect("span totals lock");
        match event.kind {
            EventKind::SpanStart => {
                let inherited = event
                    .parent_id
                    .and_then(|p| t.open.get(&p).copied())
                    .unwrap_or(false);
                let staged = inherited || stage_of(event.name).is_some();
                t.open.insert(event.span_id, staged);
            }
            EventKind::SpanEnd => {
                t.open.remove(&event.span_id);
                let inherited = event
                    .parent_id
                    .and_then(|p| t.open.get(&p).copied())
                    .unwrap_or(false);
                if let (Some(stage), false) = (stage_of(event.name), inherited) {
                    t.ns[stage as usize] += event.elapsed_ns.unwrap_or(0);
                }
            }
            EventKind::Instant | EventKind::Error => {}
        }
    }
}

/// Elements of the set the value layer is measured on.
const VALUE_SET: u64 = 100_000;

/// Standalone calls into the value layer on a seeded 10⁵-element set.
pub fn value_layer(seed: u64, m: &mut Metrics) {
    let mut rng = Rng::new(seed, 0x7a1);
    let universe = 2 * VALUE_SET;
    let mut ids = BTreeSet::new();
    while (ids.len() as u64) < VALUE_SET {
        ids.insert(rng.below(universe));
    }
    let build = || Value::set(ids.iter().map(|&i| Value::atom(i)));
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let mut build_ms = Vec::new();
    let mut set = Value::empty_set();
    for _ in 0..10 {
        let t = Instant::now();
        set = build();
        build_ms.push(ms(t));
    }
    m.put_median("value.set_build_ms", &build_ms, "ms");

    let mut insert_us = Vec::new();
    for _ in 0..40 {
        let fresh = loop {
            let x = rng.below(universe);
            if !ids.contains(&x) {
                break x;
            }
        };
        let one = Value::set([Value::atom(fresh)]);
        let t = Instant::now();
        let grown = set.union(&one).expect("sets");
        insert_us.push(ms(t) * 1e3);
        drop(std::hint::black_box(grown));
    }
    m.put_median("value.set_insert_us", &insert_us, "us");

    let elems = set.as_set().expect("a set");
    let mut iter_ns = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        let n = elems
            .iter()
            .filter(|v| std::hint::black_box(v).size() > 0)
            .count();
        iter_ns.push(ms(t) * 1e6 / n as f64);
    }
    m.put_median("value.iter_ns_per_elem", &iter_ns, "ns");

    let probes: Vec<Value> = (0..VALUE_SET)
        .map(|_| Value::atom(rng.below(universe)))
        .collect();
    let mut contains_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let hits = probes.iter().filter(|p| elems.contains(*p)).count();
        std::hint::black_box(hits);
        contains_ns.push(ms(t) * 1e6 / probes.len() as f64);
    }
    m.put_median("value.contains_ns", &contains_ns, "ns");
}
