//! The write path: two servers over one partition instance — a single
//! rewriting and a four-answer workload — driven by one closed-loop client
//! while one reader thread loops snapshot reads.

use crate::reference::{Base, Expect, VIEWS};
use crate::stats::{median, tail_quantile, Metrics, Rng, Tally};
use crate::Measured;
use nested_synth::obs;
use nested_synth::serve::Snapshot;
use nested_synth::synthesis::{
    overlapping_workload_problem, MaintainedRewriting, MaintainedWorkload, RewritingResult,
    Synthesizer, WorkloadRewriting,
};
use nested_synth::{Instance, Name, UpdateBatch, Value, ViewServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Tuples per batched flush.
const BATCH: usize = 64;
/// Single-tuple updates on the single-query server a pass makes at least
/// when it reports `update_ms_p99`, so that ten samples lie beyond it.
const MIN_UPDATES: usize = 1_000;
/// Reads per timed reader block.
const READ_BLOCK: usize = 2_000;
/// Wall-clock cap of the standalone replays of a traced run, per engine.
const REPLAY_CAP: Duration = Duration::from_secs(2);

#[derive(Clone, Copy, Debug)]
enum Rel {
    S,
    F,
}

#[derive(Clone, Copy, Debug)]
struct Update {
    rel: Rel,
    insert: bool,
    id: u64,
}

impl Update {
    fn batch(&self) -> UpdateBatch {
        let name = match self.rel {
            Rel::S => "S",
            Rel::F => "F",
        };
        let mut b = UpdateBatch::new();
        if self.insert {
            b.insert(name, Value::atom(self.id));
        } else {
            b.delete(name, Value::atom(self.id));
        }
        b
    }
}

impl Base {
    /// Draw the next update (50/50 insert/delete over `S` and `F`) and apply
    /// it to the mirror.
    fn next(&mut self, rng: &mut Rng, universe: u64) -> Update {
        let rel = if rng.below(2) == 0 { Rel::S } else { Rel::F };
        let set = match rel {
            Rel::S => &mut self.s,
            Rel::F => &mut self.f,
        };
        let delete = rng.below(2) == 0;
        if delete {
            if let Some(id) = set.sample(rng) {
                set.remove(id);
                return Update {
                    rel,
                    insert: false,
                    id,
                };
            }
        }
        let id = loop {
            let id = rng.below(universe);
            if !set.contains(id) {
                break id;
            }
        };
        set.insert(id);
        Update {
            rel,
            insert: true,
            id,
        }
    }
}

/// The answers of the single-query server, and of the overlapping
/// workload's queries `Q0..Q3` (S, S ∩ F, S \ F, S).
const SINGLE: [(&str, Expect); 1] = [("Q", Expect::Whole)];
const MULTI: [(&str, Expect); 4] = [
    ("Q0", Expect::Whole),
    ("Q1", Expect::Inter),
    ("Q2", Expect::Diff),
    ("Q3", Expect::Whole),
];

fn answer<'a>(snap: &'a Snapshot, name: &str) -> Option<&'a Value> {
    let n = Name::new(name);
    snap.answer_named(&n).or_else(|| snap.view(&n))
}

/// Membership of `ids` in every answer and view agrees with the mirror.
fn check_members(
    snap: &Snapshot,
    answers: &[(&str, Expect)],
    base: &Base,
    ids: &[u64],
) -> Result<(), String> {
    for &(name, e) in answers.iter().chain(&VIEWS) {
        let v = answer(snap, name).ok_or(format!("no answer {name}"))?;
        for &id in ids {
            let got = v.contains(&Value::atom(id)).map_err(|e| e.to_string())?;
            if got != base.holds(e, id) {
                return Err(format!(
                    "{name}: membership of {id} is {got} at epoch {}",
                    snap.epoch
                ));
            }
        }
    }
    Ok(())
}

fn check_full(snap: &Snapshot, answers: &[(&str, Expect)], base: &Base) -> Result<(), String> {
    for &(name, e) in answers.iter().chain(&VIEWS) {
        let v = answer(snap, name).ok_or(format!("no answer {name}"))?;
        if *v != base.value(e) {
            return Err(format!("{name}: final answer differs from the reference"));
        }
    }
    Ok(())
}

pub struct ServeState {
    universe: u64,
    rng: Rng,
    initial: Instance,
    initial_base: Base,
    rewriting: RewritingResult,
    workload: WorkloadRewriting,
    single: ViewServer,
    multi: ViewServer,
    single_base: Base,
    multi_base: Base,
    /// Every update applied so far, per server, in order.
    single_stream: Vec<Update>,
    multi_stream: Vec<Update>,
    seed: u64,
    /// Run every pass until `update_ms_p99` can be reported.
    need_p99: bool,
}

impl ServeState {
    /// Serve `rewriting` and `overlapping_workload_problem(4)` over
    /// `initial`, whose reference copy is `base`.
    pub fn new(
        synth: &Synthesizer,
        initial: &Instance,
        base: &Base,
        rewriting: RewritingResult,
        seed: u64,
        need_p99: bool,
    ) -> ServeState {
        let workload = synth
            .derive_workload(&overlapping_workload_problem(4))
            .expect("the overlapping workload synthesizes");
        let single = ViewServer::builder()
            .serve(&rewriting, initial)
            .expect("serve the rewriting");
        let multi = ViewServer::builder()
            .serve_workload(&workload, initial)
            .expect("serve the workload");
        ServeState {
            // the universe partition_instance draws its atoms from
            universe: (crate::SIZE as u64 * 2).max(4),
            rng: Rng::new(seed, 0x5e4e),
            initial: initial.clone(),
            initial_base: base.clone(),
            rewriting,
            workload,
            single,
            multi,
            single_base: base.clone(),
            multi_base: base.clone(),
            single_stream: Vec::new(),
            multi_stream: Vec::new(),
            seed,
            need_p99,
        }
    }
}

/// Sum (ns) of the four flush-stage timers the serving layer records.
struct StageTimers([std::sync::Arc<obs::Histogram>; 4]);

const STAGES: [&str; 4] = ["drain", "coalesce", "maintain", "publish"];

impl StageTimers {
    fn new() -> StageTimers {
        let r = obs::global();
        StageTimers(STAGES.map(|s| r.timer(&format!("serve.flush.{s}_seconds"))))
    }

    fn sums(&self) -> [u64; 4] {
        [0, 1, 2, 3].map(|i| self.0[i].snapshot().sum)
    }
}

#[derive(Default)]
pub struct ServeResult {
    update_ms: Vec<f64>,
    workload_update_ms: Vec<f64>,
    batch_per_s: Vec<f64>,
    read_ns: Vec<f64>,
    traced: bool,
    tr: Traced,
}

#[derive(Default)]
struct Traced {
    /// Per single-query update: the four stage times (ms).
    stages: Vec<[f64; 4]>,
    submit_us: Vec<f64>,
    flush_ms: Vec<f64>,
    bare_us: Vec<f64>,
    touched: Vec<f64>,
    resilient_us: Vec<f64>,
    workload_us: Vec<f64>,
    snapshot_ns: Vec<f64>,
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The reader: `snapshot()` plus one answer-membership probe, timed in
/// blocks, until `stop`.
fn reader(server: &ViewServer, seed: u64, universe: u64, stop: &AtomicBool) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x4ead);
    let mut blocks = Vec::new();
    let q = Name::new("Q");
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        let mut hits = 0usize;
        for _ in 0..READ_BLOCK {
            let snap = server.snapshot();
            let probe = Value::atom(rng.below(universe));
            if let Some(v) = snap.answer_named(&q) {
                hits += usize::from(v.contains(&probe).unwrap_or(false));
            }
        }
        std::hint::black_box(hits);
        blocks.push(t.elapsed().as_secs_f64() * 1e9 / READ_BLOCK as f64);
    }
    blocks
}

/// Share of a pass's minimum sample counts reached (≥ 1 once met).
pub fn progress(st: &ServeState, acc: &ServeResult) -> f64 {
    if !st.need_p99 {
        return 1.0;
    }
    let share = |n: usize, min: usize| n as f64 / min as f64;
    share(acc.update_ms.len(), MIN_UPDATES)
        .min(share(acc.workload_update_ms.len(), 20))
        .min(share(acc.batch_per_s.len(), 20))
}

/// Drive the client (and the reader) for about `time`, at least one
/// operation, appending to `acc`.
pub fn slice(
    st: &mut ServeState,
    acc: &mut ServeResult,
    time: Duration,
    traced: bool,
    tally: &mut Tally,
) {
    acc.traced |= traced;
    // a fresh probe sequence per slice
    let seed = st.seed.wrapping_add(acc.read_ns.len() as u64);
    let (out, tr) = (&mut acc.update_ms, &mut acc.tr);
    let (workload_ms, batch_per_s) = (&mut acc.workload_update_ms, &mut acc.batch_per_s);
    let timers = StageTimers::new();
    let stop = AtomicBool::new(false);
    let (single, universe) = (&st.single, st.universe);
    let start = Instant::now();
    let read_ns = std::thread::scope(|scope| {
        let reading = scope.spawn(|| reader(single, seed, universe, &stop));
        // stops the reader however the client loop ends, so a panic here
        // cannot leave the scope waiting on a spinning reader
        let stopper = StopOnDrop(&stop);
        loop {
            // the client's mix: 8 single updates on the single-query server,
            // 1 on the workload server, 1 batch of 64 on the first server
            match st.rng.below(10) {
                0..=7 => {
                    let u = st.single_base.next(&mut st.rng, st.universe);
                    st.single_stream.push(u);
                    let batch = u.batch();
                    let before = traced.then(|| timers.sums());
                    let t = Instant::now();
                    let r = st.single.apply(&batch);
                    out.push(ms_since(t));
                    if let Some(before) = before {
                        let after = timers.sums();
                        tr.stages
                            .push([0, 1, 2, 3].map(|i| (after[i] - before[i]) as f64 / 1e6));
                    }
                    tally.check(r.map_err(|e| e.to_string()).and_then(|rep| {
                        check_members(&rep.snapshot, &SINGLE, &st.single_base, &[u.id])
                    }));
                }
                8 => {
                    let u = st.multi_base.next(&mut st.rng, st.universe);
                    st.multi_stream.push(u);
                    let batch = u.batch();
                    let t = Instant::now();
                    let r = st.multi.apply(&batch);
                    workload_ms.push(ms_since(t));
                    tally.check(r.map_err(|e| e.to_string()).and_then(|rep| {
                        check_members(&rep.snapshot, &MULTI, &st.multi_base, &[u.id])
                    }));
                }
                _ => {
                    let updates: Vec<Update> = (0..BATCH)
                        .map(|_| st.single_base.next(&mut st.rng, st.universe))
                        .collect();
                    st.single_stream.extend(&updates);
                    let batches: Vec<UpdateBatch> = updates.iter().map(Update::batch).collect();
                    let mut submitted = Ok(());
                    let t = Instant::now();
                    for b in &batches {
                        let ts = Instant::now();
                        submitted = submitted.and(st.single.submit(b));
                        if traced {
                            tr.submit_us.push(ms_since(ts) * 1e3);
                        }
                    }
                    let tf = Instant::now();
                    let r = submitted.and_then(|()| st.single.flush());
                    let flush_ms = ms_since(tf);
                    batch_per_s.push(BATCH as f64 / (ms_since(t) / 1e3));
                    if traced {
                        tr.flush_ms.push(flush_ms);
                    }
                    let ids: Vec<u64> = updates.iter().map(|u| u.id).collect();
                    tally.check(r.map_err(|e| e.to_string()).and_then(|rep| {
                        check_members(&rep.snapshot, &SINGLE, &st.single_base, &ids)
                    }));
                }
            }
            if start.elapsed() >= time {
                break;
            }
        }
        drop(stopper);
        reading.join().expect("the reader thread panicked")
    });
    acc.read_ns.extend(read_ns);
}

/// End of a pass: full equality of every answer with the reference, and in
/// a traced pass the standalone replays.
pub fn finish(st: &ServeState, acc: &mut ServeResult, tally: &mut Tally) {
    tally.check(check_full(&st.single.snapshot(), &SINGLE, &st.single_base));
    tally.check(check_full(&st.multi.snapshot(), &MULTI, &st.multi_base));
    if acc.traced {
        replay_layers(st, &mut acc.tr, tally);
    }
}

/// Replay each server's update stream on standalone engines built from the
/// same initial base: bare IVM, the self-healing apply, and the workload
/// engine — each update checked against a replayed mirror.
fn replay_layers(st: &ServeState, tr: &mut Traced, tally: &mut Tally) {
    let us_since = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for resilient in [false, true] {
        let mut engine =
            MaintainedRewriting::new(&st.rewriting, &st.initial).expect("maintain the rewriting");
        let mut base = st.initial_base.clone();
        let start = Instant::now();
        for u in &st.single_stream {
            if start.elapsed() > REPLAY_CAP {
                break;
            }
            replay_mirror(&mut base, u);
            let batch = u.batch();
            let touched = engine.maint_stats().touched_members;
            let t = Instant::now();
            let r = if resilient {
                engine.apply_resilient(&batch).map(drop)
            } else {
                engine.apply(&batch).map(drop)
            };
            let us = us_since(t);
            if resilient {
                tr.resilient_us.push(us);
            } else {
                tr.bare_us.push(us);
                tr.touched
                    .push((engine.maint_stats().touched_members - touched) as f64);
            }
            let got = engine
                .answer()
                .contains(&Value::atom(u.id))
                .unwrap_or(false);
            tally.check(r.map_err(|e| e.to_string()).and_then(|()| {
                if got == base.holds(Expect::Whole, u.id) {
                    Ok(())
                } else {
                    Err(format!(
                        "maintained answer: membership of {} is {got}",
                        u.id
                    ))
                }
            }));
        }
    }
    let mut engine =
        MaintainedWorkload::new(&st.workload, &st.initial).expect("maintain the workload");
    let mut base = st.initial_base.clone();
    let start = Instant::now();
    for u in &st.multi_stream {
        if start.elapsed() > REPLAY_CAP {
            break;
        }
        replay_mirror(&mut base, u);
        let t = Instant::now();
        let r = engine.apply(&u.batch());
        tr.workload_us.push(us_since(t));
        tally.check(r.map_err(|e| e.to_string()).and_then(|_| {
            for (name, e) in MULTI {
                let v = engine
                    .answer(&Name::new(name))
                    .ok_or(format!("no answer {name}"))?;
                if v.contains(&Value::atom(u.id)).unwrap_or(false) != base.holds(e, u.id) {
                    return Err(format!(
                        "maintained workload {name}: membership of {}",
                        u.id
                    ));
                }
            }
            Ok(())
        }));
    }
    // uncontended snapshot reads: the reader has stopped
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(st.single.snapshot());
        }
        tr.snapshot_ns
            .push(t.elapsed().as_secs_f64() * 1e9 / 10_000.0);
    }
}

fn replay_mirror(base: &mut Base, u: &Update) {
    let set = match u.rel {
        Rel::S => &mut base.s,
        Rel::F => &mut base.f,
    };
    if u.insert {
        set.insert(u.id);
    } else {
        set.remove(u.id);
    }
}

impl Measured for ServeResult {
    fn focus_ms(&self) -> f64 {
        median(&self.update_ms)
    }

    fn end_to_end(&self, m: &mut Metrics) {
        m.put_median("update_ms_p50", &self.update_ms, "ms");
        m.put(
            "update_ms_p99",
            tail_quantile(&self.update_ms, 0.99).unwrap_or(f64::NAN),
            "ms",
            Some(self.update_ms.len()),
        );
        m.put_median("workload_update_ms_p50", &self.workload_update_ms, "ms");
        m.put_median("batch_updates_per_s", &self.batch_per_s, "1/s");
        m.put_median("read_ns_p50", &self.read_ns, "ns");
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        if !self.traced {
            return;
        }
        let tr = &self.tr;
        m.put_median("serve.update_ms", &self.update_ms, "ms");
        let mut stage_sum = 0.0;
        for (i, s) in STAGES.iter().enumerate() {
            let xs: Vec<f64> = tr.stages.iter().map(|st| st[i]).collect();
            stage_sum += median(&xs);
            m.put_median(&format!("serve.{s}_ms"), &xs, "ms");
        }
        let unattributed: Vec<f64> = self
            .update_ms
            .iter()
            .zip(&tr.stages)
            .map(|(t, st)| t - st.iter().sum::<f64>())
            .collect();
        m.put_median("serve.unattributed_ms", &unattributed, "ms");
        m.put(
            "remainder.update_ms_p50",
            median(&self.update_ms) - stage_sum,
            "ms",
            Some(self.update_ms.len()),
        );
        m.put_median("serve.submit_us", &tr.submit_us, "us");
        m.put_median("serve.flush_ms", &tr.flush_ms, "ms");
        m.put_median("serve.snapshot_ns", &tr.snapshot_ns, "ns");
        m.put_median("ivm.apply_us", &tr.bare_us, "us");
        let touched = tr.touched.iter().sum::<f64>() / tr.touched.len() as f64;
        m.put(
            "ivm.touched_members",
            touched,
            "count",
            Some(tr.touched.len()),
        );
        m.put_median("core.apply_resilient_us", &tr.resilient_us, "us");
        m.put_median("core.workload_apply_us", &tr.workload_us, "us");
    }
}
