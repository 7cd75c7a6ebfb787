//! End-to-end benchmark of the nested-synth pipeline.
//!
//! `perfbench-harness --workload <synth|serve|query> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every run drives all three paths of the pipeline — compiling specs
//! (synth), maintaining served answers under writes (serve) and answering
//! queries from views (query) — so that every run reports every metric.  The
//! workload names the *focus* path, which runs for `--seconds`; the other two
//! run as controls for a third of that.  The three are interleaved in
//! one-second slices, so that a slow spell of the machine weighs on every
//! metric alike.  See `perfbench/README.md`.
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! A human-readable table with sample counts goes to standard error.

mod layers;
mod query;
mod reference;
mod serve;
mod stats;
mod synth;

use nested_synth::synthesis::views::{partition_instance, partition_problem};
use nested_synth::Synthesizer;
use reference::Base;
use stats::{Metrics, Tally};
use std::time::{Duration, Instant};

/// |S| of the partition instance the serve and query paths run over.
const SIZE: usize = 100_000;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Length of one interleaved slice of a path's work.
const SLICE: Duration = Duration::from_secs(1);
/// Measuring stops after this long even if a minimum sample count is not
/// met (the run then fails for want of a percentile).
const RUN_CAP: Duration = Duration::from_secs(120);

/// What a path's run measured.
pub trait Measured {
    /// The reading the tracing overhead is computed from.
    fn focus_ms(&self) -> f64;
    fn end_to_end(&self, m: &mut Metrics);
    fn layer_metrics(&self, m: &mut Metrics);
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Path {
    Synth,
    Serve,
    Query,
}

struct Args {
    focus: Path,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut focus, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                focus = Some(match value.as_str() {
                    "synth" => Path::Synth,
                    "serve" => Path::Serve,
                    "query" => Path::Query,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(Args {
        focus: focus.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything a run needs before measuring: the corpus, and the state of
/// the serve and query paths.
struct Setup {
    corpus: synth::Corpus,
    serve: serve::ServeState,
    query: query::QueryState,
}

/// `trace`: a per-layer run, which reports no `update_ms_p99`.  The serve
/// and query paths share one instance, one `Synthesizer` and one partition
/// rewriting.
fn set_up(seed: u64, trace: bool) -> Setup {
    let base = partition_instance(SIZE, seed);
    let reference = Base::of(&base);
    let synth = Synthesizer::new();
    let problem = partition_problem();
    let rewriting = synth
        .derive_rewriting(&problem)
        .expect("the partition rewriting synthesizes");
    Setup {
        corpus: synth::Corpus::new(seed),
        serve: serve::ServeState::new(&synth, &base, &reference, rewriting.clone(), seed, !trace),
        query: query::QueryState::new(&synth, base, &reference, problem, rewriting),
    }
}

/// What the three paths measured in one run, or in one traced segment.
struct Accs {
    synth: synth::SynthResult,
    serve: serve::ServeResult,
    query: query::QueryResult,
}

impl Accs {
    fn new(setup: &Setup) -> Accs {
        Accs {
            synth: synth::SynthResult::new(&setup.corpus),
            serve: serve::ServeResult::default(),
            query: query::QueryResult::default(),
        }
    }

    fn get(&self, p: Path) -> &dyn Measured {
        match p {
            Path::Synth => &self.synth,
            Path::Serve => &self.serve,
            Path::Query => &self.query,
        }
    }

    /// Run path `p` for about `time` (at least one unit of its work).
    fn slice(
        &mut self,
        setup: &mut Setup,
        p: Path,
        time: Duration,
        traced: bool,
        tally: &mut Tally,
    ) {
        match p {
            Path::Synth => synth::slice(&setup.corpus, &mut self.synth, time, traced, tally),
            Path::Serve => serve::slice(&mut setup.serve, &mut self.serve, time, traced, tally),
            Path::Query => query::slice(&setup.query, &mut self.query, time, traced, tally),
        }
    }

    /// Share of path `p`'s minimum sample count reached (≥ 1 once met).
    fn progress(&self, setup: &Setup, p: Path) -> f64 {
        match p {
            Path::Synth => self.synth.progress(),
            Path::Serve => serve::progress(&setup.serve, &self.serve),
            Path::Query => self.query.progress(),
        }
    }

    /// End-of-run checks, and in a traced run the standalone layer calls.
    fn finish(&mut self, setup: &Setup, tally: &mut Tally) {
        synth::finish(&setup.corpus, &mut self.synth, tally);
        serve::finish(&setup.serve, &mut self.serve, tally);
    }
}

/// Interleave slices of `paths` until each has run for its target time and
/// met its minimum sample count.  Each slice goes to the path furthest
/// behind its schedule, so every path's samples spread over the whole run
/// and a slow spell of the machine weighs on all of them alike.
fn interleave(
    setup: &mut Setup,
    accs: &mut Accs,
    paths: &[(Path, Duration)],
    traced: bool,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let mut spent = [Duration::ZERO; 3];
    while start.elapsed() < RUN_CAP {
        let mut next: Option<(Path, f64)> = None;
        for &(p, target) in paths {
            let (used, progress) = (spent[p as usize], accs.progress(setup, p));
            if used >= target && progress >= 1.0 {
                continue;
            }
            // the time the path needs: its target, or longer while its
            // minimum sample count is out of reach at its current rate
            let need = if progress > 0.0 {
                target.max(used.div_f64(progress))
            } else {
                target
            };
            let behind = used.as_secs_f64() / need.as_secs_f64();
            if next.is_none_or(|(_, b)| behind < b) {
                next = Some((p, behind));
            }
        }
        let Some((p, _)) = next else { break };
        let t = Instant::now();
        accs.slice(setup, p, SLICE, traced, tally);
        spent[p as usize] += t.elapsed();
    }
}

/// The focus path, then the two control paths.
fn order(focus: Path) -> [Path; 3] {
    match focus {
        Path::Synth => [Path::Synth, Path::Serve, Path::Query],
        Path::Serve => [Path::Serve, Path::Synth, Path::Query],
        Path::Query => [Path::Query, Path::Synth, Path::Serve],
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let focus_budget = Duration::from_secs_f64(args.seconds);

    // Set-up, timed several times; the last one is kept.
    let mut setup_samples = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(args.seed, args.trace));
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let [focus, controls @ ..] = order(args.focus);
    let control_time = focus_budget / 3;
    if args.trace {
        // The focus path runs untraced for a quarter of the budget, traced
        // for half, untraced for the last quarter: the traced reading over
        // the untraced one is the tracing overhead, with any drift across
        // the run cancelled to first order.  The control paths then run
        // traced.
        let mut untraced = Accs::new(&setup);
        let mut traced = Accs::new(&setup);
        untraced.slice(&mut setup, focus, focus_budget / 4, false, &mut tally);
        layers::SpanTotals::install();
        traced.slice(&mut setup, focus, focus_budget / 2, true, &mut tally);
        layers::SpanTotals::uninstall();
        untraced.slice(&mut setup, focus, focus_budget / 4, false, &mut tally);
        let overhead = traced.get(focus).focus_ms() / untraced.get(focus).focus_ms();
        layers::SpanTotals::install();
        let paths = controls.map(|p| (p, control_time));
        interleave(&mut setup, &mut traced, &paths, true, &mut tally);
        traced.finish(&setup, &mut tally);
        layers::SpanTotals::uninstall();
        for p in order(args.focus) {
            traced.get(p).layer_metrics(&mut metrics);
        }
        layers::value_layer(args.seed, &mut metrics);
        metrics.put("obs.trace_overhead_ratio", overhead, "ratio", None);
    } else {
        let mut accs = Accs::new(&setup);
        let paths = [
            (focus, focus_budget),
            (controls[0], control_time),
            (controls[1], control_time),
        ];
        interleave(&mut setup, &mut accs, &paths, false, &mut tally);
        accs.finish(&setup, &mut tally);
        metrics.put(
            "setup_s",
            stats::median(&setup_samples),
            "s",
            Some(setup_samples.len()),
        );
        metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MB", None);
        for p in [Path::Synth, Path::Serve, Path::Query] {
            accs.get(p).end_to_end(&mut metrics);
        }
    }
    drop(setup);

    metrics.print_table(args.focus, args.trace);
    if let Some(first) = &tally.first_failure {
        eprintln!("first failed check: {first}");
    }
    if !metrics.all_finite() {
        eprintln!("perfbench-harness: a metric is not a finite number");
        std::process::exit(1);
    }
    println!("{}", metrics.to_json(&tally));
}
