//! The read path: materialize the views of a partition instance, then run
//! the generated code — the partition rewriting and the 8-query workload —
//! over them.

use crate::reference::{workload_query, Base, Expect, VIEWS};
use crate::stats::{median, Metrics, Tally};
use crate::Measured;
use nested_synth::nrc::{exec_plan, CompiledQuery};
use nested_synth::synthesis::views::materialize_views;
use nested_synth::synthesis::{
    overlapping_workload_problem, RewritingProblem, RewritingResult, Synthesizer, WorkloadRewriting,
};
use nested_synth::{Instance, Name, Value};
use std::time::{Duration, Instant};

/// Iterations a run makes at least: with fewer, the median of a control
/// pass moves with every slow spell of a shared machine.
const MIN_ITERATIONS: usize = 12;

pub struct QueryState {
    base: Instance,
    problem: RewritingProblem,
    rewriting: RewritingResult,
    workload: WorkloadRewriting,
    /// Reference answers computed by the benchmark, indexed by `Expect`:
    /// `S`, `S ∩ F`, `S \ F`.
    reference: [Value; 3],
}

impl QueryState {
    /// Run `rewriting` of `problem` and `overlapping_workload_problem(8)`
    /// over the views of `base`, whose reference copy is `reference`.
    pub fn new(
        synth: &Synthesizer,
        base: Instance,
        reference: &Base,
        problem: RewritingProblem,
        rewriting: RewritingResult,
    ) -> QueryState {
        let workload = synth
            .derive_workload(&overlapping_workload_problem(8))
            .expect("the overlapping workload synthesizes");
        QueryState {
            reference: [Expect::Whole, Expect::Inter, Expect::Diff].map(|e| reference.value(e)),
            base,
            problem,
            rewriting,
            workload,
        }
    }

    fn expected(&self, e: Expect) -> &Value {
        &self.reference[e as usize]
    }
}

#[derive(Default)]
pub struct QueryResult {
    materialize_ms: Vec<f64>,
    answer_ms: Vec<f64>,
    workload_answer_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    compile_us: Vec<f64>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn same(what: &str, got: &Value, want: &Value) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} elements, reference has {}",
            got.size(),
            want.size()
        ))
    }
}

fn check_views(q: &QueryState, views: &Instance) -> Result<(), String> {
    for (name, e) in VIEWS {
        let got = views.get(&Name::new(name)).map_err(|e| e.to_string())?;
        same(name, got, q.expected(e))?;
    }
    Ok(())
}

impl QueryResult {
    /// Share of a pass's minimum sample count reached (≥ 1 once met).
    pub fn progress(&self) -> f64 {
        self.answer_ms.len() as f64 / MIN_ITERATIONS as f64
    }
}

/// Query iterations for about `time`, at least one, appending to `out`.
pub fn slice(
    q: &QueryState,
    out: &mut QueryResult,
    time: Duration,
    traced: bool,
    tally: &mut Tally,
) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let views = materialize_views(&q.problem, &q.base);
        out.materialize_ms.push(ms_since(t));
        let Ok(views) = views else {
            tally.check(views.map(drop).map_err(|e| e.to_string()));
            break;
        };
        tally.check(check_views(q, &views));

        let t = Instant::now();
        let answer = q.rewriting.answer_from_views(&views);
        out.answer_ms.push(ms_since(t));
        tally.check(
            answer
                .map_err(|e| e.to_string())
                .and_then(|v| same("partition rewriting", &v, q.expected(Expect::Whole))),
        );

        let t = Instant::now();
        let answers = q.workload.answers_from_views(&views);
        out.workload_answer_ms.push(ms_since(t));
        tally.check(answers.map_err(|e| e.to_string()).and_then(|answers| {
            if answers.len() != q.workload.queries().len() {
                return Err(format!("{} workload answers", answers.len()));
            }
            for (i, (name, v)) in answers.iter().enumerate() {
                same(name.as_ref(), v, q.expected(workload_query(i)))?;
            }
            Ok(())
        }));

        if traced {
            // the plan the rewriting runs, executed and compiled directly
            let plan = q.rewriting.definition.compiled().plan();
            let t = Instant::now();
            let v = exec_plan(plan, &views);
            out.exec_ms.push(ms_since(t));
            tally.check(
                v.map_err(|e| e.to_string())
                    .and_then(|v| same("partition plan", &v, q.expected(Expect::Whole))),
            );
            let shared = q.workload.shared();
            let exprs = std::iter::once(q.rewriting.expr())
                .chain(shared.views.iter().chain(&shared.queries).map(|(_, e)| e));
            let t = Instant::now();
            for e in exprs {
                std::hint::black_box(CompiledQuery::compile(e));
            }
            out.compile_us.push(ms_since(t) * 1e3);
        }
        if start.elapsed() >= time {
            break;
        }
    }
}

impl Measured for QueryResult {
    fn focus_ms(&self) -> f64 {
        median(&self.answer_ms)
    }

    fn end_to_end(&self, m: &mut Metrics) {
        m.put_median("answer_ms_p50", &self.answer_ms, "ms");
        m.put_median("workload_answer_ms_p50", &self.workload_answer_ms, "ms");
        m.put_median("materialize_ms_p50", &self.materialize_ms, "ms");
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        if self.exec_ms.is_empty() {
            return;
        }
        m.put_median("nrc.exec_ms", &self.exec_ms, "ms");
        m.put_median("nrc.compile_us", &self.compile_us, "us");
        m.put(
            "remainder.answer_ms_p50",
            median(&self.answer_ms) - median(&self.exec_ms),
            "ms",
            Some(self.answer_ms.len()),
        );
    }
}
