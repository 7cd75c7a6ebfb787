//! The compile path: a fixed corpus of specs, each synthesized cold on a
//! fresh `Synthesizer`, then warm through the same `Synthesizer`.

use crate::layers::{SpanTotals, Stage};
use crate::reference::{workload_query, Base, Expect};
use crate::stats::{median, Metrics, Rng, Tally};
use crate::Measured;
use nested_synth::delta0::macros as d0;
use nested_synth::delta0::{Formula, InContext, Term};
use nested_synth::fol::{
    check_fo_proof, fo_interpolate, fo_prove, FoFormula, FoPartition, FoProof,
};
use nested_synth::interp::{interpolate, Partition};
use nested_synth::proof::{check_proof, Sequent};
use nested_synth::prover::{prove_sequent, ProverConfig};
use nested_synth::synthesis::views::partition_problem;
use nested_synth::synthesis::{
    overlapping_workload_problem, ImplicitSpec, RewritingProblem, RewritingResult, SynthesisError,
    SynthesisReport, SynthesizedDefinition, Synthesizer, WorkloadProblem, WorkloadRewriting,
};
use nested_synth::value::{Instance, Name, NameGen, Type, Value};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Cold passes a run makes at least.
const MIN_PASSES: u64 = 3;
/// Warm passes after each cold pass.
const WARM_PASSES: usize = 3;
/// Repetitions of each standalone layer call in a traced run.
const LAYER_REPEATS: usize = 3;
/// Universe of the seeded check instances.
const CHECK_UNIVERSE: u64 = 400;

enum Kind {
    Rewriting(RewritingProblem),
    Workload(WorkloadProblem),
    Quickstart(ImplicitSpec),
    UrSingleton(ImplicitSpec),
    NestedIdentity(ImplicitSpec),
    FoChain {
        assumptions: Vec<FoFormula>,
        goal: FoFormula,
        partition: FoPartition,
        common: BTreeSet<String>,
    },
}

struct Entry {
    name: &'static str,
    kind: Kind,
}

enum Output {
    Rewriting(RewritingResult),
    Workload(WorkloadRewriting),
    Definition(SynthesizedDefinition),
    Fo(FoProof, FoFormula),
    Failed(String),
    NoProof(SynthesisError),
}

/// The corpus, fixed for every seed; the seed only drives the check
/// instances.
pub struct Corpus {
    entries: Vec<Entry>,
    seed: u64,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        let mut entries = Vec::new();
        // the E2 family: the partition problem with 0, 1, 2 redundant
        // (always true) constraints inflating the spec and its proofs
        for copies in 0..3usize {
            let mut problem = partition_problem();
            for i in 0..copies {
                let x = format!("x{i}");
                problem.constraints.push(Formula::forall(
                    x.as_str(),
                    "S",
                    Formula::eq_ur(x.as_str(), x.as_str()),
                ));
            }
            let name = ["partition0", "partition1", "partition2"][copies];
            entries.push(Entry {
                name,
                kind: Kind::Rewriting(problem),
            });
        }
        entries.push(Entry {
            name: "workload8",
            kind: Kind::Workload(overlapping_workload_problem(8)),
        });
        entries.push(Entry {
            name: "quickstart",
            kind: Kind::Quickstart(quickstart_spec()),
        });
        entries.push(Entry {
            name: "ur_singleton",
            kind: Kind::UrSingleton(ur_singleton_spec()),
        });
        entries.push(Entry {
            name: "nested_identity",
            kind: Kind::NestedIdentity(nested_identity_spec()),
        });
        let (assumptions, goal) = nrs_bench::fo_implication_chain(8);
        let half = assumptions.len() / 2;
        let partition = FoPartition::with_left(assumptions[..half].iter().map(FoFormula::negate));
        let preds = |fs: &[FoFormula]| -> BTreeSet<String> {
            fs.iter()
                .flat_map(|f| f.predicates())
                .map(|p| p.to_string())
                .collect()
        };
        let mut right = assumptions[half..].to_vec();
        right.push(goal.clone());
        let common = preds(&assumptions[..half])
            .intersection(&preds(&right))
            .cloned()
            .collect();
        entries.push(Entry {
            name: "fo_chain8",
            kind: Kind::FoChain {
                assumptions,
                goal,
                partition,
                common,
            },
        });
        Corpus { entries, seed }
    }
}

/// The scenario of `examples/quickstart.rs`: `S` split by an unknown filter
/// `F` into views `V1`, `V2`; the views determine `S`.
fn quickstart_spec() -> ImplicitSpec {
    let mut gen = NameGen::new();
    let ur = Type::Ur;
    let in_f = |x: &str, g: &mut NameGen| d0::member_hat(&ur, &Term::var(x), &Term::var("F"), g);
    let view = |vname: &str, positive: bool, gen: &mut NameGen| {
        let filt = if positive {
            in_f("x", gen)
        } else {
            in_f("x", gen).negate()
        };
        let sound = Formula::forall(
            "z",
            Term::var(vname),
            Formula::exists(
                "x",
                "S",
                Formula::and(filt.clone(), Formula::eq_ur("z", "x")),
            ),
        );
        let complete = Formula::forall(
            "x",
            "S",
            d0::implies(
                filt,
                d0::member_hat(&ur, &Term::var("x"), &Term::var(vname), gen),
            ),
        );
        Formula::and(sound, complete)
    };
    ImplicitSpec {
        formula: Formula::and(view("V1", true, &mut gen), view("V2", false, &mut gen)),
        inputs: vec![
            (Name::new("V1"), Type::set(Type::Ur)),
            (Name::new("V2"), Type::set(Type::Ur)),
        ],
        auxiliaries: vec![(Name::new("F"), Type::set(Type::Ur))],
        output: (Name::new("S"), Type::set(Type::Ur)),
    }
}

/// A `𝔘` output: the unique member of the singleton input `I`.
fn ur_singleton_spec() -> ImplicitSpec {
    ImplicitSpec {
        formula: Formula::and(
            Formula::forall("x", "I", Formula::eq_ur("x", "o")),
            Formula::exists("x", "I", Formula::True),
        ),
        inputs: vec![(Name::new("I"), Type::set(Type::Ur))],
        auxiliaries: vec![],
        output: (Name::new("o"), Type::Ur),
    }
}

/// The identity on a `Set(Set(𝔘))` input — beyond the default budgets
/// today, so it exercises the prover searching until the budget runs out.
fn nested_identity_spec() -> ImplicitSpec {
    let mut gen = NameGen::new();
    let nested = Type::set(Type::set(Type::Ur));
    ImplicitSpec {
        formula: d0::equiv(&nested, &Term::var("O"), &Term::var("I"), &mut gen),
        inputs: vec![(Name::new("I"), nested.clone())],
        auxiliaries: vec![],
        output: (Name::new("O"), nested),
    }
}

fn run_entry(synth: &Synthesizer, entry: &Entry) -> Output {
    let keep = |r: Result<Output, SynthesisError>| match r {
        Ok(out) => out,
        Err(e @ SynthesisError::ProofNotFound { .. }) => Output::NoProof(e),
        Err(e) => Output::Failed(e.to_string()),
    };
    match &entry.kind {
        Kind::Rewriting(p) => keep(synth.derive_rewriting(p).map(Output::Rewriting)),
        Kind::Workload(p) => keep(synth.derive_workload(p).map(Output::Workload)),
        Kind::Quickstart(s) | Kind::UrSingleton(s) | Kind::NestedIdentity(s) => {
            keep(synth.synthesize(s).map(Output::Definition))
        }
        Kind::FoChain {
            assumptions,
            goal,
            partition,
            ..
        } => {
            let proved = synth
                .fol_session()
                .prove(assumptions, std::slice::from_ref(goal));
            match proved.and_then(|(proof, _)| {
                fo_interpolate(&proof, partition).map(|theta| (proof, theta))
            }) {
                Ok((proof, theta)) => Output::Fo(proof, theta),
                Err(e) => Output::Failed(format!("FO chain: {e}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reference checks
// ---------------------------------------------------------------------------

/// Seeded check inputs of one pass, computed by the benchmark itself.
struct CheckInputs {
    /// Two base instances `(S, F)`: an independent random pair, and a
    /// boundary pair where one view is empty.
    bases: Vec<Base>,
    singleton: u64,
    nested: Value,
}

impl CheckInputs {
    fn new(seed: u64, pass: u64) -> CheckInputs {
        let mut rng = Rng::new(seed, 0x5e7 + pass);
        let random_set = |rng: &mut Rng| -> BTreeSet<u64> {
            (0..150).map(|_| rng.below(CHECK_UNIVERSE)).collect()
        };
        let s = random_set(&mut rng);
        let f = random_set(&mut rng);
        let s2 = random_set(&mut rng);
        // alternate which view the boundary pair empties
        let f2: BTreeSet<u64> = if pass.is_multiple_of(2) {
            s2.iter().copied().chain(random_set(&mut rng)).collect()
        } else {
            random_set(&mut rng).difference(&s2).copied().collect()
        };
        let nested = Value::set((0..1 + rng.below(6)).map(|_| {
            let n = rng.below(4);
            Value::set((0..n).map(|_| Value::atom(rng.below(CHECK_UNIVERSE))))
        }));
        CheckInputs {
            bases: vec![Base::from_ids(s, f), Base::from_ids(s2, f2)],
            singleton: rng.below(CHECK_UNIVERSE),
            nested,
        }
    }
}

fn expect_eq(what: &str, got: &Value, want: &Value) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {} elements, want {}",
            got.size(),
            want.size()
        ))
    }
}

fn check(entry: &Entry, out: &Output, inputs: &CheckInputs) -> Result<(), String> {
    let name = entry.name;
    let err = |e: SynthesisError| format!("{name}: {e}");
    match (&entry.kind, out) {
        (_, Output::Failed(e)) => Err(format!("{name}: {e}")),
        (Kind::NestedIdentity(_), Output::NoProof(e)) => match e {
            SynthesisError::ProofNotFound { purpose, .. }
                if purpose.contains("parameter-collection goal") =>
            {
                Ok(())
            }
            other => Err(format!("{name}: unexpected failure {other}")),
        },
        (_, Output::NoProof(e)) => Err(format!("{name}: {e}")),
        (Kind::NestedIdentity(_), Output::Definition(def)) => {
            let inst = Instance::from_bindings([(Name::new("I"), inputs.nested.clone())]);
            expect_eq(name, &def.evaluate(&inst).map_err(err)?, &inputs.nested)
        }
        (Kind::UrSingleton(_), Output::Definition(def)) => {
            let a = Value::atom(inputs.singleton);
            let inst = Instance::from_bindings([(Name::new("I"), Value::set([a.clone()]))]);
            expect_eq(name, &def.evaluate(&inst).map_err(err)?, &a)
        }
        (Kind::FoChain { common, .. }, Output::Fo(proof, theta)) => {
            check_fo_proof(proof).map_err(|e| format!("{name}: proof rejected: {e}"))?;
            let used: BTreeSet<String> = theta.predicates().iter().map(|p| p.to_string()).collect();
            if used.is_subset(common) {
                Ok(())
            } else {
                Err(format!(
                    "{name}: interpolant uses {used:?} outside {common:?}"
                ))
            }
        }
        (kind, out) => {
            for base in &inputs.bases {
                let views = base.views();
                let whole = base.value(Expect::Whole);
                match (kind, out) {
                    (Kind::Rewriting(_), Output::Rewriting(r)) => {
                        expect_eq(name, &r.answer_from_views(&views).map_err(err)?, &whole)?
                    }
                    (Kind::Quickstart(_), Output::Definition(def)) => {
                        expect_eq(name, &def.evaluate(&views).map_err(err)?, &whole)?
                    }
                    (Kind::Workload(_), Output::Workload(w)) => {
                        let answers = w.answers_from_views(&views).map_err(err)?;
                        if answers.len() != w.queries().len() {
                            return Err(format!("{name}: {} answers", answers.len()));
                        }
                        for (i, (q, v)) in answers.iter().enumerate() {
                            expect_eq(&format!("{name} {q}"), v, &base.value(workload_query(i)))?;
                        }
                        for (i, (q, def)) in w.queries().iter().enumerate() {
                            let v = def.evaluate(&views).map_err(err)?;
                            expect_eq(
                                &format!("{name} {q} definition"),
                                &v,
                                &base.value(workload_query(i)),
                            )?;
                        }
                    }
                    _ => return Err(format!("{name}: output of the wrong shape")),
                }
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Running and measuring
// ---------------------------------------------------------------------------

/// Layer readings of one traced cold or warm pass.
#[derive(Default, Clone)]
struct PassLayers {
    spec_ms: f64,
    prove_ms: f64,
    plan_ms: f64,
    assemble_ms: f64,
    fo_ms: f64,
}

impl PassLayers {
    fn blocking_ms(&self) -> f64 {
        self.spec_ms + self.prove_ms + self.plan_ms + self.assemble_ms + self.fo_ms
    }
}

/// Prover counters of one cold pass, read from the synthesis reports.
#[derive(Default, Clone, Copy)]
struct Counters {
    states: f64,
    goals: f64,
    memo_hits: f64,
    memo_misses: f64,
    interner_hits: f64,
    interner_misses: f64,
    proof_nodes: f64,
    raw_ast: f64,
    goal_cache_hits: f64,
    per_goal: f64,
}

impl Counters {
    fn absorb(&mut self, r: &SynthesisReport) {
        let m = &r.metrics;
        self.states += r.states_visited as f64;
        self.goals += r.goals_proved as f64;
        self.memo_hits += m.memo_hits as f64;
        self.memo_misses += m.memo_misses as f64;
        self.interner_hits += m.interner_hits as f64;
        self.interner_misses += m.interner_misses as f64;
        self.proof_nodes += r.proof_sizes.iter().sum::<usize>() as f64;
        self.raw_ast += m.raw_ast_size as f64;
        self.goal_cache_hits += m.goal_cache_hits as f64;
        self.per_goal += m.per_goal.len() as f64;
    }

    fn of(outputs: &[Output]) -> Counters {
        let mut c = Counters::default();
        for out in outputs {
            match out {
                Output::Rewriting(r) => c.absorb(&r.definition.report),
                Output::Workload(w) => {
                    for (_, def) in w.queries() {
                        c.absorb(&def.report);
                    }
                }
                Output::Definition(d) => c.absorb(&d.report),
                _ => {}
            }
        }
        c
    }
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// AST size of the generated code: every emitted rewriting, and the shared
/// view set a workload executes.
fn expr_size(outputs: &[Output]) -> f64 {
    outputs
        .iter()
        .map(|out| match out {
            Output::Rewriting(r) => r.expr().size(),
            Output::Workload(w) => {
                let shared = w.shared();
                shared
                    .views
                    .iter()
                    .chain(&shared.queries)
                    .map(|(_, e)| e.size())
                    .sum()
            }
            Output::Definition(d) => d.expr().size(),
            _ => 0,
        })
        .sum::<usize>() as f64
}

pub struct SynthResult {
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    expr_size: f64,
    entry_cold_ms: Vec<(&'static str, Vec<f64>)>,
    /// Cold passes made so far (each followed by its warm passes).
    passes: u64,
    traced: bool,
    tr: Traced,
}

/// Layer readings of the traced passes.
#[derive(Default)]
struct Traced {
    cold: Vec<PassLayers>,
    warm: Vec<PassLayers>,
    counters: Vec<Counters>,
    warm_counters: Vec<Counters>,
    goals_dedup: f64,
    shared_views: f64,
    standalone: Standalone,
}

/// Time the spec construction of the rewriting and workload entries — the
/// nrc layer's share of a pass.
fn spec_ms(corpus: &Corpus) -> f64 {
    let t = Instant::now();
    for entry in &corpus.entries {
        match &entry.kind {
            Kind::Rewriting(p) => {
                std::hint::black_box(p.specification(&mut NameGen::new()).ok());
            }
            Kind::Workload(p) => {
                std::hint::black_box(p.workload().ok());
            }
            _ => {}
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// One pass over the corpus: returns the per-entry wall times (ms) and
/// outputs.  `synths` are created fresh when empty (the cold pass).
fn pass(corpus: &Corpus, synths: &mut Vec<Synthesizer>) -> (Vec<f64>, Vec<Output>) {
    let cold = synths.is_empty();
    let mut times = Vec::with_capacity(corpus.entries.len());
    let mut outputs = Vec::with_capacity(corpus.entries.len());
    for (i, entry) in corpus.entries.iter().enumerate() {
        let t = Instant::now();
        if cold {
            synths.push(Synthesizer::new());
        }
        let out = run_entry(&synths[i], entry);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        outputs.push(out);
    }
    (times, outputs)
}

impl SynthResult {
    pub fn new(corpus: &Corpus) -> SynthResult {
        SynthResult {
            cold_ms: Vec::new(),
            warm_ms: Vec::new(),
            expr_size: f64::NAN,
            entry_cold_ms: corpus
                .entries
                .iter()
                .map(|e| (e.name, Vec::new()))
                .collect(),
            passes: 0,
            traced: false,
            tr: Traced::default(),
        }
    }

    /// Share of a pass's minimum sample count reached (≥ 1 once met).
    pub fn progress(&self) -> f64 {
        self.passes as f64 / MIN_PASSES as f64
    }
}

/// Cold and warm passes over the corpus for about `time`, at least one,
/// appending to `acc`.
pub fn slice(
    corpus: &Corpus,
    acc: &mut SynthResult,
    time: Duration,
    traced: bool,
    tally: &mut Tally,
) {
    acc.traced |= traced;
    let start = Instant::now();
    let fo_index = corpus
        .entries
        .iter()
        .position(|e| matches!(e.kind, Kind::FoChain { .. }));
    let tr = &mut acc.tr;
    loop {
        let p = acc.passes;
        acc.passes += 1;
        let inputs = CheckInputs::new(corpus.seed, p);
        let mut synths = Vec::new();
        for warm in (0..=WARM_PASSES).map(|i| i > 0) {
            SpanTotals::reset();
            let (times, outputs) = pass(corpus, &mut synths);
            let total: f64 = times.iter().sum();
            let spans = SpanTotals::read();
            for (entry, out) in corpus.entries.iter().zip(&outputs) {
                tally.check(check(entry, out, &inputs));
            }
            if warm {
                acc.warm_ms.push(total);
            } else {
                acc.cold_ms.push(total);
                for ((_, samples), t) in acc.entry_cold_ms.iter_mut().zip(&times) {
                    samples.push(*t);
                }
                if p == 0 {
                    acc.expr_size = expr_size(&outputs);
                }
            }
            if traced {
                let layers = PassLayers {
                    spec_ms: spec_ms(corpus),
                    prove_ms: spans.ms(Stage::Prove),
                    plan_ms: spans.ms(Stage::Plan),
                    assemble_ms: spans.ms(Stage::Assemble),
                    fo_ms: fo_index.map_or(0.0, |i| times[i]),
                };
                let counters = Counters::of(&outputs);
                if warm {
                    tr.warm.push(layers);
                    tr.warm_counters.push(counters);
                } else {
                    tr.cold.push(layers);
                    tr.counters.push(counters);
                    for out in &outputs {
                        if let Output::Workload(w) = out {
                            tr.goals_dedup = w.report().shared_goals_dedup as f64;
                            tr.shared_views = w.shared().views.len() as f64;
                        }
                    }
                }
            }
        }
        if start.elapsed() >= time {
            break;
        }
    }
}

/// End of a pass: in a traced pass, the standalone layer calls.
pub fn finish(corpus: &Corpus, acc: &mut SynthResult, tally: &mut Tally) {
    if acc.traced {
        acc.tr.standalone = standalone_layers(corpus, tally);
    }
}

// ---------------------------------------------------------------------------
// Standalone layer calls (traced runs only)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Standalone {
    determinacy_ms: Vec<f64>,
    check_ms: Vec<f64>,
    interpolate_ms: Vec<f64>,
    interp_nodes: f64,
    interpolant_size: f64,
    fol_ms: Vec<f64>,
}

/// The determinacy sequent `φ, φ' ⊢ o ≡ o'` of a spec, built as the
/// synthesis pipeline builds it when `check_determinacy` is on.
fn determinacy_sequent(spec: &ImplicitSpec) -> (Sequent, Formula) {
    let mut gen = NameGen::avoiding(
        spec.formula
            .free_vars()
            .iter()
            .chain(spec.inputs.iter().map(|(n, _)| n))
            .chain(std::iter::once(&spec.output.0)),
    );
    let (phi_primed, primed_out, _) = spec.primed();
    let goal = d0::equiv(
        &spec.output.1,
        &Term::Var(spec.output.0),
        &Term::Var(primed_out),
        &mut gen,
    );
    let seq = Sequent::two_sided(InContext::new(), [spec.formula.clone(), phi_primed], [goal]);
    (seq, spec.formula.negate())
}

fn standalone_layers(corpus: &Corpus, tally: &mut Tally) -> Standalone {
    let mut sequents: Vec<(Sequent, Formula)> = Vec::new();
    let mut fo = None;
    for entry in &corpus.entries {
        let specs: Vec<ImplicitSpec> = match &entry.kind {
            Kind::Rewriting(p) => p.specification(&mut NameGen::new()).into_iter().collect(),
            Kind::Workload(p) => p
                .workload()
                .map(|w| w.entries().iter().map(|(_, s)| s.clone()).collect())
                .unwrap_or_default(),
            Kind::Quickstart(s) | Kind::UrSingleton(s) => vec![s.clone()],
            // beyond the budgets: its determinacy search would only time
            // the budget, which the synthesis entry already does
            Kind::NestedIdentity(_) => vec![],
            Kind::FoChain {
                assumptions,
                goal,
                partition,
                ..
            } => {
                fo = Some((assumptions, goal, partition));
                vec![]
            }
        };
        for spec in specs {
            let pair = determinacy_sequent(&spec);
            if !sequents.iter().any(|(s, _)| *s == pair.0) {
                sequents.push(pair);
            }
        }
    }
    let (chain, chain_left) = nrs_bench::equality_chain(32);
    let cfg = ProverConfig::default();
    let mut out = Standalone::default();
    let mut proofs = Vec::new();
    for rep in 0..LAYER_REPEATS {
        let t = Instant::now();
        let found: Vec<_> = sequents
            .iter()
            .map(|(s, _)| prove_sequent(s, &cfg).map(|(p, _)| p))
            .collect();
        out.determinacy_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            for (r, (_, left)) in found.into_iter().zip(&sequents) {
                match r {
                    Ok(p) => proofs.push((p, Partition::with_left([], [left.clone()]))),
                    Err(e) => tally.check(Err(format!("determinacy proof: {e}"))),
                }
            }
            match prove_sequent(&chain, &cfg) {
                Ok((p, _)) => proofs.push((p, Partition::with_left([], chain_left.clone()))),
                Err(e) => tally.check(Err(format!("equality chain: {e}"))),
            }
        }
        let t = Instant::now();
        for (p, _) in &proofs {
            tally.check(check_proof(p).map_err(|e| format!("proof check: {e}")));
        }
        out.check_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let thetas: Vec<_> = proofs
            .iter()
            .map(|(p, part)| interpolate(p, part))
            .collect();
        out.interpolate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.interp_nodes = proofs.iter().map(|(p, _)| p.size() as f64).sum();
        out.interpolant_size = 0.0;
        for theta in thetas {
            match theta {
                Ok(f) => out.interpolant_size += f.size() as f64,
                Err(e) => tally.check(Err(format!("interpolation: {e}"))),
            }
        }
        if let Some((assumptions, goal, partition)) = fo {
            let t = Instant::now();
            let r = fo_prove(assumptions, std::slice::from_ref(goal), &Default::default())
                .and_then(|p| fo_interpolate(&p, partition));
            out.fol_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tally.check(
                r.map(drop)
                    .map_err(|e| format!("FO prove+interpolate: {e}")),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

impl Measured for SynthResult {
    fn focus_ms(&self) -> f64 {
        median(&self.cold_ms)
    }

    fn end_to_end(&self, m: &mut Metrics) {
        m.put_median("synth_cold_ms", &self.cold_ms, "ms");
        m.put_median("synth_warm_ms", &self.warm_ms, "ms");
        m.put("expr_size", self.expr_size, "nodes", None);
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        if !self.traced {
            return;
        }
        let tr = &self.tr;
        let col =
            |v: &[PassLayers], f: fn(&PassLayers) -> f64| -> Vec<f64> { v.iter().map(f).collect() };
        let cnt = |f: fn(&Counters) -> f64| -> Vec<f64> { tr.counters.iter().map(f).collect() };
        m.put_median("nrc.spec_ms", &col(&tr.cold, |l| l.spec_ms), "ms");
        m.put_median("synth.prove_ms", &col(&tr.cold, |l| l.prove_ms), "ms");
        m.put_median("synth.plan_ms", &col(&tr.cold, |l| l.plan_ms), "ms");
        m.put_median("synth.assemble_ms", &col(&tr.cold, |l| l.assemble_ms), "ms");
        m.put_median("synth.warm_prove_ms", &col(&tr.warm, |l| l.prove_ms), "ms");
        m.put_median(
            "synth.warm_assemble_ms",
            &col(&tr.warm, |l| l.assemble_ms),
            "ms",
        );
        // a traced run traces every pass
        let remainder = |passes: &[f64], layers: &[PassLayers]| -> Vec<f64> {
            passes
                .iter()
                .zip(layers)
                .map(|(t, l)| t - l.blocking_ms())
                .collect()
        };
        m.put_median(
            "remainder.synth_cold_ms",
            &remainder(&self.cold_ms, &tr.cold),
            "ms",
        );
        m.put_median(
            "remainder.synth_warm_ms",
            &remainder(&self.warm_ms, &tr.warm),
            "ms",
        );
        m.put_median("prover.states_visited", &cnt(|c| c.states), "count");
        m.put_median("prover.goals", &cnt(|c| c.goals), "count");
        m.put_median(
            "prover.memo_hit_ratio",
            &cnt(|c| ratio(c.memo_hits, c.memo_misses)),
            "ratio",
        );
        let warm_ratio: Vec<f64> = tr
            .warm_counters
            .iter()
            .map(|c| {
                if c.per_goal == 0.0 {
                    0.0
                } else {
                    c.goal_cache_hits / c.per_goal
                }
            })
            .collect();
        m.put_median("prover.goal_cache_hit_ratio", &warm_ratio, "ratio");
        m.put_median(
            "shared.interner_hit_ratio",
            &cnt(|c| ratio(c.interner_hits, c.interner_misses)),
            "ratio",
        );
        m.put_median("proof.nodes", &cnt(|c| c.proof_nodes), "count");
        m.put_median("core.raw_ast_size", &cnt(|c| c.raw_ast), "nodes");
        m.put("core.goals_dedup", tr.goals_dedup, "count", None);
        m.put("core.shared_views", tr.shared_views, "count", None);
        for (name, samples) in &self.entry_cold_ms {
            m.put_median(&format!("core.synthesize_ms.{name}"), samples, "ms");
        }
        let s = &tr.standalone;
        m.put_median("prover.determinacy_ms", &s.determinacy_ms, "ms");
        m.put_median("proof.check_ms", &s.check_ms, "ms");
        m.put_median("interp.interpolate_ms", &s.interpolate_ms, "ms");
        m.put(
            "interp.ns_per_node",
            median(&s.interpolate_ms) * 1e6 / s.interp_nodes,
            "ns",
            Some(s.interpolate_ms.len()),
        );
        m.put("interp.interpolant_size", s.interpolant_size, "nodes", None);
        m.put_median("fol.prove_interpolate_ms", &s.fol_ms, "ms");
    }
}
