//! Golden synthesis fixtures: the emitted definitions and proof sizes of the
//! Theorem 2 pipeline, pinned byte for byte.
//!
//! A synthesized definition depends only on the proofs the prover finds, not
//! on how the search is scheduled, so every value below must survive any
//! refactoring of the synthesis recursion or the search loop.  The families
//! cover every output-type case of the recursion:
//!
//! * a Set output — the partition rewriting (E2);
//! * a Ur output — the member of a singleton input;
//! * a Unit output;
//! * a product output `Ur × Ur`, whose components are synthesized as two
//!   derived specifications;
//! * a nested `Set(Set(Ur))` identity that is beyond the `quick` budgets and
//!   must fail with a typed error naming the parameter-collection goal.
//!
//! Each family also runs twice, on two fresh [`Synthesizer`]s, and the two
//! runs must report identical prover statistics: the search is deterministic.

use nrs_delta0::macros as d0;
use nrs_delta0::{Formula, Term};
use nrs_prover::{ProverConfig, ProverStats};
use nrs_synthesis::views::partition_problem;
use nrs_synthesis::{ImplicitSpec, SynthesisError, SynthesizedDefinition, Synthesizer};
use nrs_value::{Instance, Name, NameGen, Type, Value};

/// The partition rewriting of the E2 fixture: `Q = S` over the views
/// `V1 = S ∩ F` and `V2 = S \ F`.
fn partition() -> Result<SynthesizedDefinition, SynthesisError> {
    Synthesizer::new()
        .derive_rewriting(&partition_problem())
        .map(|r| r.definition)
}

/// `φ(I, o) := ∀x ∈ I. x = o ∧ ∃x ∈ I. ⊤` — `o` is the member of the
/// singleton `I`.
fn member_of(set: &str, out: Term) -> Formula {
    Formula::and(
        Formula::forall("x", set, Formula::eq_ur("x", out)),
        Formula::exists("x", set, Formula::True),
    )
}

fn ur_singleton_spec() -> ImplicitSpec {
    ImplicitSpec {
        formula: member_of("I", Term::var("o")),
        inputs: vec![(Name::new("I"), Type::set(Type::Ur))],
        auxiliaries: vec![],
        output: (Name::new("o"), Type::Ur),
    }
}

fn ur_singleton() -> Result<SynthesizedDefinition, SynthesisError> {
    Synthesizer::new().synthesize(&ur_singleton_spec())
}

fn unit() -> Result<SynthesizedDefinition, SynthesisError> {
    Synthesizer::new().synthesize(&ImplicitSpec {
        formula: Formula::True,
        inputs: vec![(Name::new("I"), Type::set(Type::Ur))],
        auxiliaries: vec![],
        output: (Name::new("O"), Type::Unit),
    })
}

/// `o = ⟨the member of I, the member of J⟩ : Ur × Ur`.
fn product_spec() -> ImplicitSpec {
    ImplicitSpec {
        formula: Formula::and(
            member_of("I", Term::proj1(Term::var("o"))),
            member_of("J", Term::proj2(Term::var("o"))),
        ),
        inputs: vec![
            (Name::new("I"), Type::set(Type::Ur)),
            (Name::new("J"), Type::set(Type::Ur)),
        ],
        auxiliaries: vec![],
        output: (Name::new("o"), Type::prod(Type::Ur, Type::Ur)),
    }
}

fn product() -> Result<SynthesizedDefinition, SynthesisError> {
    Synthesizer::new().synthesize(&product_spec())
}

/// The product output with the determinacy check on: the top-level spec and
/// each derived component spec first prove their own determinacy goal.
fn checked_product() -> Result<SynthesizedDefinition, SynthesisError> {
    Synthesizer::new()
        .check_determinacy(true)
        .synthesize(&product_spec())
}

/// The identity on `Set(Set(Ur))`: implicitly definable, but its
/// parameter-collection goal is beyond the `quick` budgets.
fn nested_identity() -> Result<SynthesizedDefinition, SynthesisError> {
    let mut gen = NameGen::new();
    let nested = Type::set(Type::set(Type::Ur));
    let spec = ImplicitSpec {
        formula: d0::equiv(&nested, &Term::var("O"), &Term::var("I"), &mut gen),
        inputs: vec![(Name::new("I"), nested.clone())],
        auxiliaries: vec![],
        output: (Name::new("O"), nested),
    };
    Synthesizer::new()
        .prover(ProverConfig::quick())
        .synthesize(&spec)
}

/// The statistics of one goal that must repeat exactly across fresh runs.
/// Interner counters are left out: the interner is process-global, so they
/// also count the work of tests running concurrently.
fn repeatable(s: &ProverStats) -> [u64; 13] {
    [
        s.visited as u64,
        s.risky_level as u64,
        s.proof_size as u64,
        s.memo_hits as u64,
        s.memo_misses as u64,
        s.rewrite_cache_hits as u64,
        s.rewrite_cache_misses as u64,
        s.occ_join_pairs as u64,
        s.occ_join_pruned as u64,
        s.goal_cache_hits as u64,
        s.memo_lock.shards as u64,
        s.memo_lock.reads,
        s.memo_lock.writes,
    ]
}

/// The proof sizes of the goals the prover searched, in proving order.  A
/// goal repeated within one run (a Ur component's determinacy goal is its
/// interpolation goal) is proved once: later occurrences are either
/// collapsed onto it or replayed from the session's goal cache.
fn unique_proof_sizes(def: &SynthesizedDefinition) -> Vec<usize> {
    def.report
        .metrics
        .per_goal
        .iter()
        .filter(|g| g.stats.goal_cache_hits == 0)
        .map(|g| g.proof_size)
        .collect()
}

/// Run a family twice on fresh synthesizers, assert the runs agree on every
/// repeatable statistic, and pin the expression and the proof sizes.
fn check_golden(
    run: fn() -> Result<SynthesizedDefinition, SynthesisError>,
    expr: &str,
    proof_sizes: &[usize],
) -> SynthesizedDefinition {
    let first = run().expect("the golden family synthesizes");
    let second = run().expect("the golden family synthesizes again");
    for def in [&first, &second] {
        assert_eq!(def.expr().to_string(), expr, "emitted expression");
        assert_eq!(
            unique_proof_sizes(def),
            proof_sizes,
            "unique-goal proof sizes"
        );
    }
    assert_eq!(
        first.report.states_visited, second.report.states_visited,
        "fresh runs visit the same number of states"
    );
    let per_goal = |d: &SynthesizedDefinition| -> Vec<(String, [u64; 13])> {
        d.report
            .metrics
            .per_goal
            .iter()
            .map(|g| (g.purpose.clone(), repeatable(&g.stats)))
            .collect()
    };
    assert_eq!(per_goal(&first), per_goal(&second), "per-goal prover stats");
    first
}

#[test]
fn partition_rewriting_is_golden() {
    check_golden(partition, PARTITION_EXPR, PARTITION_PROOF_SIZES);
}

#[test]
fn ur_singleton_is_golden() {
    let def = check_golden(ur_singleton, UR_EXPR, UR_PROOF_SIZES);
    let inst = Instance::from_bindings([
        (Name::new("I"), Value::set([Value::atom(7)])),
        (Name::new("o"), Value::atom(7)),
    ]);
    assert_eq!(def.check_against(&inst).unwrap(), Some(true));
}

#[test]
fn unit_output_is_golden() {
    check_golden(unit, "()", &[]);
}

#[test]
fn product_output_is_golden() {
    let def = check_golden(product, PRODUCT_EXPR, PRODUCT_PROOF_SIZES);
    let inst = Instance::from_bindings([
        (Name::new("I"), Value::set([Value::atom(3)])),
        (Name::new("J"), Value::set([Value::atom(5)])),
        (Name::new("o"), Value::pair(Value::atom(3), Value::atom(5))),
    ]);
    assert_eq!(def.check_against(&inst).unwrap(), Some(true));
}

#[test]
fn checked_product_output_is_golden() {
    check_golden(checked_product, PRODUCT_EXPR, CHECKED_PRODUCT_PROOF_SIZES);
}

#[test]
fn nested_identity_fails_on_the_parameter_collection_goal() {
    let outcome = |r: Result<SynthesizedDefinition, SynthesisError>| match r {
        Err(SynthesisError::ProofNotFound { purpose, error }) => (purpose, error.to_string()),
        other => panic!("expected a typed proof failure, got {other:?}"),
    };
    let first = outcome(nested_identity());
    let second = outcome(nested_identity());
    assert_eq!(first.0, NESTED_FAILED_PURPOSE);
    assert_eq!(first, second, "fresh runs fail identically");
}

const PARTITION_EXPR: &str = r"U{U{{r#0} | w#12 in (U{({()} \ U{{()} | w%eq in (({r#0} \ {ev#2}) u ({ev#2} \ {r#0}))}) | ev#2 in V2} u U{U{{()} | w#11 in ({()} \ U{{()} | w%eq in (({r#0} \ {ev#2}) u ({ev#2} \ {r#0}))})} | ev#2 in V1})} | r#0 in (V1 u V2)}";
const PARTITION_PROOF_SIZES: &[usize] = &[121];
const UR_EXPR: &str = r"get[U](U{U{{o} | w#1 in U{({()} \ U{{()} | w%eq in (({ev#0} \ {o}) u ({o} \ {ev#0}))}) | ev#0 in I}} | o in I})";
const UR_PROOF_SIZES: &[usize] = &[8];
const PRODUCT_EXPR: &str = r"<get[U](U{U{{o_1#0} | w#4 in U{({()} \ U{{()} | w%eq in (({ev#2} \ {o_1#0}) u ({o_1#0} \ {ev#2}))}) | ev#2 in I}} | o_1#0 in (I u J)}), get[U](U{U{{o_2#1} | w#4 in U{({()} \ U{{()} | w%eq in (({ev#3} \ {o_2#1}) u ({o_2#1} \ {ev#3}))}) | ev#3 in J}} | o_2#1 in (I u J)})>";
const PRODUCT_PROOF_SIZES: &[usize] = &[15, 17];
const CHECKED_PRODUCT_PROOF_SIZES: &[usize] = &[33, 15, 17];
const NESTED_FAILED_PURPOSE: &str = "the parameter-collection goal at nesting depth 1";
