//! The benchmark's own reference for every partition answer the program
//! computes: `S`, `S ∩ F` and `S \ F`, from a mirror of the base `(S, F)`.

use crate::stats::Mirror;
use nested_synth::{Instance, Name, Value};

/// What an answer is, as a function of the base `(S, F)`.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    Whole,
    Inter,
    Diff,
}

/// What query `i` of `overlapping_workload_problem(n)` answers: the
/// queries cycle S, S ∩ F, S \ F, S.
pub fn workload_query(i: usize) -> Expect {
    match i % 4 {
        1 => Expect::Inter,
        2 => Expect::Diff,
        _ => Expect::Whole,
    }
}

/// The views `V1 = S ∩ F` and `V2 = S \ F` of the partition problem.
pub const VIEWS: [(&str, Expect); 2] = [("V1", Expect::Inter), ("V2", Expect::Diff)];

/// The benchmark's reference copy of a base `(S, F)`.
#[derive(Clone, Debug)]
pub struct Base {
    pub s: Mirror,
    pub f: Mirror,
}

impl Base {
    pub fn from_ids(s: impl IntoIterator<Item = u64>, f: impl IntoIterator<Item = u64>) -> Base {
        Base {
            s: Mirror::from_ids(s),
            f: Mirror::from_ids(f),
        }
    }

    /// The mirror of the relations `S` and `F` of `inst`.
    pub fn of(inst: &Instance) -> Base {
        let ids = |n: &str| -> Vec<u64> {
            let set = inst
                .get(&Name::new(n))
                .expect("bound")
                .as_set()
                .expect("a set");
            set.iter()
                .map(|v| v.as_atom().expect("an atom").0)
                .collect()
        };
        Base::from_ids(ids("S"), ids("F"))
    }

    pub fn holds(&self, e: Expect, id: u64) -> bool {
        let (s, f) = (self.s.contains(id), self.f.contains(id));
        match e {
            Expect::Whole => s,
            Expect::Inter => s && f,
            Expect::Diff => s && !f,
        }
    }

    pub fn value(&self, e: Expect) -> Value {
        Value::set(
            self.s
                .ids()
                .filter(|&id| self.holds(e, id))
                .map(Value::atom),
        )
    }

    /// The views `V1` and `V2` over this base.
    pub fn views(&self) -> Instance {
        Instance::from_bindings(VIEWS.map(|(name, e)| (Name::new(name), self.value(e))))
    }
}
