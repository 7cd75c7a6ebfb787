//! Maintained synthesized views (the paper's use case, kept live).
//!
//! Synthesis turns an implicit specification into an explicit NRC
//! definition; Corollary 3 turns views + queries into rewritings.  Both are
//! *views over changing data*: this module keeps their materializations up
//! to date under [`UpdateBatch`]es using the delta engine of `nrs-ivm`,
//! instead of re-running the compiled plans per update.
//!
//! * [`MaintainedView`] wraps one [`SynthesizedDefinition`] over an instance
//!   binding its inputs: apply batches against the *inputs*, read the
//!   maintained output.
//! * [`MaintainedWorkload`] wraps a whole [`WorkloadRewriting`] over a
//!   *base* instance: a batch on the base relations is propagated through
//!   every maintained view materialization, then through the shared
//!   fragments, and the combined view delta drives every maintained answer
//!   — so a single-tuple base update reaches the answers in O(|Δ| · log n)
//!   end to end.  It is the only maintenance engine for rewritings.
//! * [`MaintainedRewriting`] is a single [`RewritingResult`] kept the same
//!   way: a [`MaintainedWorkload`] of one answer (see
//!   [`WorkloadRewriting`]'s `From<&RewritingResult>`).
//!
//! Every handle carries a `cross_check` that re-evaluates naively from
//! scratch — every maintained value doubles as an incremental-vs-oracle
//! equivalence check (see `nrs-ivm`'s `tests/maintenance_equivalence.rs` for
//! the randomized harness).

use crate::synthesis::{SynthesisError, SynthesizedDefinition};
use crate::views::RewritingResult;
use crate::workload::WorkloadRewriting;
use nrs_ivm::{CoverageReport, DeltaSet, IvmError, MaintStats, MaintainedQuery, UpdateBatch};
use nrs_nrc::{eval as nrc_eval, CompiledQuery};
use nrs_value::{Instance, Name, Value};
use std::fmt;
use std::sync::Arc;

impl From<IvmError> for SynthesisError {
    fn from(e: IvmError) -> Self {
        SynthesisError::Maintenance(e)
    }
}

/// A synthesized definition kept materialized under input updates.
#[derive(Debug)]
pub struct MaintainedView {
    definition: SynthesizedDefinition,
    maintained: MaintainedQuery,
}

impl MaintainedView {
    /// Materialize the definition over an instance binding its inputs and
    /// set up the maintenance state.
    pub fn new(
        definition: &SynthesizedDefinition,
        inputs: &Instance,
    ) -> Result<MaintainedView, SynthesisError> {
        let maintained = MaintainedQuery::new(definition.compiled(), inputs)?;
        Ok(MaintainedView {
            definition: definition.clone(),
            maintained,
        })
    }

    /// Apply an update batch to the inputs; returns the exact delta of the
    /// view's materialization.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<DeltaSet, SynthesisError> {
        Ok(self.maintained.apply(batch)?)
    }

    /// Like [`MaintainedView::apply`], but all-or-nothing: if propagation
    /// fails mid-batch, the inputs and every operator cache are restored to
    /// their pre-batch state before the error is returned.
    pub fn apply_transactional(&mut self, batch: &UpdateBatch) -> Result<DeltaSet, SynthesisError> {
        Ok(self.maintained.apply_transactional(batch)?)
    }

    /// Per-operator maintenance modes of the compiled definition (ROADMAP
    /// item 5: which operators are delta-maintained vs recomputed).
    pub fn coverage(&self) -> CoverageReport {
        self.maintained.coverage()
    }

    /// The maintained materialization of the view.
    pub fn value(&self) -> &Value {
        self.maintained.value()
    }

    /// The inputs at their current (post-batch) state.
    pub fn inputs(&self) -> &Instance {
        self.maintained.env()
    }

    /// The wrapped definition.
    pub fn definition(&self) -> &SynthesizedDefinition {
        &self.definition
    }

    /// Re-evaluate the definition from scratch with the **naive** evaluator
    /// on the current inputs and compare with the maintained value — the
    /// incremental pipeline checked against the oracle in one call.
    pub fn cross_check(&self) -> Result<bool, SynthesisError> {
        let naive = self.definition.evaluate_naive(self.maintained.env())?;
        Ok(&naive == self.value())
    }
}

/// One maintained stage of a workload: a view, a shared fragment or a
/// query answer.
#[derive(Debug)]
struct MaintainedStage {
    name: Name,
    maintained: MaintainedQuery,
}

/// What a stage of a maintained workload materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A view over the base relations.
    View,
    /// A fragment shared by several answers, over the views.
    Shared,
    /// A query answer, over the views and shared fragments.
    Answer,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StageKind::View => "view",
            StageKind::Shared => "shared",
            StageKind::Answer => "answer",
        })
    }
}

/// An operator the self-healing apply demoted to recompute-on-dirty:
/// which stage it belongs to (a view, a shared fragment or an answer) and
/// its stable preorder id within that stage's plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedOperator {
    /// What the owning stage materializes.
    pub kind: StageKind,
    /// The owning stage: a view, shared-fragment or query name.
    pub owner: Name,
    /// Stable preorder operator id within the owning plan.
    pub op: usize,
}

impl fmt::Display for DegradedOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} operator #{}", self.kind, self.owner, self.op)
    }
}

/// Per-query coverage of a maintained rewriting (ROADMAP item 5): one
/// [`CoverageReport`] per view stage plus one for the answer, including
/// any operators the self-healing apply has degraded.
#[derive(Debug, Clone)]
pub struct RewritingCoverage {
    /// Coverage of each view-materialization stage, in pipeline order.
    pub views: Vec<(Name, CoverageReport)>,
    /// Coverage of the answer query over the views.
    pub answer: CoverageReport,
}

impl RewritingCoverage {
    /// Is every operator of every stage delta-maintained (nothing opaque,
    /// nothing degraded)?
    pub fn fully_incremental(&self) -> bool {
        self.views.iter().all(|(_, c)| c.fully_incremental()) && self.answer.fully_incremental()
    }

    /// Total number of degraded operators across the pipeline.
    pub fn degraded(&self) -> usize {
        self.views.iter().map(|(_, c)| c.degraded()).sum::<usize>() + self.answer.degraded()
    }
}

impl From<WorkloadCoverage> for RewritingCoverage {
    /// The single-rewriting shape of a workload's coverage: shared
    /// fragments are folded into the view list and the first answer stands
    /// for `answer`.
    fn from(wc: WorkloadCoverage) -> RewritingCoverage {
        let mut views = wc.views;
        views.extend(wc.shared);
        let answer = wc
            .answers
            .into_iter()
            .next()
            .map(|(_, c)| c)
            .expect("a workload has at least one query");
        RewritingCoverage { views, answer }
    }
}

impl fmt::Display for RewritingCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, c) in &self.views {
            writeln!(f, "view {name}: {c}")?;
        }
        write!(f, "answer: {}", self.answer)
    }
}

/// A full Corollary 3 pipeline kept materialized under *base* updates: the
/// view materializations and the rewriting's answer, all incremental.  A
/// [`MaintainedWorkload`] of one answer.
#[derive(Debug)]
pub struct MaintainedRewriting(MaintainedWorkload);

impl MaintainedRewriting {
    /// Materialize every view of the problem over `base`, materialize the
    /// rewriting over the views, and set up maintenance state for all of
    /// them.
    pub fn new(
        result: &RewritingResult,
        base: &Instance,
    ) -> Result<MaintainedRewriting, SynthesisError> {
        MaintainedWorkload::new(&result.into(), base).map(MaintainedRewriting)
    }

    /// Cumulative round counters summed across every view stage and the
    /// answer.
    pub fn maint_stats(&self) -> MaintStats {
        self.0.maint_stats()
    }

    /// Apply a batch of *base* updates; returns the exact delta of the
    /// answer.  See [`MaintainedWorkload::apply`].
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<DeltaSet, SynthesisError> {
        self.0.apply(batch).map(only_delta)
    }

    /// Self-healing apply; returns the answer delta together with the
    /// operators degraded while processing this batch.  See
    /// [`MaintainedWorkload::apply_resilient`].
    pub fn apply_resilient(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(DeltaSet, Vec<DegradedOperator>), SynthesisError> {
        let (deltas, degraded) = self.0.apply_resilient(batch)?;
        Ok((only_delta(deltas), degraded))
    }

    /// The maintained query answer.
    pub fn answer(&self) -> &Value {
        self.0.answers[0].maintained.value()
    }

    /// The base instance at its current (post-batch) state.
    pub fn base(&self) -> &Instance {
        self.0.base()
    }

    /// Naive end-to-end check: every maintained view and the answer against
    /// from-scratch naive evaluation, and the answer against the query
    /// evaluated directly on the base.  See [`MaintainedWorkload::cross_check`].
    pub fn cross_check(&self, result: &RewritingResult) -> Result<bool, SynthesisError> {
        self.0.cross_check(&result.into())
    }
}

/// The delta of a one-answer workload's only answer.
fn only_delta(deltas: AnswerDeltas) -> DeltaSet {
    deltas
        .into_iter()
        .next()
        .map(|(_, d)| d)
        .unwrap_or_default()
}

/// Per-query coverage of a maintained workload: one [`CoverageReport`] per
/// view stage, per shared fragment, and per query answer.
#[derive(Debug, Clone)]
pub struct WorkloadCoverage {
    /// Coverage of each view-materialization stage, in pipeline order.
    pub views: Vec<(Name, CoverageReport)>,
    /// Coverage of each shared-fragment materialization.
    pub shared: Vec<(Name, CoverageReport)>,
    /// Coverage of each query answer, in workload order.
    pub answers: Vec<(Name, CoverageReport)>,
}

impl WorkloadCoverage {
    /// Is every operator of every stage delta-maintained?
    pub fn fully_incremental(&self) -> bool {
        self.views.iter().all(|(_, c)| c.fully_incremental())
            && self.shared.iter().all(|(_, c)| c.fully_incremental())
            && self.answers.iter().all(|(_, c)| c.fully_incremental())
    }

    /// Total number of degraded operators across the workload.
    pub fn degraded(&self) -> usize {
        self.views
            .iter()
            .chain(&self.shared)
            .chain(&self.answers)
            .map(|(_, c)| c.degraded())
            .sum()
    }
}

impl fmt::Display for WorkloadCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, c) in &self.views {
            writeln!(f, "view {name}: {c}")?;
        }
        for (name, c) in &self.shared {
            writeln!(f, "shared {name}: {c}")?;
        }
        for (i, (name, c)) in self.answers.iter().enumerate() {
            if i + 1 == self.answers.len() {
                write!(f, "answer {name}: {c}")?;
            } else {
                writeln!(f, "answer {name}: {c}")?;
            }
        }
        Ok(())
    }
}

/// Per-query deltas of one maintenance round: one `(query name, delta)`
/// entry per named workload answer, in workload entry order.
pub type AnswerDeltas = Vec<(Name, DeltaSet)>;

/// A captured pre-batch state of a [`MaintainedWorkload`]: the instances
/// its views, shared fragments and answers are maintained over.  Cheap —
/// the values underneath are persistent.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    base: Instance,
    views: Instance,
    aug: Instance,
}

/// A whole multi-query workload kept materialized under *base* updates:
/// the view materializations, the **shared fragments** (each maintained
/// exactly once per batch, however many answers read it), and every named
/// query answer — the maintenance half of the workload amortization story.
///
/// Propagation order per [`UpdateBatch`]: base → views (their deltas become
/// a batch over the view names) → shared fragments (their deltas extend
/// that batch) → every answer, delta-fed from the combined batch.  The
/// `ivm.views_shared_total` counter advances by `views + shared` per apply,
/// which is what the acceptance test pins: each shared view is maintained
/// once per flush, not once per dependent query.
#[derive(Debug)]
pub struct MaintainedWorkload {
    views: Vec<MaintainedStage>,
    shared: Vec<MaintainedStage>,
    answers: Vec<MaintainedStage>,
    /// Per-answer apply timers, parallel to `answers`.
    answer_seconds: Vec<Arc<nrs_obs::Histogram>>,
}

fn workload_obs() -> (
    &'static Arc<nrs_obs::Counter>,
    &'static Arc<nrs_obs::Counter>,
) {
    static METRICS: std::sync::OnceLock<(Arc<nrs_obs::Counter>, Arc<nrs_obs::Counter>)> =
        std::sync::OnceLock::new();
    let (shared, applies) = METRICS.get_or_init(|| {
        let r = nrs_obs::global();
        (
            r.counter("ivm.views_shared_total"),
            r.counter("ivm.workload_applies_total"),
        )
    });
    (shared, applies)
}

impl MaintainedWorkload {
    /// Materialize every view over `base`, every shared fragment over the
    /// views, and every query answer over views + shared fragments, and set
    /// up maintenance state for all of them.
    pub fn new(
        rewriting: &WorkloadRewriting,
        base: &Instance,
    ) -> Result<MaintainedWorkload, SynthesisError> {
        let env = rewriting.problem.base_env();
        let mut gen = nrs_value::NameGen::new();
        let mut views = Vec::with_capacity(rewriting.problem.views.len());
        let mut view_inst = Instance::new();
        for view in &rewriting.problem.views {
            let expr = view
                .to_nrc(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let compiled = CompiledQuery::compile(&expr);
            let maintained = MaintainedQuery::new(&compiled, base)?;
            view_inst.bind(view.name, maintained.value().clone());
            views.push(MaintainedStage {
                name: view.name,
                maintained,
            });
        }
        let shared_set = rewriting.shared();
        let mut shared = Vec::with_capacity(shared_set.views.len());
        let mut aug_inst = view_inst.clone();
        for (name, expr) in &shared_set.views {
            let compiled = CompiledQuery::compile(expr);
            let maintained = MaintainedQuery::new(&compiled, &view_inst)?;
            aug_inst.bind(*name, maintained.value().clone());
            shared.push(MaintainedStage {
                name: *name,
                maintained,
            });
        }
        let registry = nrs_obs::global();
        let mut answers = Vec::with_capacity(shared_set.queries.len());
        let mut answer_seconds = Vec::with_capacity(shared_set.queries.len());
        for (name, expr) in &shared_set.queries {
            let compiled = CompiledQuery::compile(expr);
            answers.push(MaintainedStage {
                name: *name,
                maintained: MaintainedQuery::new(&compiled, &aug_inst)?,
            });
            answer_seconds
                .push(registry.timer(&format!("ivm.workload.answer.{name}.apply_seconds")));
        }
        Ok(MaintainedWorkload {
            views,
            shared,
            answers,
            answer_seconds,
        })
    }

    /// Every stage in propagation order, with its kind.
    fn stages(&self) -> impl Iterator<Item = (StageKind, &MaintainedStage)> {
        self.views
            .iter()
            .map(|s| (StageKind::View, s))
            .chain(self.shared.iter().map(|s| (StageKind::Shared, s)))
            .chain(self.answers.iter().map(|s| (StageKind::Answer, s)))
    }

    /// Cumulative round counters summed across every stage, shared
    /// fragment and answer.
    pub fn maint_stats(&self) -> MaintStats {
        let mut total = MaintStats::default();
        for (_, stage) in self.stages() {
            total += stage.maintained.maint_stats();
        }
        total
    }

    /// Apply a batch of *base* updates through the whole workload; returns
    /// the exact per-query answer deltas (empty deltas included, so the
    /// result always has one entry per query, in workload order).
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<AnswerDeltas, SynthesisError> {
        self.apply_inner(batch).map_err(|(_, _, e)| e.into())
    }

    /// The propagation step: each view and each shared fragment is
    /// maintained exactly once; every answer is delta-fed from the combined
    /// view + shared batch.  A failure reports the kind and index of the
    /// stage it occurred in, so the self-healing apply can degrade the
    /// right operator.
    fn apply_inner(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<AnswerDeltas, (StageKind, usize, IvmError)> {
        let (shared_ctr, applies_ctr) = workload_obs();
        let mut combined = UpdateBatch::new();
        for (i, stage) in self.views.iter_mut().enumerate() {
            let delta = stage
                .maintained
                .apply(batch)
                .map_err(|e| (StageKind::View, i, e))?;
            if !delta.is_empty() {
                combined.push_delta(stage.name, delta);
            }
        }
        // shared fragments read the view deltas only; theirs join the batch
        // afterwards
        let mut shared_deltas = Vec::new();
        for (i, stage) in self.shared.iter_mut().enumerate() {
            let delta = stage
                .maintained
                .apply(&combined)
                .map_err(|e| (StageKind::Shared, i, e))?;
            if !delta.is_empty() {
                shared_deltas.push((stage.name, delta));
            }
        }
        for (name, delta) in shared_deltas {
            combined.push_delta(name, delta);
        }
        shared_ctr.add((self.views.len() + self.shared.len()) as u64);
        applies_ctr.inc();
        let mut out = Vec::with_capacity(self.answers.len());
        for (i, (answer, seconds)) in self
            .answers
            .iter_mut()
            .zip(&self.answer_seconds)
            .enumerate()
        {
            let delta = if combined.is_empty() {
                DeltaSet::new()
            } else {
                let start = std::time::Instant::now();
                let delta = answer
                    .maintained
                    .apply(&combined)
                    .map_err(|e| (StageKind::Answer, i, e))?;
                seconds.record_duration(start.elapsed());
                delta
            };
            out.push((answer.name, delta));
        }
        Ok(out)
    }

    /// Capture the current state for a later [`restore`](Self::restore).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            base: self.base().clone(),
            views: self.view_instance().clone(),
            aug: self.answer_instance().clone(),
        }
    }

    /// Restore every stage to a [`checkpoint`](Self::checkpoint) by full
    /// rebuild.  Failure path only — the success path never pays this;
    /// serving layers use it to unwind a batch whose publication step
    /// failed after propagation succeeded.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SynthesisError> {
        let parts = [
            (StageKind::View, &mut self.views, &checkpoint.base),
            (StageKind::Shared, &mut self.shared, &checkpoint.views),
            (StageKind::Answer, &mut self.answers, &checkpoint.aug),
        ];
        for (kind, stages, env) in parts {
            for stage in stages.iter_mut() {
                stage.maintained.rebuild(env).map_err(|e| {
                    SynthesisError::Ill(format!("rollback of {kind} {} failed: {e}", stage.name))
                })?;
            }
        }
        Ok(())
    }

    /// Like [`MaintainedWorkload::apply`], but all-or-nothing across every
    /// stage and every answer: if any stage fails mid-propagation, every
    /// materialization is restored to its pre-batch state before the error
    /// is returned.  Validation errors ([`IvmError::is_validation`]) never
    /// modify state, so they skip the rollback.
    pub fn apply_transactional(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<AnswerDeltas, SynthesisError> {
        let before = self.checkpoint();
        self.apply_inner(batch).or_else(|(_, _, e)| {
            if !e.is_validation() {
                self.restore(&before)?;
            }
            Err(e.into())
        })
    }

    /// Self-healing apply: transactional, and an operator failure
    /// additionally **degrades** the failing operator to recompute-on-dirty
    /// (visible in [`MaintainedWorkload::coverage`]) and retries the batch
    /// through the degraded plan.  Returns the answer deltas together with
    /// the operators degraded while processing this batch.  Validation
    /// errors are returned as-is — there is nothing to heal.
    pub fn apply_resilient(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(AnswerDeltas, Vec<DegradedOperator>), SynthesisError> {
        let mut degraded = Vec::new();
        loop {
            let before = self.checkpoint();
            let (kind, i, e) = match self.apply_inner(batch) {
                Ok(d) => return Ok((d, degraded)),
                Err(failure) => failure,
            };
            if e.is_validation() {
                return Err(e.into());
            }
            self.restore(&before)?;
            let Some(op) = e.operator() else {
                // no operator to blame (e.g. an internal invariant
                // violation): degradation can't help
                return Err(e.into());
            };
            let stage = match kind {
                StageKind::View => &mut self.views[i],
                StageKind::Shared => &mut self.shared[i],
                StageKind::Answer => &mut self.answers[i],
            };
            if stage.maintained.degraded().contains(&op) {
                // the operator failed *again* while already degraded (its
                // recompute path is broken too): give up rather than loop
                return Err(e.into());
            }
            stage.maintained.degrade(op)?;
            degraded.push(DegradedOperator {
                kind,
                owner: stage.name,
                op,
            });
        }
    }

    /// Per-stage maintenance coverage across views, shared fragments and
    /// answers, including operators degraded by
    /// [`MaintainedWorkload::apply_resilient`].
    pub fn coverage(&self) -> WorkloadCoverage {
        let list = |stages: &[MaintainedStage]| {
            stages
                .iter()
                .map(|s| (s.name, s.maintained.coverage()))
                .collect()
        };
        WorkloadCoverage {
            views: list(&self.views),
            shared: list(&self.shared),
            answers: list(&self.answers),
        }
    }

    /// The operators currently degraded across the workload.
    pub fn degraded_operators(&self) -> Vec<DegradedOperator> {
        self.stages()
            .flat_map(|(kind, stage)| {
                stage
                    .maintained
                    .degraded()
                    .iter()
                    .map(move |&op| DegradedOperator {
                        kind,
                        owner: stage.name,
                        op,
                    })
            })
            .collect()
    }

    /// The maintained answers, in workload order.
    pub fn answers(&self) -> Vec<(Name, &Value)> {
        self.answers
            .iter()
            .map(|a| (a.name, a.maintained.value()))
            .collect()
    }

    /// The maintained answer of one query.
    pub fn answer(&self, name: &Name) -> Option<&Value> {
        self.answers
            .iter()
            .find(|a| &a.name == name)
            .map(|a| a.maintained.value())
    }

    /// The maintained materialization of one view or shared fragment.
    pub fn view(&self, name: &Name) -> Option<&Value> {
        self.views
            .iter()
            .chain(&self.shared)
            .find(|s| &s.name == name)
            .map(|s| s.maintained.value())
    }

    /// Number of shared-fragment stages.
    pub fn shared_count(&self) -> usize {
        self.shared.len()
    }

    /// Number of view stages.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// The base instance at its current (post-batch) state.
    pub fn base(&self) -> &Instance {
        self.views
            .first()
            .map(|s| s.maintained.env())
            .unwrap_or_else(|| self.answer_instance())
    }

    /// The current view instance (view names bound to maintained values).
    pub fn view_instance(&self) -> &Instance {
        self.shared
            .first()
            .map(|s| s.maintained.env())
            .unwrap_or_else(|| self.answer_instance())
    }

    /// The instance the answers are maintained over: views + shared
    /// fragments.
    pub fn answer_instance(&self) -> &Instance {
        self.answers
            .first()
            .map(|a| a.maintained.env())
            .expect("a workload has at least one query")
    }

    /// Naive end-to-end check: every maintained view, shared fragment and
    /// answer is compared against from-scratch naive evaluation, and every
    /// answer additionally against the *original* (unrewritten) query
    /// evaluated directly on the current base — incremental maintenance,
    /// fragment sharing and rewriting all checked against the oracle.
    pub fn cross_check(&self, rewriting: &WorkloadRewriting) -> Result<bool, SynthesisError> {
        let env = rewriting.problem.base_env();
        let mut gen = nrs_value::NameGen::new();
        let base = self.base();
        let mut view_inst = Instance::new();
        for view in &rewriting.problem.views {
            let expr = view
                .to_nrc(&env, &mut gen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let naive =
                nrc_eval::eval(&expr, base).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            match self.view(&view.name) {
                Some(v) if v == &naive => view_inst.bind(view.name, naive),
                _ => return Ok(false),
            };
        }
        let mut aug = view_inst;
        for (name, expr) in &rewriting.shared().views {
            let naive =
                nrc_eval::eval(expr, &aug).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            match self.view(name) {
                Some(v) if v == &naive => aug.bind(*name, naive),
                _ => return Ok(false),
            };
        }
        for (name, expr) in &rewriting.shared().queries {
            let naive =
                nrc_eval::eval(expr, &aug).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            if self.answer(name) != Some(&naive) {
                return Ok(false);
            }
        }
        for query in &rewriting.problem.queries {
            let mut qgen = nrs_value::NameGen::new();
            let q_expr = query
                .to_nrc(&env, &mut qgen)
                .map_err(|e| SynthesisError::Ill(e.to_string()))?;
            let direct =
                nrc_eval::eval(&q_expr, base).map_err(|e| SynthesisError::Ill(e.to_string()))?;
            if self.answer(&query.name) != Some(&direct) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{partition_instance, partition_problem};
    use crate::SynthesisConfig;

    #[test]
    fn maintained_rewriting_tracks_base_updates() {
        let problem = partition_problem();
        let result = problem
            .derive_rewriting(&SynthesisConfig::default())
            .expect("rewriting exists");
        let base = partition_instance(40, 7);
        let mut mv = MaintainedRewriting::new(&result, &base).expect("materialize");
        // the initial answer agrees with answering from fresh views
        let fresh = result
            .answer_from_views(&crate::views::materialize_views(&problem, &base).unwrap())
            .unwrap();
        assert_eq!(mv.answer(), &fresh);
        // stream single-tuple updates through S and F, checking naively
        for i in 0..30u64 {
            let mut batch = UpdateBatch::new();
            match i % 4 {
                0 => batch.insert("S", Value::atom(500 + i)),
                1 => batch.insert("F", Value::atom(500 + i - 1)),
                2 => batch.delete("S", Value::atom(500 + i - 2)),
                _ => batch.delete("F", Value::atom(i % 7)),
            };
            mv.apply(&batch).expect("maintenance step");
            assert!(
                mv.cross_check(&result).expect("oracle re-evaluation"),
                "diverged from the naive oracle at step {i}"
            );
        }
    }

    #[test]
    fn transactional_apply_rejects_malformed_batches_without_state_change() {
        let problem = partition_problem();
        let result = problem
            .derive_rewriting(&SynthesisConfig::default())
            .expect("rewriting exists");
        let base = partition_instance(20, 3);
        let mut mv = MaintainedRewriting::new(&result, &base).expect("materialize");
        let before = mv.answer().clone();
        // a delta with overlapping sides is malformed on every path
        let mut ds = DeltaSet::new();
        ds.inserts.insert(Value::atom(1));
        ds.deletes.insert(Value::atom(1));
        // the insert/delete builders cancel opposite sides, so an overlap is
        // only constructible by wrapping a hand-built delta verbatim
        let batch = UpdateBatch::from_delta("S", ds);
        let err = mv.0.apply_transactional(&batch).unwrap_err();
        assert!(
            matches!(
                err,
                SynthesisError::Maintenance(IvmError::OverlappingDelta { .. })
            ),
            "got {err}"
        );
        assert_eq!(
            mv.answer(),
            &before,
            "validation errors leave state untouched"
        );
        assert!(mv.cross_check(&result).unwrap());
        // a healthy pipeline is fully incremental with nothing degraded
        assert!(mv.0.coverage().fully_incremental());
        assert!(mv.0.degraded_operators().is_empty());
        // and a resilient apply of a good batch degrades nothing
        let mut good = UpdateBatch::new();
        good.insert("S", Value::atom(7777));
        let (_, degraded) = mv.apply_resilient(&good).expect("resilient apply");
        assert!(degraded.is_empty());
        assert!(mv.cross_check(&result).unwrap());
    }

    #[test]
    fn degraded_operators_name_their_stage_kind() {
        let op = |kind, owner: &str| DegradedOperator {
            kind,
            owner: Name::new(owner),
            op: 3,
        };
        assert_eq!(op(StageKind::View, "V1").to_string(), "view V1 operator #3");
        assert_eq!(
            op(StageKind::Shared, "__shared#0").to_string(),
            "shared __shared#0 operator #3"
        );
        assert_eq!(
            op(StageKind::Answer, "q1").to_string(),
            "answer q1 operator #3"
        );
    }

    #[test]
    fn maintained_view_wraps_a_synthesized_definition() {
        let problem = partition_problem();
        let result = problem
            .derive_rewriting(&SynthesisConfig::default())
            .expect("rewriting exists");
        let base = partition_instance(12, 3);
        let views = crate::views::materialize_views(&problem, &base).unwrap();
        let mut mv = MaintainedView::new(&result.definition, &views).expect("materialize");
        assert!(mv.cross_check().unwrap());
        // update the view relations directly (the definition's inputs)
        let mut batch = UpdateBatch::new();
        batch
            .insert("V1", Value::atom(900))
            .delete("V2", Value::atom(1));
        let delta = mv.apply(&batch).unwrap();
        assert!(mv.cross_check().unwrap());
        // the partition rewriting is the identity on V1 ∪ V2, so the newly
        // inserted element must have surfaced in the answer
        assert!(delta.inserts.contains(&Value::atom(900)));
        assert!(mv.value().as_set().unwrap().contains(&Value::atom(900)));
    }

    #[test]
    fn maintained_workload_tracks_base_updates() {
        let problem = crate::workload::overlapping_workload_problem(4);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        let base = partition_instance(30, 11);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        assert!(mw.cross_check(&rewriting).unwrap());
        assert!(mw.coverage().fully_incremental());
        for i in 0..24u64 {
            let mut batch = UpdateBatch::new();
            match i % 4 {
                0 => batch.insert("S", Value::atom(700 + i)),
                1 => batch.insert("F", Value::atom(700 + i - 1)),
                2 => batch.delete("S", Value::atom(700 + i - 2)),
                _ => batch.delete("F", Value::atom(i % 5)),
            };
            let deltas = mw.apply(&batch).expect("maintenance step");
            assert_eq!(deltas.len(), 4, "one delta per query");
            assert!(
                mw.cross_check(&rewriting).expect("oracle re-evaluation"),
                "diverged from the naive oracle at step {i}"
            );
        }
    }

    #[test]
    fn workload_transactional_apply_rejects_malformed_batches() {
        let problem = crate::workload::overlapping_workload_problem(2);
        let rewriting = problem
            .derive_workload(&SynthesisConfig::default())
            .expect("workload rewriting exists");
        let base = partition_instance(12, 9);
        let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
        let before: Vec<(Name, Value)> = mw
            .answers()
            .into_iter()
            .map(|(n, v)| (n, v.clone()))
            .collect();
        let mut ds = DeltaSet::new();
        ds.inserts.insert(Value::atom(1));
        ds.deletes.insert(Value::atom(1));
        let batch = UpdateBatch::from_delta("S", ds);
        let err = mw.apply_transactional(&batch).unwrap_err();
        assert!(
            matches!(
                err,
                SynthesisError::Maintenance(IvmError::OverlappingDelta { .. })
            ),
            "got {err}"
        );
        let after: Vec<(Name, Value)> = mw
            .answers()
            .into_iter()
            .map(|(n, v)| (n, v.clone()))
            .collect();
        assert_eq!(before, after, "validation errors leave state untouched");
        assert!(mw.degraded_operators().is_empty());
        let (deltas, degraded) = mw
            .apply_resilient(&UpdateBatch::new().insert("S", Value::atom(424242)).clone())
            .expect("resilient apply");
        assert!(degraded.is_empty());
        assert_eq!(deltas.len(), 2);
        assert!(mw.cross_check(&rewriting).unwrap());
    }
}
