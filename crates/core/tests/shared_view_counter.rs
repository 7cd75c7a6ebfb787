//! Each view and shared fragment of a maintained workload is maintained
//! exactly once per apply, however many answers read it.
//!
//! The assertion reads an exact delta of the process-global
//! `ivm.views_shared_total` counter, which every maintained workload (and
//! every maintained rewriting, a one-answer workload) advances.  It lives
//! in a test binary of its own so that no concurrently running test
//! shares the counter.

use nrs_synthesis::views::partition_instance;
use nrs_synthesis::{
    overlapping_workload_problem, MaintainedWorkload, SynthesisConfig, UpdateBatch,
};
use nrs_value::Value;

#[test]
fn workload_maintains_each_shared_view_once_per_apply() {
    let problem = overlapping_workload_problem(4);
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("workload rewriting exists");
    assert!(
        !rewriting.shared().views.is_empty(),
        "the fixture must produce at least one shared fragment"
    );
    let base = partition_instance(16, 5);
    let mut mw = MaintainedWorkload::new(&rewriting, &base).expect("materialize");
    let per_apply = (mw.view_count() + mw.shared_count()) as u64;
    let counter = nrs_obs::global().counter("ivm.views_shared_total");
    for i in 0..5u64 {
        let before = counter.get();
        let mut batch = UpdateBatch::new();
        batch.insert("S", Value::atom(900 + i));
        mw.apply(&batch).expect("apply");
        assert_eq!(
            counter.get() - before,
            per_apply,
            "each view and shared fragment is maintained exactly once per apply"
        );
    }
    assert!(mw.cross_check(&rewriting).unwrap());
}
