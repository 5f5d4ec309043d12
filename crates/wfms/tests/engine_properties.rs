//! Property tests for the workflow engine: arbitrary acyclic control
//! flow executes to a fixed point where every step is resolved.

use b2b_wfms::{
    Engine, EngineId, InstanceStatus, StepDef, Variable, WorkflowBuilder, WorkflowTypeId,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random DAG: steps s0..sN, edges only forward (i -> j with i < j), so
/// validation always passes; a random subset of edges is guarded by
/// amount comparisons.
#[derive(Debug, Clone)]
struct RandomDag {
    steps: usize,
    edges: Vec<(usize, usize, Option<bool>)>, // (from, to, guard-that-is-true?)
}

fn dag() -> impl Strategy<Value = RandomDag> {
    (2usize..12).prop_flat_map(|steps| {
        let edges = prop::collection::vec(
            (0usize..steps, 0usize..steps, prop::option::of(any::<bool>())),
            0..steps * 2,
        );
        edges.prop_map(move |raw| {
            let mut edges: Vec<(usize, usize, Option<bool>)> = raw
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, g)| if a < b { (a, b, g) } else { (b, a, g) })
                .collect();
            edges.sort();
            edges.dedup_by_key(|(a, b, _)| (*a, *b));
            RandomDag { steps, edges }
        })
    })
}

fn build_and_run(dag: &RandomDag) -> InstanceStatus {
    let mut builder = WorkflowBuilder::new("random");
    for i in 0..dag.steps {
        builder = builder.step(StepDef::noop(&format!("s{i}")));
    }
    for (from, to, guard) in &dag.edges {
        let (from, to) = (format!("s{from}"), format!("s{to}"));
        match guard {
            None => builder = builder.edge(&from, &to),
            // Guards read a seeded PO of amount 10_000: `true` guards
            // compare >= 1, `false` guards compare >= 1_000_000.
            Some(true) => builder = builder.guarded_edge(&from, &to, "po", "document.amount >= 1"),
            Some(false) => {
                builder = builder.guarded_edge(&from, &to, "po", "document.amount >= 1000000")
            }
        }
    }
    let wf = builder.build().expect("forward edges are always acyclic");
    let mut engine = Engine::new(EngineId::new("prop"));
    engine.deploy(wf);
    let mut vars = BTreeMap::new();
    vars.insert(
        "po".to_string(),
        Variable::Document(b2b_document::normalized::sample_po("p", 10_000).into()),
    );
    let id = engine
        .create_instance(&WorkflowTypeId::new("random"), vars, "s", "t")
        .expect("type deployed");
    engine.run(id).expect("execution is infallible for noop DAGs");
    engine.status(id).expect("instance exists")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any acyclic guarded DAG of no-op steps terminates: either every
    /// step completes or is skipped (never a hang, never a failure).
    #[test]
    fn random_guarded_dags_always_terminate(dag in dag()) {
        prop_assert_eq!(build_and_run(&dag), InstanceStatus::Completed);
    }
}

proptest! {
    /// Dead-path elimination invariant: with all-false guards out of the
    /// start step, everything downstream is skipped but the instance
    /// still completes.
    #[test]
    fn all_false_guards_skip_downstream(steps in 2usize..8) {
        let mut builder = WorkflowBuilder::new("skippy")
            .step(StepDef::noop("s0"));
        for i in 1..steps {
            builder = builder
                .step(StepDef::noop(&format!("s{i}")))
                .guarded_edge("s0", &format!("s{i}"), "po", "document.amount >= 1000000");
        }
        let wf = builder.build().unwrap();
        let mut engine = Engine::new(EngineId::new("prop"));
        engine.deploy(wf);
        let mut vars = BTreeMap::new();
        vars.insert(
            "po".to_string(),
            Variable::Document(b2b_document::normalized::sample_po("p", 10).into()),
        );
        let id = engine
            .create_instance(&WorkflowTypeId::new("skippy"), vars, "s", "t")
            .unwrap();
        prop_assert_eq!(engine.run(id).unwrap(), InstanceStatus::Completed);
        let inst = engine.db().get_instance(id).unwrap();
        for i in 1..steps {
            prop_assert_eq!(
                inst.step_state(&b2b_wfms::StepId::new(format!("s{i}"))),
                b2b_wfms::engine::StepState::Skipped
            );
        }
    }
}
