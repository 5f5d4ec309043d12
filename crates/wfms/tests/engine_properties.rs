//! Property tests for the workflow engine: arbitrary acyclic control
//! flow executes to a fixed point where every step is resolved, and
//! resolved as dead-path elimination says.

use b2b_wfms::engine::StepState;
use b2b_wfms::{
    Engine, EngineId, InstanceStatus, StepDef, StepId, Variable, WorkflowBuilder, WorkflowTypeId,
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

/// Runs `dag` to its fixed point: the instance's status and the state of
/// each step.
fn build_and_run(dag: &RandomDag) -> (InstanceStatus, Vec<StepState>) {
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
    let status = engine.run(id).expect("execution is infallible for noop DAGs");
    let instance = engine.db().get_instance(id).expect("instance exists");
    let states = (0..dag.steps).map(|i| instance.step_state(&StepId::new(format!("s{i}"))));
    (status, states.collect())
}

/// Dead-path elimination, stated over the DAG rather than run: a step
/// completes exactly when it has no incoming edge, or some incoming edge
/// has a completed source and a guard that holds. Edges run forward, so
/// every source is decided before its targets.
fn completes_by_dead_path_elimination(dag: &RandomDag) -> Vec<bool> {
    let mut completed = vec![false; dag.steps];
    for step in 0..dag.steps {
        let mut incoming = dag.edges.iter().filter(|(_, to, _)| *to == step).peekable();
        completed[step] = incoming.peek().is_none()
            || incoming.any(|&(from, _, guard)| completed[from] && guard != Some(false));
    }
    completed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any acyclic guarded DAG of no-op steps terminates (never a hang,
    /// never a failure), and each step ends Completed or Skipped exactly
    /// as dead-path elimination says: an AND-join where it needs an
    /// OR-join, or an edge taken past a false guard, fails here.
    #[test]
    fn random_guarded_dags_settle_by_dead_path_elimination(dag in dag()) {
        let (status, states) = build_and_run(&dag);
        prop_assert_eq!(status, InstanceStatus::Completed);
        let expected = completes_by_dead_path_elimination(&dag);
        for (step, (state, completes)) in states.into_iter().zip(expected).enumerate() {
            let want = if completes { StepState::Completed } else { StepState::Skipped };
            prop_assert_eq!(state, want, "step s{}", step);
        }
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
                inst.step_state(&StepId::new(format!("s{i}"))),
                StepState::Skipped
            );
        }
    }
}
