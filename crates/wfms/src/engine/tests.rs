//! Behavioural tests of the engine's execution semantics.

use super::*;
use crate::model::{ChannelId, StepDef, WorkflowBuilder};
use b2b_document::normalized::sample_po;
use b2b_document::{FormatId, Value};
use b2b_rules::{BusinessRule, RuleFunction};
use std::collections::BTreeMap;

fn engine() -> Engine {
    Engine::new(EngineId::new("test"))
}

fn doc_vars(amount: i64) -> BTreeMap<String, Variable> {
    let mut vars = BTreeMap::new();
    vars.insert("po".to_string(), Variable::Document(sample_po("4711", amount)));
    vars
}

#[test]
fn linear_workflow_completes() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("linear")
            .step(StepDef::noop("a"))
            .step(StepDef::noop("b"))
            .step(StepDef::noop("c"))
            .edge("a", "b")
            .edge("b", "c")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("linear"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.stats().steps_executed, 3);
}

#[test]
fn conditional_branch_takes_one_path_and_skips_the_other() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("branch")
            .step(StepDef::noop("check"))
            .step(StepDef::noop("approve"))
            .step(StepDef::noop("store"))
            .guarded_edge("check", "approve", "po", "document.amount > 10000")
            .guarded_edge("check", "store", "po", "not (document.amount > 10000)")
            .build()
            .unwrap(),
    );
    // High amount: approve runs, store skipped.
    let id = e.create_instance(&WorkflowTypeId::new("branch"), doc_vars(20_000), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    let inst = e.db().get_instance(id).unwrap();
    assert_eq!(inst.step_state(&StepId::new("approve")), StepState::Completed);
    assert_eq!(inst.step_state(&StepId::new("store")), StepState::Skipped);
    // Low amount: the other way round.
    let id = e.create_instance(&WorkflowTypeId::new("branch"), doc_vars(5_000), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    let inst = e.db().get_instance(id).unwrap();
    assert_eq!(inst.step_state(&StepId::new("approve")), StepState::Skipped);
    assert_eq!(inst.step_state(&StepId::new("store")), StepState::Completed);
}

#[test]
fn parallel_split_and_join() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("par")
            .step(StepDef::noop("split"))
            .step(StepDef::noop("left"))
            .step(StepDef::noop("right"))
            .step(StepDef::noop("join"))
            .edge("split", "left")
            .edge("split", "right")
            .edge("left", "join")
            .edge("right", "join")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("par"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.stats().steps_executed, 4);
}

#[test]
fn join_after_conditional_waits_only_for_live_paths() {
    // Dead-path elimination: join fires although one branch was skipped.
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("dpe")
            .step(StepDef::noop("check"))
            .step(StepDef::noop("approve"))
            .step(StepDef::noop("join"))
            .guarded_edge("check", "approve", "po", "document.amount > 10000")
            .guarded_edge("check", "join", "po", "not (document.amount > 10000)")
            .edge("approve", "join")
            .build()
            .unwrap(),
    );
    for amount in [5_000, 20_000] {
        let id =
            e.create_instance(&WorkflowTypeId::new("dpe"), doc_vars(amount), "s", "t").unwrap();
        assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed, "amount {amount}");
    }
}

#[test]
fn receive_blocks_until_delivery() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("recv")
            .step(StepDef::receive("wait", "in", "po"))
            .step(StepDef::noop("done"))
            .edge("wait", "done")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("recv"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Running);
    assert_eq!(e.blocked_instances(), vec![id]);
    e.deliver_to(id, &ChannelId::new("in"), sample_po("9", 10)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed);
    let po = e.variable(id, "po").unwrap();
    assert!(matches!(po, Variable::Document(_)));
}

#[test]
fn send_lands_in_the_outbox() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("send").step(StepDef::send("emit", "out", "po")).build().unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("send"), doc_vars(10), "s", "t").unwrap();
    e.run(id).unwrap();
    let out = e.drain_outbox();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, id);
    assert_eq!(out[0].1, ChannelId::new("out"));
    assert!(e.drain_outbox().is_empty());
}

#[test]
fn timer_fires_on_time_advance() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("timer")
            .step(StepDef::timer("wait", 100))
            .step(StepDef::noop("done"))
            .edge("wait", "done")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("timer"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Running);
    e.advance_time(SimTime::from_millis(99)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Running);
    e.advance_time(SimTime::from_millis(100)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed);
}

#[test]
fn rule_check_branches_on_external_rules() {
    let mut e = engine();
    let mut f = RuleFunction::new("check-need-for-approval");
    f.add_rule(BusinessRule::parse("r1", "source == \"TP1\"", "document.amount >= 55000").unwrap());
    e.rules_mut().register(f);
    e.deploy(
        WorkflowBuilder::new("rules")
            .step(StepDef::rule_check("check", "check-need-for-approval", "po", "needs"))
            .step(StepDef::activity("approve", "approve"))
            .step(StepDef::noop("store"))
            .guarded_edge("check", "approve", "needs", "document.value == true")
            .guarded_edge("check", "store", "needs", "document.value == false")
            .edge("approve", "store")
            .build()
            .unwrap(),
    );
    e.register_activity(
        "approve",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("approved", Value::Bool(true));
            Ok(())
        }),
    );
    let id =
        e.create_instance(&WorkflowTypeId::new("rules"), doc_vars(60_000), "TP1", "SAP").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.variable(id, "approved").unwrap(), Variable::Value(Value::Bool(true)));
    assert_eq!(e.stats().rule_invocations, 1);
}

#[test]
fn no_rule_applies_fails_the_instance() {
    let mut e = engine();
    e.rules_mut().register(RuleFunction::new("check-need-for-approval"));
    e.deploy(
        WorkflowBuilder::new("rules")
            .step(StepDef::rule_check("check", "check-need-for-approval", "po", "needs"))
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("rules"), doc_vars(1), "TP9", "SAP").unwrap();
    match e.run(id).unwrap() {
        InstanceStatus::Failed(reason) => assert!(reason.contains("no rule"), "{reason}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn transform_step_uses_the_registry() {
    let mut e = engine();
    e.set_transforms(b2b_transform::TransformRegistry::with_builtins());
    e.deploy(
        WorkflowBuilder::new("xf")
            .step(StepDef::transform("to-sap", FormatId::SAP_IDOC, "po", "sap_po"))
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("xf"), doc_vars(10), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    match e.variable(id, "sap_po").unwrap() {
        Variable::Document(d) => assert_eq!(d.format(), &FormatId::SAP_IDOC),
        other => panic!("{other:?}"),
    }
}

#[test]
fn subworkflow_completes_into_parent() {
    let mut e = engine();
    e.deploy(WorkflowBuilder::new("sub").step(StepDef::activity("work", "mark")).build().unwrap());
    e.deploy(
        WorkflowBuilder::new("parent")
            .step(StepDef::noop("before"))
            .step(StepDef::subworkflow("call", &WorkflowTypeId::new("sub")))
            .step(StepDef::noop("after"))
            .edge("before", "call")
            .edge("call", "after")
            .build()
            .unwrap(),
    );
    e.register_activity(
        "mark",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("marked", Value::Bool(true));
            Ok(())
        }),
    );
    let id = e.create_instance(&WorkflowTypeId::new("parent"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.variable(id, "marked").unwrap(), Variable::Value(Value::Bool(true)));
}

/// Section 3.1's argument, executable: a subworkflow containing
/// `receive PO -> send POA` cannot give the PO to the superworkflow
/// between the two steps — control returns only at completion. The
/// superworkflow's transform therefore runs AFTER the POA was already
/// sent, which is exactly the defect the paper describes.
#[test]
fn subworkflow_cannot_return_control_midway() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("exchange-sub")
            .step(StepDef::receive("receive-po", "from-partner", "po"))
            .step(StepDef::send("send-poa", "to-partner", "po"))
            .edge("receive-po", "send-poa")
            .build()
            .unwrap(),
    );
    e.deploy(
        WorkflowBuilder::new("super")
            .step(StepDef::subworkflow("exchange", &WorkflowTypeId::new("exchange-sub")))
            .step(StepDef::activity("transform-po", "observe"))
            .edge("exchange", "transform-po")
            .build()
            .unwrap(),
    );
    // The observe activity records whether the POA had already been sent
    // when the superworkflow regained control.
    e.register_activity(
        "observe",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("got-control", Value::Bool(true));
            Ok(())
        }),
    );
    let id = e.create_instance(&WorkflowTypeId::new("super"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Running, "blocked inside the subworkflow");
    // Super has NOT regained control while the subworkflow waits.
    assert!(e.variable(id, "got-control").is_err());
    // The receive waits in the child, spawned right after its parent.
    let child = InstanceId::new(id.value() + 1);
    assert_eq!(e.db().get_instance(child).unwrap().parent().map(|(p, _)| p), Some(id));
    e.deliver_to(child, &ChannelId::new("from-partner"), sample_po("1", 5)).unwrap();
    // Now the subworkflow ran to completion: the send already happened...
    let sent = e.drain_outbox();
    assert_eq!(sent.len(), 1, "POA left before the superworkflow saw the PO");
    // ...and only then did the superworkflow regain control.
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.variable(id, "got-control").unwrap(), Variable::Value(Value::Bool(true)));
}

#[test]
fn failing_activity_fails_instance_and_parent() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("sub").step(StepDef::activity("boom", "explode")).build().unwrap(),
    );
    e.deploy(
        WorkflowBuilder::new("parent")
            .step(StepDef::subworkflow("call", &WorkflowTypeId::new("sub")))
            .build()
            .unwrap(),
    );
    e.register_activity(
        "explode",
        Arc::new(|_: &mut ActivityContext<'_>| Err("kaboom".to_string())),
    );
    let id = e.create_instance(&WorkflowTypeId::new("parent"), BTreeMap::new(), "s", "t").unwrap();
    match e.run(id).unwrap() {
        InstanceStatus::Failed(reason) => assert!(reason.contains("kaboom"), "{reason}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unknown_activity_fails_cleanly() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("w").step(StepDef::activity("a", "not-registered")).build().unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("w"), BTreeMap::new(), "s", "t").unwrap();
    match e.run(id).unwrap() {
        InstanceStatus::Failed(reason) => assert!(reason.contains("not-registered")),
        other => panic!("{other:?}"),
    }
}

#[test]
fn create_instance_requires_deployed_type() {
    let mut e = engine();
    assert!(e.create_instance(&WorkflowTypeId::new("ghost"), BTreeMap::new(), "s", "t").is_err());
}

#[test]
fn history_records_the_execution() {
    let mut e = engine();
    e.deploy(WorkflowBuilder::new("w").step(StepDef::noop("a")).build().unwrap());
    let id = e.create_instance(&WorkflowTypeId::new("w"), BTreeMap::new(), "s", "t").unwrap();
    e.run(id).unwrap();
    let kinds: Vec<_> = e.history().iter().map(|h| &h.kind).collect();
    assert!(kinds.contains(&&HistoryKind::InstanceCreated));
    assert!(kinds.contains(&&HistoryKind::StepCompleted(StepId::new("a"))));
    assert!(kinds.contains(&&HistoryKind::InstanceCompleted));
}

#[test]
fn deliver_to_targets_one_instance_among_waiters() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("recv").step(StepDef::receive("wait", "in", "po")).build().unwrap(),
    );
    let first = e.create_instance(&WorkflowTypeId::new("recv"), BTreeMap::new(), "s", "t").unwrap();
    let second =
        e.create_instance(&WorkflowTypeId::new("recv"), BTreeMap::new(), "s", "t").unwrap();
    e.run(first).unwrap();
    e.run(second).unwrap();
    // Delivery is directed: the SECOND instance completes.
    e.deliver_to(second, &ChannelId::new("in"), sample_po("B", 1)).unwrap();
    assert_eq!(e.status(second).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.status(first).unwrap(), InstanceStatus::Running);
}

#[test]
fn deliver_to_queues_until_the_receive_executes() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("slow")
            .step(StepDef::timer("pause", 50))
            .step(StepDef::receive("wait", "in", "po"))
            .edge("pause", "wait")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("slow"), BTreeMap::new(), "s", "t").unwrap();
    e.run(id).unwrap();
    // The receive step is not reached yet; the directed doc must queue.
    e.deliver_to(id, &ChannelId::new("in"), sample_po("A", 1)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Running);
    e.advance_time(SimTime::from_millis(50)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed);
}

#[test]
fn deliver_to_rejects_missing_or_finished_instances() {
    let mut e = engine();
    e.deploy(WorkflowBuilder::new("w").step(StepDef::noop("a")).build().unwrap());
    let id = e.create_instance(&WorkflowTypeId::new("w"), BTreeMap::new(), "s", "t").unwrap();
    e.run(id).unwrap();
    assert!(e.deliver_to(id, &ChannelId::new("in"), sample_po("A", 1)).is_err());
    assert!(e
        .deliver_to(crate::model::InstanceId::new(999), &ChannelId::new("in"), sample_po("A", 1))
        .is_err());
}

#[test]
fn transform_context_swaps_for_outbound_documents() {
    // A POA leaves the seller (normalized -> OAGIS, outbound on the
    // seller's binding) and arrives at the buyer (OAGIS -> normalized,
    // inbound on the buyer's binding). OAGIS carries no party names in
    // the ack, so both transforms must take them from context — which
    // requires the outbound/inbound swap to be direction-aware.
    let po = sample_po("77", 5);
    let poa = b2b_document::normalized::build_poa(
        &po,
        "accepted",
        b2b_document::Date::new(2001, 9, 18).unwrap(),
    )
    .unwrap();

    // Seller side: source = partner (buyer), target = enterprise (seller).
    let mut seller = engine();
    seller.set_transforms(b2b_transform::TransformRegistry::with_builtins());
    seller.deploy(
        WorkflowBuilder::new("down")
            .step(StepDef::transform("down", FormatId::OAGIS, "poa", "wire"))
            .build()
            .unwrap(),
    );
    let mut vars = BTreeMap::new();
    vars.insert("poa".to_string(), Variable::Document(poa.clone()));
    let sid = seller
        .create_instance(
            &WorkflowTypeId::new("down"),
            vars,
            "ACME Manufacturing",
            "Gadget Supply Co",
        )
        .unwrap();
    assert_eq!(seller.run(sid).unwrap(), InstanceStatus::Completed);
    let wire = match seller.variable(sid, "wire").unwrap() {
        Variable::Document(d) => d,
        other => panic!("{other:?}"),
    };
    assert_eq!(wire.format(), &FormatId::OAGIS);

    // Buyer side: source = partner (seller), target = enterprise (buyer).
    let mut buyer = engine();
    buyer.set_transforms(b2b_transform::TransformRegistry::with_builtins());
    buyer.deploy(
        WorkflowBuilder::new("up")
            .step(StepDef::transform("up", FormatId::NORMALIZED, "wire", "back"))
            .build()
            .unwrap(),
    );
    let mut vars = BTreeMap::new();
    vars.insert("wire".to_string(), Variable::Document(wire));
    let bid = buyer
        .create_instance(&WorkflowTypeId::new("up"), vars, "Gadget Supply Co", "ACME Manufacturing")
        .unwrap();
    assert_eq!(buyer.run(bid).unwrap(), InstanceStatus::Completed);
    match buyer.variable(bid, "back").unwrap() {
        Variable::Document(d) => assert_eq!(d.body(), poa.body()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn engine_recovers_from_a_database_snapshot() {
    // A blocked instance survives an engine "crash": snapshot the
    // database, rebuild a fresh engine, re-install the step
    // implementations, and the delivery completes the instance.
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("recover")
            .step(StepDef::receive("wait", "in", "po"))
            .step(StepDef::activity("finish", "finish"))
            .edge("wait", "finish")
            .build()
            .unwrap(),
    );
    e.register_activity(
        "finish",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("done", Value::Bool(true));
            Ok(())
        }),
    );
    let id = e.create_instance(&WorkflowTypeId::new("recover"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Running);
    let snapshot = e.snapshot_database().unwrap();
    drop(e);

    let mut revived = engine();
    revived.restore_database(&snapshot).unwrap();
    // Step implementations are code, not data: they must be re-installed.
    revived.register_activity(
        "finish",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("done", Value::Bool(true));
            Ok(())
        }),
    );
    assert_eq!(revived.status(id).unwrap(), InstanceStatus::Running);
    revived.deliver_to(id, &ChannelId::new("in"), sample_po("9", 10)).unwrap();
    assert_eq!(revived.status(id).unwrap(), InstanceStatus::Completed);
    assert_eq!(revived.variable(id, "done").unwrap(), Variable::Value(Value::Bool(true)));
}

/// Asserts that exporting `id` is refused as a federation error and
/// leaves the instance running in place.
fn assert_export_refused(e: &mut Engine, id: InstanceId, why: &str) {
    match e.export_instance(id) {
        Err(WfError::Federation { reason }) => assert!(reason.contains(why), "{reason}"),
        other => panic!("export must be refused: {other:?}"),
    }
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Running, "the instance stays in place");
}

#[test]
fn export_refuses_an_instance_with_queued_documents() {
    // A snapshot carries persisted state only: a document queued before
    // its receive runs would stay on this engine forever.
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("two")
            .step(StepDef::receive("first", "a", "x"))
            .step(StepDef::receive("second", "b", "y"))
            .edge("first", "second")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("two"), BTreeMap::new(), "s", "t").unwrap();
    e.run(id).unwrap();
    e.deliver_to(id, &ChannelId::new("b"), sample_po("early", 1)).unwrap();
    assert_export_refused(&mut e, id, "queued");
    e.deliver_to(id, &ChannelId::new("a"), sample_po("A", 1)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed, "the queued document is consumed");
}

#[test]
fn export_refuses_an_instance_waiting_on_a_timer() {
    // Timers are engine state: an exported instance's timer never fires.
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("timer")
            .step(StepDef::timer("pause", 100))
            .step(StepDef::noop("done"))
            .edge("pause", "done")
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("timer"), BTreeMap::new(), "s", "t").unwrap();
    e.run(id).unwrap();
    assert_export_refused(&mut e, id, "pause");
    e.advance_time(SimTime::from_millis(100)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed);
}

#[test]
fn export_refuses_a_parent_whose_local_subworkflow_waits() {
    // The child stays on this engine and would finish into a parent that
    // is no longer here.
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("child").step(StepDef::receive("wait", "in", "po")).build().unwrap(),
    );
    e.deploy(
        WorkflowBuilder::new("parent")
            .step(StepDef::subworkflow("call", &WorkflowTypeId::new("child")))
            .build()
            .unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("parent"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Running);
    assert_export_refused(&mut e, id, "call");
    let child = InstanceId::new(id.value() + 1);
    assert_export_refused(&mut e, child, "subworkflow");
    e.deliver_to(child, &ChannelId::new("in"), sample_po("1", 1)).unwrap();
    assert_eq!(e.status(id).unwrap(), InstanceStatus::Completed);
}

#[test]
fn export_refuses_a_scheduled_instance_and_allows_an_idle_receive() {
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("recv").step(StepDef::receive("wait", "in", "po")).build().unwrap(),
    );
    let id = e.create_instance(&WorkflowTypeId::new("recv"), BTreeMap::new(), "s", "t").unwrap();
    e.schedule(id);
    assert_export_refused(&mut e, id, "scheduled");
    assert_eq!(e.run(id).unwrap(), InstanceStatus::Running);
    // Waiting at a receive with nothing queued: everything it depends on
    // is in its record.
    let snapshot = e.export_instance(id).unwrap();
    assert!(e.status(id).is_err(), "the instance left");
    let back = e.import_instance(&snapshot).unwrap();
    e.deliver_to(back, &ChannelId::new("in"), sample_po("1", 1)).unwrap();
    assert_eq!(e.status(back).unwrap(), InstanceStatus::Completed);
}

#[test]
fn restore_rejects_garbage() {
    let mut e = engine();
    assert!(e.restore_database("not json").is_err());
}

#[test]
fn drain_outbox_is_canonically_sorted() {
    // Emission order across instances depends on execution order — the
    // drained outbox must not: it comes out sorted by (instance, channel),
    // with per-instance emission order preserved within a channel.
    let mut e = engine();
    e.deploy(
        WorkflowBuilder::new("multi-send")
            .step(StepDef::send("z", "zeta", "po"))
            .step(StepDef::send("a1", "alpha", "po"))
            .step(StepDef::send("a2", "alpha", "po"))
            .edge("z", "a1")
            .edge("a1", "a2")
            .build()
            .unwrap(),
    );
    let first =
        e.create_instance(&WorkflowTypeId::new("multi-send"), doc_vars(10), "s", "t").unwrap();
    let second =
        e.create_instance(&WorkflowTypeId::new("multi-send"), doc_vars(20), "s", "t").unwrap();
    // Run in reverse creation order so raw emission order is unsorted.
    e.run(second).unwrap();
    e.run(first).unwrap();
    let out = e.drain_outbox();
    let keys: Vec<(InstanceId, ChannelId)> = out.iter().map(|(i, c, _)| (*i, c.clone())).collect();
    assert_eq!(
        keys,
        vec![
            (first, ChannelId::new("alpha")),
            (first, ChannelId::new("alpha")),
            (first, ChannelId::new("zeta")),
            (second, ChannelId::new("alpha")),
            (second, ChannelId::new("alpha")),
            (second, ChannelId::new("zeta")),
        ],
    );
    // Within (instance, alpha) the two sends kept their step order: the
    // stable sort never reorders equal keys.
    let amounts: Vec<_> = out
        .iter()
        .map(|(_, _, d)| d.get("header.po_number").unwrap().as_text("po").unwrap().to_string())
        .collect();
    assert_eq!(amounts.len(), 6);
}

#[test]
fn replacing_a_type_leaves_running_instances_on_their_version() {
    let v1 = || {
        WorkflowBuilder::new("flow")
            .step(StepDef::receive("wait", "in", "po"))
            .step(StepDef::noop("done"))
            .edge("wait", "done")
            .build()
            .unwrap()
    };
    let mut e = engine();
    e.deploy(v1());
    let old = e.create_instance(&WorkflowTypeId::new("flow"), BTreeMap::new(), "s", "t").unwrap();
    assert_eq!(e.run(old).unwrap(), InstanceStatus::Running);
    let v2 = v1()
        .with_added_step(
            StepDef::noop("audit"),
            vec![crate::model::Edge {
                from: StepId::new("done"),
                to: StepId::new("audit"),
                guard: None,
            }],
        )
        .unwrap();
    e.deploy(v2);
    let new = e.create_instance(&WorkflowTypeId::new("flow"), BTreeMap::new(), "s", "t").unwrap();
    e.run(new).unwrap();
    e.deliver_to(old, &ChannelId::new("in"), sample_po("A", 1)).unwrap();
    e.deliver_to(new, &ChannelId::new("in"), sample_po("B", 1)).unwrap();
    assert_eq!(e.status(old).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.status(new).unwrap(), InstanceStatus::Completed);
    let old_inst = e.db().get_instance(old).unwrap();
    assert_eq!(old_inst.type_version(), 1);
    assert_eq!(old_inst.step_state(&StepId::new("audit")), StepState::Pending, "no such step");
    let new_inst = e.db().get_instance(new).unwrap();
    assert_eq!(new_inst.type_version(), 2);
    assert_eq!(new_inst.step_state(&StepId::new("audit")), StepState::Completed);
}

mod wake_oracle {
    //! The single-pass directed wake against the rescan-from-the-start
    //! loop it replaced.

    use super::*;
    use proptest::prelude::*;

    const CHANNELS: [&str; 4] = ["c1", "c2", "c3", "never"];

    /// Three shapes with several receive steps each: a chain, a fork with
    /// two receives on one channel, and a chain that runs a step before
    /// its first receive. No type ever waits on `never`.
    fn engine_with_types() -> Engine {
        let mut e = engine();
        e.deploy(
            WorkflowBuilder::new("chain")
                .step(StepDef::receive("r1", "c1", "a"))
                .step(StepDef::receive("r2", "c2", "b"))
                .step(StepDef::send("s", "out", "b"))
                .step(StepDef::receive("r3", "c1", "c"))
                .edge("r1", "r2")
                .edge("r2", "s")
                .edge("s", "r3")
                .build()
                .unwrap(),
        );
        e.deploy(
            WorkflowBuilder::new("fork")
                .step(StepDef::noop("split"))
                .step(StepDef::receive("left", "c2", "l"))
                .step(StepDef::receive("right", "c1", "r"))
                .step(StepDef::receive("again", "c2", "g"))
                .step(StepDef::send("s", "out", "g"))
                .edge("split", "left")
                .edge("split", "right")
                .edge("left", "again")
                .edge("right", "again")
                .edge("again", "s")
                .build()
                .unwrap(),
        );
        e.deploy(
            WorkflowBuilder::new("late")
                .step(StepDef::noop("first"))
                .step(StepDef::receive("r3", "c3", "x"))
                .step(StepDef::receive("r1", "c1", "y"))
                .edge("first", "r3")
                .edge("r3", "r1")
                .build()
                .unwrap(),
        );
        e
    }

    /// Per instance: its type, whether it already ran to its first
    /// receive, and the channels of the documents queued for it.
    type Plan = Vec<(usize, bool, Vec<usize>)>;

    fn build(plan: &Plan, docs: &[Arc<b2b_document::Document>]) -> Engine {
        let mut e = engine_with_types();
        let mut next_doc = 0;
        for (shape, ran, queued) in plan {
            let name = ["chain", "fork", "late"][*shape];
            let id =
                e.create_instance(&WorkflowTypeId::new(name), BTreeMap::new(), "s", "t").unwrap();
            e.schedule(id);
            if *ran {
                e.with_ctx(exec::drain_runnable).unwrap();
            }
            for &channel in queued {
                let doc = Arc::clone(&docs[next_doc]);
                next_doc += 1;
                e.enqueue_to(id, &ChannelId::new(CHANNELS[channel]), doc).unwrap();
            }
        }
        e
    }

    /// Everything a settle can change, rendered comparably.
    fn observe(e: &mut Engine) -> String {
        let queues: Vec<(InstanceId, String, usize)> = e
            .vol
            .directed_queues
            .iter()
            .flat_map(|(id, qs)| qs.iter().map(move |(c, q)| (*id, c.to_string(), q.len())))
            .collect();
        let outbox: Vec<(InstanceId, String)> =
            e.drain_outbox().into_iter().map(|(i, c, d)| (i, format!("{c}:{}", d.id()))).collect();
        format!(
            "{:?}\n{:?}\n{queues:?}\n{outbox:?}\n{}",
            e.history(),
            e.stats(),
            e.snapshot_database().unwrap()
        )
    }

    fn plans() -> impl Strategy<Value = Plan> {
        proptest::collection::vec(
            (0usize..3, any::<bool>(), proptest::collection::vec(0usize..4, 0..6)),
            1..10,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn single_pass_wake_matches_the_rescanning_settle(plan in plans()) {
            let docs: Vec<Arc<b2b_document::Document>> = (0..plan.iter().map(|p| p.2.len()).sum())
                .map(|i| Arc::new(sample_po(&format!("D{i}"), 1)))
                .collect();
            let mut fast = build(&plan, &docs);
            let mut oracle = build(&plan, &docs);
            fast.with_ctx(exec::settle_slice).unwrap();
            oracle.with_ctx(exec::settle_slice_rescanning).unwrap();
            prop_assert_eq!(observe(&mut fast), observe(&mut oracle));
        }
    }
}
