//! Pins of the workflow engine's observable behaviour and serialized
//! shape, recorded before instances moved to the dense, program-indexed
//! layout.
//!
//! * The checked-in fixtures are a mid-flight `snapshot_database()` and
//!   two `export_instance()` snapshots (plain and carry-type) written by
//!   the string-keyed instance layout. The engine must restore or import
//!   them and write them back byte for byte.
//! * The digest covers everything the two-enterprise PO scenario lets an
//!   observer see on both engines: the audit history rendered as
//!   (time, instance, event, step), the WFMS and integration counters,
//!   and the session states, at three fault mixes and shards 1 and 4.

use semantic_b2b::document::normalized::sample_po;
use semantic_b2b::document::Value;
use semantic_b2b::integration::scenario::{ScenarioProtocol, TwoEnterpriseScenario};
use semantic_b2b::integration::IntegrationEngine;
use semantic_b2b::network::FaultConfig;
use semantic_b2b::rules::{BusinessRule, RuleFunction};
use semantic_b2b::wfms::{
    ActivityContext, ChannelId, Engine, EngineId, HistoryKind, InstanceId, InstanceStatus, StepDef,
    Variable, WorkflowBuilder, WorkflowType, WorkflowTypeId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Serialized-shape fixtures.

const SNAPSHOT: &str = include_str!("fixtures/pre_dense_snapshot.json");
const EXPORT: &str = include_str!("fixtures/pre_dense_export.json");
const EXPORT_CARRIED: &str = include_str!("fixtures/pre_dense_export_carried.json");

/// receive(in) → rule check → approve | note → forward → receive(ack) → done
fn order_type() -> WorkflowType {
    WorkflowBuilder::new("pin-order")
        .step(StepDef::receive("recv-po", "in", "po"))
        .step(StepDef::rule_check("check", "needs-approval", "po", "needs"))
        .step(StepDef::activity("approve", "approve"))
        .step(StepDef::noop("note"))
        .step(StepDef::noop("forward"))
        .step(StepDef::receive("recv-ack", "ack", "ack"))
        .step(StepDef::noop("done"))
        .edge("recv-po", "check")
        .guarded_edge("check", "approve", "needs", "document.value == true")
        .guarded_edge("check", "note", "needs", "document.value == false")
        .edge("approve", "forward")
        .edge("note", "forward")
        .edge("forward", "recv-ack")
        .edge("recv-ack", "done")
        .build()
        .unwrap()
}

fn tally_type() -> WorkflowType {
    WorkflowBuilder::new("pin-tally")
        .step(StepDef::activity("count", "count"))
        .step(StepDef::noop("end"))
        .edge("count", "end")
        .build()
        .unwrap()
}

/// An engine with the two pin types, their rule and activities.
fn pin_engine(carry: bool) -> Engine {
    let mut e = Engine::new(EngineId::new("pin"));
    e.set_carry_types(carry);
    let mut f = RuleFunction::new("needs-approval");
    f.add_rule(BusinessRule::parse("r1", "source == \"TP1\"", "document.amount >= 55000").unwrap());
    e.rules_mut().register(f);
    e.register_activity(
        "approve",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("approved", Value::Bool(true));
            Ok(())
        }),
    );
    e.register_activity(
        "count",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("count", Value::Int(3));
            Ok(())
        }),
    );
    e.deploy(order_type());
    e.deploy(tally_type());
    e
}

fn vars_with_note() -> BTreeMap<String, Variable> {
    let mut vars = BTreeMap::new();
    vars.insert("note".to_string(), Variable::Value(Value::text("rush")));
    vars
}

/// The mid-flight engine the fixtures were taken from:
/// 1. approved and waiting at `recv-ack` (document and value variables,
///    a skipped step, taken and dead edges),
/// 2. not approved and waiting at `recv-ack`,
/// 3. waiting at `recv-po` with a seeded value variable,
/// 4. failed (no rule applies to source `TP9`),
/// 5. a completed instance of the second type.
fn mid_flight_engine(carry: bool) -> (Engine, Vec<InstanceId>) {
    let mut e = pin_engine(carry);
    let order = WorkflowTypeId::new("pin-order");
    let mut ids = Vec::new();
    for (source, amount) in [("TP1", 60_000), ("TP1", 1_000)] {
        let id = e.create_instance(&order, BTreeMap::new(), source, "SAP").unwrap();
        e.run(id).unwrap();
        e.deliver_to(id, &ChannelId::new("in"), sample_po(&format!("P{amount}"), amount)).unwrap();
        ids.push(id);
    }
    let waiting = e.create_instance(&order, vars_with_note(), "TP1", "SAP").unwrap();
    e.run(waiting).unwrap();
    ids.push(waiting);
    let failed = e.create_instance(&order, BTreeMap::new(), "TP9", "SAP").unwrap();
    e.run(failed).unwrap();
    e.deliver_to(failed, &ChannelId::new("in"), sample_po("P9", 9)).unwrap();
    ids.push(failed);
    let tally =
        e.create_instance(&WorkflowTypeId::new("pin-tally"), BTreeMap::new(), "HQ", "HQ").unwrap();
    e.run(tally).unwrap();
    ids.push(tally);
    (e, ids)
}

#[test]
fn mid_flight_engine_has_the_fixture_states() {
    let (e, ids) = mid_flight_engine(false);
    let states: Vec<InstanceStatus> = ids.iter().map(|id| e.status(*id).unwrap()).collect();
    assert_eq!(
        states[..3],
        [InstanceStatus::Running, InstanceStatus::Running, InstanceStatus::Running]
    );
    assert!(matches!(&states[3], InstanceStatus::Failed(r) if r.contains("no rule")));
    assert_eq!(states[4], InstanceStatus::Completed);
}

#[test]
fn pre_dense_snapshot_restores_byte_identically() {
    let mut e = pin_engine(false);
    e.restore_database(SNAPSHOT).unwrap();
    assert_eq!(e.snapshot_database().unwrap(), SNAPSHOT, "snapshot bytes changed on restore");
    // The restored waiters resume: the approved order completes on its ack.
    let first = InstanceId::new(1);
    e.deliver(&ChannelId::new("ack"), sample_po("ack", 1)).unwrap();
    assert_eq!(e.status(first).unwrap(), InstanceStatus::Completed);
    assert_eq!(e.variable(first, "approved").unwrap(), Variable::Value(Value::Bool(true)));
}

#[test]
fn pre_dense_export_imports_byte_identically() {
    // The type travels separately: the importing engine must hold it.
    let mut e = pin_engine(false);
    let id = e.import_instance(EXPORT).unwrap();
    assert_eq!(id, InstanceId::new(1), "a fresh engine allocates the exported id again");
    assert_eq!(e.export_instance(id).unwrap(), EXPORT, "export bytes changed on import");

    let mut bare = Engine::new(EngineId::new("bare"));
    assert!(bare.import_instance(EXPORT).is_err(), "no type, no carried copy: rejected");
}

#[test]
fn pre_dense_carried_export_imports_without_the_type() {
    let mut bare = Engine::new(EngineId::new("bare"));
    let id = bare.import_instance(EXPORT_CARRIED).unwrap();
    assert_eq!(bare.export_instance(id).unwrap(), EXPORT_CARRIED);
    assert!(EXPORT_CARRIED.len() > EXPORT.len(), "the carried copy travels with the instance");
}

// ---------------------------------------------------------------------
// Behaviour digest of the two-enterprise PO scenario.

/// FNV-1a over a rendering of everything observable on one engine.
fn engine_digest(hash: &mut u64, engine: &IntegrationEngine) {
    let mut feed = |text: &str| {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for event in engine.wf().history() {
        let (name, detail) = match &event.kind {
            HistoryKind::InstanceCreated => ("created", String::new()),
            HistoryKind::InstanceCompleted => ("completed", String::new()),
            HistoryKind::InstanceFailed(reason) => ("failed", reason.clone()),
            HistoryKind::StepCompleted(step) => ("step-completed", step.to_string()),
            HistoryKind::StepSkipped(step) => ("step-skipped", step.to_string()),
            HistoryKind::StepWaiting(step) => ("step-waiting", step.to_string()),
            HistoryKind::Delivered(step) => ("delivered", step.to_string()),
            HistoryKind::MigratedIn(from) => ("migrated-in", from.clone()),
            HistoryKind::MigratedOut(to) => ("migrated-out", to.clone()),
        };
        feed(&format!("{} {} {name} {detail}", event.at.as_millis(), event.instance));
    }
    feed(&format!("{:?}", engine.wf().stats()));
    feed(&format!("{:?}", engine.stats()));
    for correlation in engine.correlations() {
        feed(&format!("{correlation} {:?}", engine.session_state(&correlation)));
    }
}

/// Runs eight POs (three above the 55,000 approval threshold) through
/// buyer and seller; returns the digest of both engines.
fn po_scenario_digest(faults: FaultConfig, seed: u64, shards: usize) -> u64 {
    let mut s = TwoEnterpriseScenario::with_protocol(ScenarioProtocol::Edi, faults, seed).unwrap();
    for engine in [&mut s.buyer, &mut s.seller] {
        engine.set_shards(shards);
    }
    for i in 0..8 {
        let amount = if i % 3 == 0 { 60_000 + i } else { 1_000 + 7 * i };
        let po = s.po(&format!("pin-{i}"), amount).unwrap();
        s.submit(po).unwrap();
    }
    s.run_until_quiescent(240_000).unwrap();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    engine_digest(&mut hash, &s.buyer);
    engine_digest(&mut hash, &s.seller);
    hash
}

#[test]
fn po_scenario_digest_matches_the_pre_dense_engine() {
    let mixes = [
        ("reliable", FaultConfig::reliable(), 0xf2ab_1809_d984_64cdu64),
        (
            "lossy",
            FaultConfig { loss: 0.2, duplicate: 0.1, ..FaultConfig::reliable() },
            0x3e9d_c202_8656_2a78,
        ),
        (
            "corrupting",
            FaultConfig {
                loss: 0.1,
                duplicate: 0.1,
                corrupt: 0.15,
                min_delay_ms: 1,
                max_delay_ms: 40,
            },
            0x4ae7_2f18_1c7d_3afd,
        ),
    ];
    for (name, faults, pinned) in mixes {
        for shards in [1, 4] {
            let digest = po_scenario_digest(faults.clone(), 20_010_917, shards);
            assert_eq!(
                format!("{digest:#018x}"),
                format!("{pinned:#018x}"),
                "{name} at shards {shards}"
            );
        }
    }
}
