//! Baseline 1: distributed inter-organizational workflow (Section 2).
//!
//! The whole PO–POA round trip is ONE workflow type (Figure 2). To
//! execute it across two enterprises the instance migrates between their
//! engines (Figure 7(a)), and — because the engines must hold the type to
//! advance the instance — the *complete definition including both sides'
//! business rules* crosses the boundary (Figure 6). The exposure report
//! makes that leakage measurable (experiment E3).

use crate::error::Result;
use crate::metrics::ExposureReport;
use b2b_document::normalized::build_poa;
use b2b_document::{Date, FormatId, Value};
use b2b_wfms::{
    ActivityContext, ChannelId, Engine, EngineId, Federation, InstanceStatus, SharedArtifact,
    StepDef, Variable, WorkflowBuilder, WorkflowType, WorkflowTypeId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Buyer-side approval threshold of Figure 1.
pub const BUYER_THRESHOLD: i64 = 10_000;
/// Seller-side approval threshold of Figure 1.
pub const SELLER_THRESHOLD: i64 = 550_000;

/// The Figure 2 workflow type: the complete round trip as one definition,
/// with both organizations' approval rules inlined.
pub fn figure2_roundtrip_type() -> Result<WorkflowType> {
    Ok(WorkflowBuilder::new("distributed:po-roundtrip")
        // Buyer half.
        .step(StepDef::activity("extract-po", "extract-po"))
        .step(StepDef::activity("approve-po-buyer", "approve"))
        .step(StepDef::noop("buyer-approved"))
        .step(StepDef::transform("transform-po", FormatId::EDI_X12, "po", "po_wire"))
        .step(StepDef::send("send-po", "wire", "po_wire"))
        // Seller half.
        .step(StepDef::receive("receive-po", "wire", "po_wire_in"))
        .step(StepDef::transform(
            "transform-po-seller",
            FormatId::NORMALIZED,
            "po_wire_in",
            "po_seller",
        ))
        .step(StepDef::activity("approve-po-seller", "approve"))
        .step(StepDef::noop("seller-approved"))
        .step(StepDef::activity("store-po", "store-po"))
        .step(StepDef::activity("extract-poa", "extract-poa"))
        .step(StepDef::transform("transform-poa", FormatId::EDI_X12, "poa", "poa_wire"))
        .step(StepDef::send("send-poa", "wire-back", "poa_wire"))
        // Buyer half again.
        .step(StepDef::receive("receive-poa", "wire-back", "poa_wire_in"))
        .step(StepDef::transform(
            "transform-poa-buyer",
            FormatId::NORMALIZED,
            "poa_wire_in",
            "poa_buyer",
        ))
        .step(StepDef::activity("store-poa", "store-poa"))
        // Buyer approval branch (PO.amount > 10000, Figure 1 left).
        .guarded_edge(
            "extract-po",
            "approve-po-buyer",
            "po",
            &format!("document.amount > {BUYER_THRESHOLD}"),
        )
        .guarded_edge(
            "extract-po",
            "buyer-approved",
            "po",
            &format!("not (document.amount > {BUYER_THRESHOLD})"),
        )
        .edge("approve-po-buyer", "buyer-approved")
        .edge("buyer-approved", "transform-po")
        .edge("transform-po", "send-po")
        .edge("send-po", "receive-po")
        .edge("receive-po", "transform-po-seller")
        // Seller approval branch (PO.amount > 550000, Figure 1 right).
        .guarded_edge(
            "transform-po-seller",
            "approve-po-seller",
            "po_seller",
            &format!("document.amount > {SELLER_THRESHOLD}"),
        )
        .guarded_edge(
            "transform-po-seller",
            "seller-approved",
            "po_seller",
            &format!("not (document.amount > {SELLER_THRESHOLD})"),
        )
        .edge("approve-po-seller", "seller-approved")
        .edge("seller-approved", "store-po")
        .edge("store-po", "extract-poa")
        .edge("extract-poa", "transform-poa")
        .edge("transform-poa", "send-poa")
        .edge("send-poa", "receive-poa")
        .edge("receive-poa", "transform-poa-buyer")
        .edge("transform-poa-buyer", "store-poa")
        .build()?)
}

/// The Figure 3 redesign: the ERP-connection steps collected into
/// subworkflows, with the control-flow consequences the paper describes
/// (extra edges inside the buyer subworkflow).
pub fn figure3_types() -> Result<Vec<WorkflowType>> {
    let buyer_erp = WorkflowBuilder::new("distributed:buyer-erp")
        .step(StepDef::activity("extract-po", "extract-po"))
        .step(StepDef::activity("store-poa", "store-poa-noop"))
        // "the two elementary steps of the left subworkflow are now
        // connected through a control flow arc" — Section 2.1.
        .edge("extract-po", "store-poa")
        .build()?;
    let seller_erp = WorkflowBuilder::new("distributed:seller-erp")
        .step(StepDef::activity("store-po", "store-po"))
        .step(StepDef::activity("extract-poa", "extract-poa"))
        .edge("store-po", "extract-poa")
        .build()?;
    let main = WorkflowBuilder::new("distributed:po-roundtrip-sub")
        .step(StepDef::subworkflow("buyer-erp", &WorkflowTypeId::new("distributed:buyer-erp")))
        .step(StepDef::transform("transform-po", FormatId::EDI_X12, "po", "po_wire"))
        .step(StepDef::send("send-po", "wire", "po_wire"))
        .step(StepDef::receive("receive-po", "wire", "po_wire_in"))
        .step(StepDef::transform(
            "transform-po-seller",
            FormatId::NORMALIZED,
            "po_wire_in",
            "po_seller",
        ))
        .step(StepDef::subworkflow("seller-erp", &WorkflowTypeId::new("distributed:seller-erp")))
        .edge("buyer-erp", "transform-po")
        .edge("transform-po", "send-po")
        .edge("send-po", "receive-po")
        .edge("receive-po", "transform-po-seller")
        .edge("transform-po-seller", "seller-erp")
        .build()?;
    Ok(vec![buyer_erp, seller_erp, main])
}

/// Registers the baseline's activities on an engine.
pub fn register_distributed_activities(engine: &mut Engine) {
    engine.register_activity(
        "extract-po",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            // The PO was seeded as a variable; "extraction" marks it.
            ctx.document("po")?;
            ctx.set_value("extracted", Value::Bool(true));
            Ok(())
        }),
    );
    engine.register_activity(
        "approve",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("approved", Value::Bool(true));
            Ok(())
        }),
    );
    engine.register_activity(
        "store-po",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.document("po_seller")?;
            ctx.set_value("stored", Value::Bool(true));
            Ok(())
        }),
    );
    engine.register_activity(
        "extract-poa",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            let po = ctx.document("po_seller")?.clone();
            let poa = build_poa(&po, "accepted", Date::new(2001, 9, 18).expect("valid"))
                .map_err(|e| e.to_string())?;
            ctx.set_document("poa", poa);
            Ok(())
        }),
    );
    engine.register_activity(
        "store-poa",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.document("poa_buyer")?;
            ctx.set_value("poa_stored", Value::Bool(true));
            Ok(())
        }),
    );
    engine.register_activity(
        "store-poa-noop",
        Arc::new(|ctx: &mut ActivityContext<'_>| {
            ctx.set_value("poa_stored", Value::Bool(true));
            Ok(())
        }),
    );
}

/// Outcome of a distributed-baseline run.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// Whether the round trip completed.
    pub completed: bool,
    /// Engine-boundary exposure measured from the federation ledger.
    pub exposure: ExposureReport,
    /// Instances migrated.
    pub instances_migrated: u64,
    /// Types migrated.
    pub types_migrated: u64,
}

/// Runs the Figure 2 round trip across two engines via instance migration
/// (Figure 7(a)): buyer executes until the PO is on the wire, the instance
/// migrates to the seller (pulling the whole type with it), continues,
/// and migrates back for the POA leg.
pub fn run_distributed_roundtrip(amount_units: i64) -> Result<DistributedOutcome> {
    let buyer_id = EngineId::new("buyer-engine");
    let seller_id = EngineId::new("seller-engine");
    let mut fed = Federation::new();
    let mut buyer = Engine::new(buyer_id.clone());
    let mut seller = Engine::new(seller_id.clone());
    buyer.set_transforms(b2b_transform::TransformRegistry::with_builtins());
    seller.set_transforms(b2b_transform::TransformRegistry::with_builtins());
    register_distributed_activities(&mut buyer);
    register_distributed_activities(&mut seller);
    let wf = figure2_roundtrip_type()?;
    let type_id = wf.id().clone();
    buyer.deploy(wf);
    fed.add_engine(buyer);
    fed.add_engine(seller);

    // Start at the buyer.
    let po = b2b_document::normalized::sample_po(&format!("dist-{amount_units}"), amount_units);
    let mut vars = BTreeMap::new();
    vars.insert("po".to_string(), Variable::Document(po));
    let id = fed.engine_mut(&buyer_id)?.create_instance(&type_id, vars, "TP1", "GadgetSupply")?;
    fed.engine_mut(&buyer_id)?.run(id)?;

    // The instance is blocked at `receive-po`; the PO document is in the
    // buyer's outbox. Migrate instance (and, automatically, the type) to
    // the seller and deliver the wire document there.
    let outbox = fed.engine_mut(&buyer_id)?.drain_outbox();
    let wire_po = outbox
        .into_iter()
        .find(|(i, c, _)| *i == id && c == &ChannelId::new("wire"))
        .map(|(_, _, d)| d)
        .ok_or_else(|| crate::error::IntegrationError::Config("no PO on the wire".into()))?;
    let id_at_seller = fed.migrate_instance(&buyer_id, &seller_id, id)?;
    fed.engine_mut(&seller_id)?.deliver_to(id_at_seller, &ChannelId::new("wire"), wire_po)?;

    // Blocked at `receive-poa`; migrate back with the POA.
    let outbox = fed.engine_mut(&seller_id)?.drain_outbox();
    let wire_poa = outbox
        .into_iter()
        .find(|(i, c, _)| *i == id_at_seller && c == &ChannelId::new("wire-back"))
        .map(|(_, _, d)| d)
        .ok_or_else(|| crate::error::IntegrationError::Config("no POA on the wire".into()))?;
    let id_back = fed.migrate_instance(&seller_id, &buyer_id, id_at_seller)?;
    fed.engine_mut(&buyer_id)?.deliver_to(id_back, &ChannelId::new("wire-back"), wire_poa)?;

    let completed = fed.engine(&buyer_id)?.status(id_back)? == InstanceStatus::Completed;
    Ok(DistributedOutcome {
        completed,
        exposure: exposure_from_ledger(&fed, &buyer_id, &seller_id)?,
        instances_migrated: fed.stats().instances_migrated,
        types_migrated: fed.stats().types_migrated,
    })
}

/// Derives the exposure report: what the *seller* learned about the buyer
/// through the federation's transfers (and vice versa — symmetric here).
pub fn exposure_from_ledger(
    fed: &Federation,
    _buyer: &EngineId,
    seller: &EngineId,
) -> Result<ExposureReport> {
    let mut report = ExposureReport::default();
    for artifact in fed.ledger() {
        match artifact {
            SharedArtifact::TypeCopied { to, workflow, .. } if to == seller => {
                report.workflow_types_visible += 1;
                // The receiver can read every guard in the copied type —
                // including the *other* side's business rules.
                let wf = fed.engine(seller)?.db().get_type(workflow)?;
                report.rule_nodes_visible += wf
                    .edges()
                    .iter()
                    .filter_map(|e| e.guard.as_ref())
                    .map(|g| g.node_count())
                    .sum::<usize>();
            }
            SharedArtifact::InstanceMoved { .. } => report.instance_states_visible += 1,
            SharedArtifact::InterfaceShared { .. } => report.interfaces_visible += 1,
            SharedArtifact::TypeCopied { .. } => {}
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_type_builds_and_runs_locally() {
        // E1: on a single engine the whole round trip executes.
        let mut engine = Engine::new(EngineId::new("solo"));
        engine.set_transforms(b2b_transform::TransformRegistry::with_builtins());
        register_distributed_activities(&mut engine);
        let wf = figure2_roundtrip_type().unwrap();
        let type_id = wf.id().clone();
        engine.deploy(wf);
        let po = b2b_document::normalized::sample_po("local", 12_000);
        let mut vars = BTreeMap::new();
        vars.insert("po".to_string(), Variable::Document(po));
        let id = engine.create_instance(&type_id, vars, "TP1", "GadgetSupply").unwrap();
        engine.run(id).unwrap();
        // Blocked at receive-po; loop the wire back locally.
        for (channel_out, channel_in) in [("wire", "wire"), ("wire-back", "wire-back")] {
            let doc = engine
                .drain_outbox()
                .into_iter()
                .find(|(_, c, _)| c.as_str() == channel_out)
                .map(|(_, _, d)| d)
                .expect("wire document present");
            engine.deliver_to(id, &ChannelId::new(channel_in), doc).unwrap();
        }
        assert_eq!(engine.status(id).unwrap(), InstanceStatus::Completed);
        assert_eq!(engine.variable(id, "poa_stored").unwrap(), Variable::Value(Value::Bool(true)));
    }

    #[test]
    fn buyer_approval_branch_follows_figure1_thresholds() {
        let mut engine = Engine::new(EngineId::new("solo"));
        engine.set_transforms(b2b_transform::TransformRegistry::with_builtins());
        register_distributed_activities(&mut engine);
        let wf = figure2_roundtrip_type().unwrap();
        let type_id = wf.id().clone();
        engine.deploy(wf);
        let po = b2b_document::normalized::sample_po("small", 5_000);
        let mut vars = BTreeMap::new();
        vars.insert("po".to_string(), Variable::Document(po));
        let id = engine.create_instance(&type_id, vars, "TP1", "GadgetSupply").unwrap();
        engine.run(id).unwrap();
        // 5000 <= 10000: the buyer approval step must have been skipped.
        assert!(engine.variable(id, "approved").is_err());
    }

    #[test]
    fn figure3_subworkflow_variant_completes() {
        let mut engine = Engine::new(EngineId::new("solo"));
        engine.set_transforms(b2b_transform::TransformRegistry::with_builtins());
        register_distributed_activities(&mut engine);
        let types = figure3_types().unwrap();
        let main_id = types[2].id().clone();
        for wf in types {
            engine.deploy(wf);
        }
        let po = b2b_document::normalized::sample_po("sub", 12_000);
        let mut vars = BTreeMap::new();
        vars.insert("po".to_string(), Variable::Document(po));
        let id = engine.create_instance(&main_id, vars, "TP1", "GadgetSupply").unwrap();
        engine.run(id).unwrap();
        let doc = engine
            .drain_outbox()
            .into_iter()
            .find(|(_, c, _)| c.as_str() == "wire")
            .map(|(_, _, d)| d)
            .expect("PO on the wire");
        engine.deliver_to(id, &ChannelId::new("wire"), doc).unwrap();
        assert_eq!(engine.status(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn migration_run_completes_and_exposes_the_type() {
        // E2 + E3: the round trip works via migration, but the seller now
        // holds the buyer's full definition including its approval rule.
        let outcome = run_distributed_roundtrip(12_000).unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.instances_migrated, 2, "there and back");
        assert_eq!(outcome.types_migrated, 1, "type pulled over once");
        assert_eq!(outcome.exposure.workflow_types_visible, 1);
        assert!(
            outcome.exposure.rule_nodes_visible > 0,
            "the buyer's `amount > 10000` rule is readable at the seller"
        );
        assert!(outcome.exposure.instance_states_visible >= 2);
        assert!(outcome.exposure.exposure_score() > 100);
    }
}
