//! Change management across crates (Sections 4.5/4.6): the locality
//! claims hold on *running* integration engines, not just on paper.

use semantic_b2b::document::Value;
use semantic_b2b::integration::baseline::cooperative::IntegrationConfig;
use semantic_b2b::integration::change::{advanced_impact, naive_impact, ChangeKind};
use semantic_b2b::integration::private_process::{
    responder_private_id, responder_private_with_audit,
};
use semantic_b2b::integration::scenario::TwoEnterpriseScenario;
use semantic_b2b::integration::SessionState;
use semantic_b2b::network::FaultConfig;
use semantic_b2b::rules::approval::{add_partner, CHECK_NEED_FOR_APPROVAL};
use semantic_b2b::wfms::engine::StepState;
use semantic_b2b::wfms::{StepId, Variable};

#[test]
fn adding_a_partner_at_runtime_touches_only_rules() {
    let mut s = TwoEnterpriseScenario::new(FaultConfig::reliable(), 21).unwrap();
    let hash_before = s.seller.responder_private_hash().unwrap();
    let types_before = s.seller.wf().db().type_count();

    let f = s.seller.rules_mut().function_mut(CHECK_NEED_FOR_APPROVAL).unwrap();
    add_partner(f, "SAP", "TP7", 30_000).unwrap();
    add_partner(f, "Oracle", "TP7", 30_000).unwrap();

    assert_eq!(s.seller.responder_private_hash().unwrap(), hash_before);
    assert_eq!(s.seller.wf().db().type_count(), types_before, "no type deployed or removed");

    // Traffic still flows.
    let c = s.submit(s.po("after-partner", 5_000).unwrap()).unwrap();
    s.run_until_quiescent(60_000).unwrap();
    assert_eq!(s.seller.session_state(&c), SessionState::Completed);
}

#[test]
fn replacing_the_private_process_does_not_disturb_other_layers() {
    let mut s = TwoEnterpriseScenario::new(FaultConfig::reliable(), 22).unwrap();
    // Record the hashes of every non-private type.
    let other_hashes: Vec<(String, u64)> = s
        .seller
        .wf()
        .db()
        .type_ids()
        .into_iter()
        .filter(|id| !id.as_str().starts_with("private:order-processing"))
        .map(|id| (id.to_string(), s.seller.wf().db().get_type(id).unwrap().definition_hash()))
        .collect();

    s.seller.replace_responder_private(responder_private_with_audit().unwrap()).unwrap();

    for (id, before) in &other_hashes {
        let id = semantic_b2b::wfms::WorkflowTypeId::new(id.clone());
        let after = s.seller.wf().db().get_type(&id).unwrap().definition_hash();
        assert_eq!(*before, after, "{id} must be untouched by a private-process change");
    }

    // The audited definition executes.
    let c = s.submit(s.po("audited", 70_000).unwrap()).unwrap();
    s.run_until_quiescent(60_000).unwrap();
    assert_eq!(s.seller.session_state(&c), SessionState::Completed);
}

/// Replacing the private process while a PO waits at `extract-poa`: the
/// in-flight session finishes on version 1 (the instance is pinned to the
/// program it was created with), and sessions started afterwards run
/// version 2 with its audit step.
#[test]
fn replacing_the_private_process_mid_flight_keeps_running_sessions_on_their_version() {
    let mut s = TwoEnterpriseScenario::new(FaultConfig::reliable(), 23).unwrap();
    let first = s.submit(s.po("in-flight", 70_000).unwrap()).unwrap();
    let waiting_private = |s: &TwoEnterpriseScenario| {
        let db = s.seller.wf().db();
        db.instance_ids().into_iter().find(|id| {
            let inst = db.get_instance(*id).unwrap();
            inst.type_id() == responder_private_id()
                && inst.step_state(&StepId::new("extract-poa")) == StepState::Waiting
        })
    };
    let mut in_flight = None;
    for _ in 0..1_000 {
        s.net.advance(10);
        s.buyer.pump(&mut s.net).unwrap();
        s.seller.pump(&mut s.net).unwrap();
        in_flight = waiting_private(&s);
        if in_flight.is_some() {
            break;
        }
    }
    let in_flight = in_flight.expect("the PO reaches extract-poa");

    s.seller.replace_responder_private(responder_private_with_audit().unwrap()).unwrap();
    let second = s.submit(s.po("after-change", 70_000).unwrap()).unwrap();
    s.run_until_quiescent(60_000).unwrap();

    assert_eq!(s.seller.session_state(&first), SessionState::Completed);
    assert_eq!(s.seller.session_state(&second), SessionState::Completed);
    let db = s.seller.wf().db();
    let old = db.get_instance(in_flight).unwrap();
    assert_eq!(old.type_version(), 1);
    assert!(old.var("audited").is_err(), "version 1 has no audit step");
    let new = db
        .instance_ids()
        .into_iter()
        .map(|id| db.get_instance(id).unwrap())
        .find(|inst| inst.type_id() == responder_private_id() && inst.type_version() == 2)
        .expect("the second PO runs version 2");
    assert_eq!(new.var("audited").unwrap(), &Variable::Value(Value::Bool(true)));
}

#[test]
fn impact_table_is_consistent_across_base_sizes() {
    for (p, t, b) in [(1, 1, 1), (2, 2, 2), (4, 8, 4)] {
        let base = IntegrationConfig::synthetic(p, t, b);
        for kind in ChangeKind::all() {
            let adv = advanced_impact(*kind, &base).unwrap();
            let naive = naive_impact(*kind, &base).unwrap();
            assert!(
                adv.elements_to_review <= naive.elements_to_review,
                "({p},{t},{b}) {}",
                kind.name()
            );
        }
    }
}

#[test]
fn advanced_partner_addition_cost_is_independent_of_protocol_count() {
    // The paper's scalability section: partner addition cost must not grow
    // with the number of protocols or the size of existing models.
    let small =
        advanced_impact(ChangeKind::AddPartner, &IntegrationConfig::synthetic(1, 1, 2)).unwrap();
    let large =
        advanced_impact(ChangeKind::AddPartner, &IntegrationConfig::synthetic(8, 32, 2)).unwrap();
    assert_eq!(small.touched_artifacts(), large.touched_artifacts());
    // While the naive cost explodes with the base size.
    let naive_small =
        naive_impact(ChangeKind::AddPartner, &IntegrationConfig::synthetic(1, 1, 2)).unwrap();
    let naive_large =
        naive_impact(ChangeKind::AddPartner, &IntegrationConfig::synthetic(8, 32, 2)).unwrap();
    assert!(naive_large.elements_to_review > 10 * naive_small.elements_to_review);
}
