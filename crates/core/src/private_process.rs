//! Private processes: the enterprise-internal business logic
//! (Section 4.4, Figure 13).
//!
//! Private processes operate **only** on the normalized format and carry
//! **no** trading-partner specifics: approval is a generic rule-check step
//! bound to the externalized `check-need-for-approval` function. Adding a
//! partner, protocol, or back end leaves these definitions bit-identical —
//! the change experiments verify that via `definition_hash`.

use crate::channels;
use crate::error::Result;
use b2b_rules::approval::CHECK_NEED_FOR_APPROVAL;
use b2b_wfms::{Activity, ActivityContext, StepDef, WorkflowBuilder, WorkflowType, WorkflowTypeId};
use std::sync::{Arc, LazyLock};

/// Activity name of the approval step.
pub const APPROVE_ACTIVITY: &str = "approve-po";
/// Activity name of the audit step (used by the change experiment).
pub const AUDIT_ACTIVITY: &str = "audit-poa";
/// Activity name of the quote-construction step (RFQ flow, Section 2.3).
pub const MAKE_QUOTE_ACTIVITY: &str = "make-quote";
/// Activity name of the buyer-side quote-recording step.
pub const RECORD_QUOTE_ACTIVITY: &str = "record-quote";
/// Rule function pricing inbound RFQs (returns a money value).
pub const QUOTE_PRICE_RULE: &str = "quote-price";

/// Type id of the responder (seller-side) private process.
pub fn responder_private_id() -> &'static WorkflowTypeId {
    static ID: LazyLock<WorkflowTypeId> =
        LazyLock::new(|| WorkflowTypeId::new("private:order-processing"));
    &ID
}

/// Type id of the initiator (buyer-side) private process.
pub fn initiator_private_id() -> &'static WorkflowTypeId {
    static ID: LazyLock<WorkflowTypeId> =
        LazyLock::new(|| WorkflowTypeId::new("private:po-submission"));
    &ID
}

/// Type id of the responder private process for RFQs (Section 2.3's
/// quote example).
pub fn quote_generation_id() -> &'static WorkflowTypeId {
    static ID: LazyLock<WorkflowTypeId> =
        LazyLock::new(|| WorkflowTypeId::new("private:quote-generation"));
    &ID
}

/// Type id of the initiator private process for RFQs.
pub fn rfq_submission_id() -> &'static WorkflowTypeId {
    static ID: LazyLock<WorkflowTypeId> =
        LazyLock::new(|| WorkflowTypeId::new("private:rfq-submission"));
    &ID
}

/// Builds the seller-side private process of Figure 13/14:
///
/// ```text
/// receive(in) → check-need-for-approval ─true→ approve ─┐
///                         └────────false───────────────┴→ forward
/// forward → send(to-backend) → receive(from-backend) → send(out)
/// ```
pub fn responder_private_process() -> Result<WorkflowType> {
    Ok(WorkflowBuilder::new(responder_private_id().as_str())
        .step(StepDef::receive("receive-po", channels::private_in().as_str(), "po"))
        .step(StepDef::rule_check(
            "check-need-for-approval",
            CHECK_NEED_FOR_APPROVAL,
            "po",
            "needs",
        ))
        .step(StepDef::activity("approve-po", APPROVE_ACTIVITY))
        .step(StepDef::noop("forward"))
        .step(StepDef::send("store-po", channels::to_backend().as_str(), "po"))
        .step(StepDef::receive("extract-poa", channels::from_backend().as_str(), "poa"))
        .step(StepDef::send("send-poa", channels::private_out().as_str(), "poa"))
        .edge("receive-po", "check-need-for-approval")
        .guarded_edge("check-need-for-approval", "approve-po", "needs", "document.value == true")
        .guarded_edge("check-need-for-approval", "forward", "needs", "document.value == false")
        .edge("approve-po", "forward")
        .edge("forward", "store-po")
        .edge("store-po", "extract-poa")
        .edge("extract-poa", "send-poa")
        .build()?)
}

/// Builds the buyer-side private process of Figure 1's left half: send the
/// PO out, wait for the POA, file it in the own ERP.
pub fn initiator_private_process() -> Result<WorkflowType> {
    Ok(WorkflowBuilder::new(initiator_private_id().as_str())
        .step(StepDef::send("send-po", channels::private_out().as_str(), "po"))
        .step(StepDef::receive("receive-poa", channels::private_in().as_str(), "poa"))
        .step(StepDef::send("store-poa", channels::to_backend().as_str(), "poa"))
        .edge("send-po", "receive-poa")
        .edge("receive-poa", "store-poa")
        .build()?)
}

/// Builds the seller-side private process answering RFQs: price via an
/// externalized rule (so "how the quotes will be selected" — the paper's
/// §2.3 competitive knowledge — never leaves the enterprise), build the
/// quote, send it out. No back-end interaction.
pub fn quote_generation_process() -> Result<WorkflowType> {
    Ok(WorkflowBuilder::new(quote_generation_id().as_str())
        .step(StepDef::receive("receive-rfq", channels::private_in().as_str(), "rfq"))
        .step(StepDef::rule_check("price-quote", QUOTE_PRICE_RULE, "rfq", "price"))
        .step(StepDef::activity("make-quote", MAKE_QUOTE_ACTIVITY))
        .step(StepDef::send("send-quote", channels::private_out().as_str(), "quote"))
        .edge("receive-rfq", "price-quote")
        .edge("price-quote", "make-quote")
        .edge("make-quote", "send-quote")
        .build()?)
}

/// Builds the buyer-side private process issuing an RFQ and recording the
/// returned quote. (The initiating document arrives in the `po` variable,
/// like every initiator process.)
pub fn rfq_submission_process() -> Result<WorkflowType> {
    Ok(WorkflowBuilder::new(rfq_submission_id().as_str())
        .step(StepDef::send("send-rfq", channels::private_out().as_str(), "po"))
        .step(StepDef::receive("receive-quote", channels::private_in().as_str(), "quote"))
        .step(StepDef::activity("record-quote", RECORD_QUOTE_ACTIVITY))
        .edge("send-rfq", "receive-quote")
        .edge("receive-quote", "record-quote")
        .build()?)
}

/// The quote-construction activity: combines the RFQ with the price the
/// rule function returned into a normalized quote. `seller` is the
/// enterprise name (captured at engine construction).
pub fn make_quote_activity(seller: &str) -> Arc<dyn Activity> {
    let seller = seller.to_string();
    Arc::new(move |ctx: &mut ActivityContext<'_>| {
        let rfq = ctx.document("rfq")?;
        let price = match ctx.vars.get("price") {
            Some(b2b_wfms::Variable::Value(b2b_document::Value::Money(m))) => *m,
            other => return Err(format!("quote-price rule must return money, got {other:?}")),
        };
        let rfq_number = rfq
            .get("header.rfq_number")
            .and_then(|v| v.as_text("rfq_number").map(str::to_string))
            .map_err(|e| e.to_string())?;
        let respond_by = rfq
            .get("header.respond_by")
            .and_then(|v| v.as_date("respond_by"))
            .map_err(|e| e.to_string())?;
        let body = b2b_document::record! {
            "header" => b2b_document::record! {
                "rfq_number" => b2b_document::Value::text(&rfq_number),
                "seller" => b2b_document::Value::text(&seller),
                "unit_price" => b2b_document::Value::Money(price),
                "valid_until" => b2b_document::Value::Date(respond_by.plus_days(30)),
            },
        };
        let quote =
            rfq.reply(b2b_document::DocKind::Quote, b2b_document::FormatId::NORMALIZED, body);
        ctx.set_document("quote", quote);
        Ok(())
    })
}

/// The buyer-side quote-recording activity.
pub fn record_quote_activity() -> Arc<dyn Activity> {
    Arc::new(|ctx: &mut ActivityContext<'_>| {
        let quote = ctx.document("quote")?;
        let price = quote
            .get("header.unit_price")
            .and_then(|v| v.as_money("unit_price"))
            .map_err(|e| e.to_string())?;
        ctx.set_value("recorded_price", b2b_document::Value::Money(price));
        Ok(())
    })
}

/// The approval activity: records the approval in the instance variables
/// (a real deployment would route to a human work list).
pub fn approve_activity() -> Arc<dyn Activity> {
    Arc::new(|ctx: &mut ActivityContext<'_>| {
        let po_number = ctx.document("po").and_then(|po| {
            let number = po.get("header.po_number").map_err(|e| e.to_string())?;
            number.as_text("po_number").map_err(|e| e.to_string())?;
            Ok(number.clone())
        })?;
        ctx.set_value("approved", po_number);
        Ok(())
    })
}

/// The audit activity added by the change-management experiment ("the
/// addition of an audit step in the outgoing processing of a POA … would
/// not affect any binding", Section 4.5).
pub fn audit_activity() -> Arc<dyn Activity> {
    Arc::new(|ctx: &mut ActivityContext<'_>| {
        ctx.set_value("audited", b2b_document::Value::Bool(true));
        Ok(())
    })
}

/// The responder process with an audit step inserted before `send-poa` —
/// the Section 4.5 local change.
pub fn responder_private_with_audit() -> Result<WorkflowType> {
    Ok(WorkflowBuilder::new(responder_private_id().as_str())
        .version(2)
        .step(StepDef::receive("receive-po", channels::private_in().as_str(), "po"))
        .step(StepDef::rule_check(
            "check-need-for-approval",
            CHECK_NEED_FOR_APPROVAL,
            "po",
            "needs",
        ))
        .step(StepDef::activity("approve-po", APPROVE_ACTIVITY))
        .step(StepDef::noop("forward"))
        .step(StepDef::send("store-po", channels::to_backend().as_str(), "po"))
        .step(StepDef::receive("extract-poa", channels::from_backend().as_str(), "poa"))
        .step(StepDef::activity("audit-poa", AUDIT_ACTIVITY))
        .step(StepDef::send("send-poa", channels::private_out().as_str(), "poa"))
        .edge("receive-po", "check-need-for-approval")
        .guarded_edge("check-need-for-approval", "approve-po", "needs", "document.value == true")
        .guarded_edge("check-need-for-approval", "forward", "needs", "document.value == false")
        .edge("approve-po", "forward")
        .edge("forward", "store-po")
        .edge("store-po", "extract-poa")
        .edge("extract-poa", "audit-poa")
        .edge("audit-poa", "send-poa")
        .build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_wfms::StepKind;

    #[test]
    fn responder_process_builds_with_a_single_rule_step() {
        let wf = responder_private_process().unwrap();
        assert_eq!(wf.steps().len(), 7);
        let rule_steps =
            wf.steps().iter().filter(|s| matches!(s.kind, StepKind::RuleCheck { .. })).count();
        assert_eq!(rule_steps, 1);
        // Crucially: NO transform steps and NO partner names in the type.
        assert!(!wf.steps().iter().any(|s| matches!(s.kind, StepKind::Transform { .. })));
        let json = serde_json::to_string(&wf).unwrap();
        for partner in ["TP1", "TP2", "edi", "rosettanet", "oagis"] {
            assert!(!json.contains(partner), "private process mentions `{partner}`");
        }
    }

    #[test]
    fn initiator_process_builds() {
        let wf = initiator_private_process().unwrap();
        assert_eq!(wf.steps().len(), 3);
    }

    #[test]
    fn audit_variant_differs_only_in_the_audit_step() {
        let plain = responder_private_process().unwrap();
        let audited = responder_private_with_audit().unwrap();
        assert_eq!(audited.steps().len(), plain.steps().len() + 1);
        assert_ne!(plain.definition_hash(), audited.definition_hash());
        assert_eq!(plain.id(), audited.id(), "same process, new version");
        assert_eq!(audited.version(), plain.version() + 1);
    }

    #[test]
    fn definition_hash_is_reproducible() {
        assert_eq!(
            responder_private_process().unwrap().definition_hash(),
            responder_private_process().unwrap().definition_hash()
        );
    }
}
