//! The paper's Section 2.3 example, end to end: a buyer broadcasts a
//! request for quotation to several sellers. Each seller prices the RFQ
//! with its own *externalized* rule — precisely the competitive knowledge
//! the paper says must never leave the enterprise — and the buyer
//! receives one quote per seller, routed by (correlation, partner).

use b2b_bench::run_rfq_broadcast;
use semantic_b2b::document::{Currency, FormatId, Money, Value};
use semantic_b2b::integration::SessionState;

#[test]
fn broadcast_rfq_collects_one_quote_per_seller() {
    // Two sellers with different (secret) pricing rules; the SAME
    // correlation goes to both.
    let run = run_rfq_broadcast(&[94_999, 89_950], |_| FormatId::ROSETTANET).unwrap();
    let (buyer, correlation) = (&run.buyer, &run.correlation);

    // Per-partner session states on the buyer.
    for seller in &run.sellers {
        assert_eq!(
            buyer.session_state_with(correlation, seller.name()),
            SessionState::Completed,
            "{}",
            seller.name()
        );
        assert_eq!(seller.session_state(correlation), SessionState::Completed);
    }
    // The aggregate completes only when every leg did.
    assert_eq!(buyer.session_state(correlation), SessionState::Completed);
    assert_eq!(buyer.stats().sessions_started, 2);
    assert_eq!(buyer.stats().wire_received, 2, "one quote per seller");
}

#[test]
fn quote_prices_come_from_the_sellers_private_rules() {
    // Single seller; verify the quoted price is exactly the rule's value.
    let run = run_rfq_broadcast(&[94_999], |_| FormatId::ROSETTANET).unwrap();
    let buyer = &run.buyer;
    assert_eq!(buyer.session_state(&run.correlation), SessionState::Completed);
    // The recorded price on the buyer's private process equals the
    // seller's secret rule value.
    let expected = Money::from_cents(94_999, Currency::Usd);
    assert!(buyer.correlations().contains(&run.correlation), "session exists");
    // Find the buyer's private instance variable through the WFMS.
    let found = buyer
        .wf()
        .db()
        .instance_ids()
        .into_iter()
        .filter_map(|id| buyer.wf().db().get_instance(id).ok())
        .filter_map(|inst| inst.vars.get("recorded_price").cloned())
        .next();
    match found {
        Some(semantic_b2b::wfms::Variable::Value(Value::Money(m))) => {
            assert_eq!(m, expected)
        }
        other => panic!("recorded price missing: {other:?}"),
    }
}

#[test]
fn mixed_format_broadcast_runs_are_identical() {
    // Six sellers, the odd ones on the compact binary codec: the binary
    // codec shares one broadcast with the text codec, and two runs agree
    // on every deterministic observable.
    let run = || {
        let prices: Vec<i64> = (0..6).map(|i| 80_000 + 100 * i).collect();
        let wire_format =
            |i: usize| if i % 2 == 1 { FormatId::BINARY } else { FormatId::ROSETTANET };
        let run = run_rfq_broadcast(&prices, wire_format).unwrap();
        assert_eq!(run.buyer.session_state(&run.correlation), SessionState::Completed);
        (
            run.buyer.stats().clone(),
            run.sellers.iter().map(|s| s.stats().clone()).collect::<Vec<_>>(),
            run.buyer.wf().stats().clone(),
            run.buyer.stage_profile().counters,
            *run.buyer.codec_cache_stats(),
            run.net.now(),
        )
    };
    assert_eq!(run(), run(), "two runs of the mixed-format broadcast diverged");
}
