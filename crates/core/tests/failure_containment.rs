//! Failure containment end to end: dead-letter quarantine, replay, the
//! PIP-0A1-style failure notification, and WaitReceipt-driven deadlines.

use b2b_backend::{AckPolicy, ApplicationProcess, SapSystem};
use b2b_core::deadletter::DeadLetterReason;
use b2b_core::scenario::{seller_rules, TwoEnterpriseScenario, BUYER, SELLER};
use b2b_core::{IntegrationEngine, SessionState, TradingPartner};
use b2b_network::{FaultConfig, ReliableConfig, SimNetwork};
use b2b_protocol::edi_roundtrip::edi_roundtrip_processes;
use b2b_protocol::pip3a4::{pip3a4_processes, pip3a4_with_explicit_acks};
use b2b_protocol::TradingPartnerAgreement;
use b2b_rules::approval::{check_need_for_approval, ApprovalThreshold};

/// On total loss the buyer's PO exhausts its retries: the session fails,
/// the undeliverable envelope is quarantined (not dropped), and a failure
/// notification is at least attempted.
#[test]
fn total_loss_dead_letters_the_po_and_fails_the_session() {
    let faults = FaultConfig { loss: 1.0, ..FaultConfig::reliable() };
    let mut s = TwoEnterpriseScenario::new(faults, 9).unwrap();
    let po = s.po("doomed", 1_000).unwrap();
    let correlation = s.submit(po).unwrap();
    s.run_until_quiescent(120_000).unwrap();

    assert!(matches!(s.buyer.session_state(&correlation), SessionState::Failed(_)));
    assert_eq!(s.buyer.stats().delivery_failures, 1);
    assert!(s.buyer.stats().dead_lettered >= 1);
    assert_eq!(s.buyer.stats().notifications_sent, 1, "notification was attempted");
    let letter = s.buyer.dead_letters().iter().next().unwrap();
    match &letter.reason {
        DeadLetterReason::DeliveryFailure { attempts } => {
            assert!(*attempts >= 1, "recorded real attempts, got {attempts}")
        }
        other => panic!("expected a delivery failure, got {other}"),
    }
    // The failure reason reports the actual attempt count, not a formula.
    let SessionState::Failed(reason) = s.buyer.session_state(&correlation) else { unreachable!() };
    assert!(reason.contains("attempts"), "reason: {reason}");
    // The seller never heard anything; no silent half-open session there.
    assert_eq!(s.seller.stats().sessions_started, 0);
}

/// A WaitReceipt timeout in the public process bounds wire delivery: when
/// the network is slower than the protocol allows, the sender's session
/// fails at the deadline and the counterparty is notified and terminates —
/// both sides reach a terminal state in bounded simulated time.
#[test]
fn receipt_timeout_notifies_the_counterparty_which_terminates() {
    // One-way latency (6 s) exceeds the PIP's 5 s receipt timeout, so no
    // acknowledgment can ever arrive in time; nothing is lost, only late.
    let faults =
        FaultConfig { min_delay_ms: 6_000, max_delay_ms: 6_200, ..FaultConfig::reliable() };
    let mut net = SimNetwork::new(faults, 17);
    // Generous retry budgets: only the protocol deadline may fail a send.
    let cfg = ReliableConfig::fixed(1_000, 50);
    let mut buyer = IntegrationEngine::with_reliable_config(BUYER, &mut net, cfg.clone()).unwrap();
    let mut seller = IntegrationEngine::with_reliable_config(SELLER, &mut net, cfg).unwrap();
    buyer.add_partner(TradingPartner::new(SELLER));
    seller.add_partner(TradingPartner::new(BUYER));
    buyer
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    seller
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    seller_rules(&mut seller).unwrap();
    // Asymmetric receipt handling: only the *buyer* models WaitReceipt, so
    // only its sends carry the 5 s deadline — the seller can then fail
    // solely through the buyer's notification, not on its own.
    let (init_def, _) = pip3a4_with_explicit_acks().unwrap();
    let (_, resp_def) = pip3a4_processes().unwrap();
    let agreement =
        TradingPartnerAgreement::between("pip3a4-acks", BUYER, SELLER, &init_def, &resp_def, true)
            .unwrap();
    buyer.install_agreement(agreement.clone(), &init_def, &resp_def).unwrap();
    seller.install_agreement(agreement, &init_def, &resp_def).unwrap();

    let po =
        TwoEnterpriseScenario::new(FaultConfig::reliable(), 1).unwrap().po("late", 1_000).unwrap();
    let correlation = buyer.initiate(&mut net, "pip3a4-acks", po).unwrap();
    for _ in 0..6_000 {
        net.advance(10);
        buyer.pump(&mut net).unwrap();
        seller.pump(&mut net).unwrap();
        // Stop as soon as both sides are terminal.
        if matches!(buyer.session_state(&correlation), SessionState::Failed(_))
            && matches!(seller.session_state(&correlation), SessionState::Failed(_))
        {
            break;
        }
    }

    let SessionState::Failed(buyer_reason) = buyer.session_state(&correlation) else {
        panic!("buyer session should have failed at the receipt deadline");
    };
    assert!(buyer_reason.contains("failed permanently"), "buyer: {buyer_reason}");
    assert_eq!(buyer.stats().notifications_sent, 1);
    let SessionState::Failed(seller_reason) = seller.session_state(&correlation) else {
        panic!("seller session should terminate on the buyer's notification");
    };
    assert!(
        seller_reason.contains("reported failure"),
        "seller terminated by notification, got: {seller_reason}"
    );
    assert_eq!(seller.stats().notifications_received, 1);
    assert!(
        net.now().as_millis() < 60_000,
        "terminal well within bounded sim-time, took {}",
        net.now()
    );
}

/// A document from an unknown partner is quarantined as unroutable; after
/// the operator registers the partner and agreement, replaying the dead
/// letter runs the interaction to completion.
#[test]
fn unroutable_document_is_quarantined_then_replayed_to_completion() {
    let mut net = SimNetwork::new(FaultConfig::reliable(), 21);
    let mut buyer = IntegrationEngine::new("TP9", &mut net).unwrap();
    let mut seller = IntegrationEngine::new(SELLER, &mut net).unwrap();
    // Only the buyer knows the seller — the seller has never heard of TP9.
    buyer.add_partner(TradingPartner::new(SELLER));
    buyer
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    seller
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    seller.rules_mut().register(
        check_need_for_approval(&[ApprovalThreshold::new("SAP", "TP9", 55_000)]).unwrap(),
    );
    let (init_def, resp_def) = edi_roundtrip_processes().unwrap();
    let agreement =
        TradingPartnerAgreement::between("edi-tp9", "TP9", SELLER, &init_def, &resp_def, true)
            .unwrap();
    buyer.install_agreement(agreement.clone(), &init_def, &resp_def).unwrap();

    let po = b2b_document::normalized::PoBuilder::new(
        "stray-1",
        "TP9",
        SELLER,
        b2b_document::Date::new(2001, 9, 17).unwrap(),
        b2b_document::Currency::Usd,
    )
    .line("LAPTOP-T23", 900, b2b_document::Money::from_units(1, b2b_document::Currency::Usd))
    .unwrap()
    .build()
    .unwrap();
    let correlation = buyer.initiate(&mut net, "edi-tp9", po).unwrap();
    for _ in 0..200 {
        net.advance(10);
        buyer.pump(&mut net).unwrap();
        seller.pump(&mut net).unwrap();
    }

    // The seller rejected the stranger's PO — but kept the evidence.
    assert_eq!(seller.stats().unroutable, 1);
    assert_eq!(seller.stats().sessions_started, 0);
    assert_eq!(seller.dead_letters().len(), 1);
    let letter = seller.dead_letters().iter().next().unwrap();
    assert!(matches!(letter.reason, DeadLetterReason::Unroutable(_)));
    let seq = letter.seq;

    // Operator fixes the configuration, then replays the quarantined PO.
    seller.add_partner(TradingPartner::new("TP9"));
    seller.install_agreement(agreement, &init_def, &resp_def).unwrap();
    seller.replay_dead_letter(&mut net, seq).unwrap();
    for _ in 0..500 {
        net.advance(10);
        buyer.pump(&mut net).unwrap();
        seller.pump(&mut net).unwrap();
    }

    assert!(seller.dead_letters().is_empty(), "the letter was consumed by replay");
    assert_eq!(seller.stats().replays, 1);
    assert_eq!(seller.session_state(&correlation), SessionState::Completed);
    assert_eq!(buyer.session_state(&correlation), SessionState::Completed);
    assert_eq!(
        seller.backend("SAP").unwrap().backend().order_status("stray-1").as_deref(),
        Some("accepted")
    );
}

/// Replaying a letter whose cause is *not* fixed re-quarantines the same
/// letter (same sequence number) with its replay count bumped.
#[test]
fn failed_replay_requeues_the_original_letter() {
    let mut net = SimNetwork::new(FaultConfig::reliable(), 3);
    let mut buyer = IntegrationEngine::new("TP9", &mut net).unwrap();
    let mut seller = IntegrationEngine::new(SELLER, &mut net).unwrap();
    buyer.add_partner(TradingPartner::new(SELLER));
    buyer
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    let (init_def, resp_def) = edi_roundtrip_processes().unwrap();
    let agreement =
        TradingPartnerAgreement::between("edi-tp9", "TP9", SELLER, &init_def, &resp_def, true)
            .unwrap();
    buyer.install_agreement(agreement, &init_def, &resp_def).unwrap();
    let po = b2b_document::normalized::PoBuilder::new(
        "stray-2",
        "TP9",
        SELLER,
        b2b_document::Date::new(2001, 9, 17).unwrap(),
        b2b_document::Currency::Usd,
    )
    .line("LAPTOP-T23", 100, b2b_document::Money::from_units(1, b2b_document::Currency::Usd))
    .unwrap()
    .build()
    .unwrap();
    buyer.initiate(&mut net, "edi-tp9", po).unwrap();
    for _ in 0..100 {
        net.advance(10);
        buyer.pump(&mut net).unwrap();
        seller.pump(&mut net).unwrap();
    }
    assert_eq!(seller.dead_letters().len(), 1);
    let seq = seller.dead_letters().iter().next().unwrap().seq;

    // Nothing was fixed; the replay must not lose the letter.
    seller.replay_dead_letter(&mut net, seq).unwrap();
    assert_eq!(seller.dead_letters().len(), 1);
    let letter = seller.dead_letters().get(seq).expect("same sequence number survives");
    assert_eq!(letter.replays, 1);
}

/// An *outbound* dead letter (delivery failure) replayed over a link that
/// is still dead relapses into a fresh letter that links back to the
/// original quarantine — and a chain of relapses always points at the
/// root letter, never the middle of the chain.
#[test]
fn relapsed_replay_links_back_to_the_original_letter() {
    let faults = FaultConfig { loss: 1.0, ..FaultConfig::reliable() };
    let mut s = TwoEnterpriseScenario::new(faults, 11).unwrap();
    let po = s.po("relapse", 1_000).unwrap();
    s.submit(po).unwrap();
    s.run_until_quiescent(120_000).unwrap();

    // The failed notification also dead-letters; this test follows the PO
    // (the scenario's EDI payload), so it selects letters by that format.
    let po_letters = |s: &TwoEnterpriseScenario| -> Vec<(u64, Option<u64>, u32)> {
        s.buyer
            .dead_letters()
            .iter()
            .filter(|l| l.envelope.format == b2b_document::FormatId::EDI_X12)
            .map(|l| (l.seq, l.origin_seq, l.replays))
            .collect()
    };
    let first = po_letters(&s);
    assert_eq!(first.len(), 1);
    let (origin_seq, origin_link, origin_replays) = first[0];
    assert_eq!(origin_link, None, "the first quarantine is its own origin");
    assert_eq!(origin_replays, 0);

    // The link is still black-holed: the replay exhausts its retries too.
    s.buyer.replay_dead_letter(&mut s.net, origin_seq).unwrap();
    s.run_until_quiescent(120_000).unwrap();
    let second = po_letters(&s);
    assert_eq!(second.len(), 1, "the relapse replaced the consumed original");
    let (relapse_seq, relapse_link, relapse_replays) = second[0];
    assert_ne!(relapse_seq, origin_seq, "the relapse is a fresh letter");
    assert_eq!(relapse_link, Some(origin_seq), "provenance links to the origin");
    assert_eq!(relapse_replays, 1);

    // A second relapse still points at the *root* quarantine.
    s.buyer.replay_dead_letter(&mut s.net, relapse_seq).unwrap();
    s.run_until_quiescent(120_000).unwrap();
    let third = po_letters(&s);
    assert_eq!(third.len(), 1);
    assert_eq!(third[0].1, Some(origin_seq), "chains collapse to the root letter");
    assert_eq!(third[0].2, 2, "two replays accumulated");
}

/// A dead-lettered failure notice replays as a notice: over the dead
/// link it relapses into a letter linked to the original, and once the
/// link heals the re-sent notice reaches the counterparty. Only replays
/// that actually went out count.
#[test]
fn dead_lettered_notice_replays_as_a_notice() {
    use b2b_network::{EndpointId, FaultSchedule, WireClass};

    let faults = FaultConfig { loss: 1.0, ..FaultConfig::reliable() };
    let mut s = TwoEnterpriseScenario::new(faults, 9).unwrap();
    let po = s.po("unheard", 1_000).unwrap();
    s.submit(po).unwrap();
    // Quiescence waits until every send, notices included, is
    // acknowledged or has failed.
    let drain = |s: &mut TwoEnterpriseScenario| {
        let elapsed = s.run_until_quiescent(600_000).unwrap();
        assert!(elapsed < 600_000, "the wire never drained");
    };
    drain(&mut s);
    let notice_letters = |s: &TwoEnterpriseScenario| -> Vec<(u64, Option<u64>, u32)> {
        s.buyer
            .dead_letters()
            .iter()
            .filter(|l| l.envelope.class == WireClass::Notify)
            .map(|l| (l.seq, l.origin_seq, l.replays))
            .collect()
    };
    let [(origin_seq, None, 0)] = notice_letters(&s)[..] else {
        panic!("one unlinked notice letter: {:?}", notice_letters(&s));
    };
    assert_eq!(s.buyer.stats().notifications_sent, 1);

    // Still black-holed: the re-sent notice fails and relapses.
    s.buyer.replay_dead_letter(&mut s.net, origin_seq).unwrap();
    assert_eq!(s.buyer.stats().replays, 1);
    assert_eq!(s.buyer.stats().notifications_sent, 2, "the notice went out again");
    drain(&mut s);
    let [(relapse_seq, Some(link), 1)] = notice_letters(&s)[..] else {
        panic!("one relapse letter: {:?}", notice_letters(&s));
    };
    assert_eq!(link, origin_seq, "the relapse links back to the original notice");

    // The link heals both ways: the replay is delivered and acknowledged.
    for name in [BUYER, SELLER] {
        let healthy = FaultSchedule::constant(FaultConfig::reliable());
        s.net.set_link_schedule(EndpointId::new(format!("ep:{name}")), healthy);
    }
    s.buyer.replay_dead_letter(&mut s.net, relapse_seq).unwrap();
    drain(&mut s);
    assert!(notice_letters(&s).is_empty(), "{:?}", notice_letters(&s));
    assert_eq!(s.seller.stats().notifications_received, 1);
    assert_eq!(s.buyer.stats().replays, 2);
}

/// Quiescence covers traffic that belongs to no session: at total loss
/// the buyer's failure notice is still retrying after the session has
/// failed, so `run_until_quiescent` returns only once the notice has
/// failed too and sits in the dead-letter queue.
#[test]
fn quiescence_waits_for_the_failure_notice_to_dead_letter() {
    use b2b_network::WireClass;

    let faults = FaultConfig { loss: 1.0, ..FaultConfig::reliable() };
    let mut s = TwoEnterpriseScenario::new(faults, 9).unwrap();
    let po = s.po("unheard", 1_000).unwrap();
    let correlation = s.submit(po).unwrap();
    s.run_until_quiescent(600_000).unwrap();

    assert!(matches!(s.buyer.session_state(&correlation), SessionState::Failed(_)));
    assert_eq!(s.buyer.wire_outstanding(), 0, "a buyer send is still retrying");
    assert_eq!(s.seller.wire_outstanding(), 0, "a seller send is still retrying");
    assert_eq!(s.buyer.stats().notifications_sent, 1);
    let notices =
        s.buyer.dead_letters().iter().filter(|l| l.envelope.class == WireClass::Notify).count();
    assert_eq!(notices, 1, "the failure notice was not dead-lettered");
}

/// Poison-message escalation: the same undecodable payload from one
/// partner dead-letters normally a bounded number of times, then the
/// partner is quarantined (breaker forced open) — even when the
/// failure-streak breaker is disabled by policy.
#[test]
fn repeated_poison_escalates_to_partner_quarantine() {
    use b2b_core::{BreakerState, PartnerPolicy};
    use b2b_network::{Bytes, EndpointId, ReliableEndpoint};

    let mut net = SimNetwork::new(FaultConfig::reliable(), 31);
    let mut seller = IntegrationEngine::new(SELLER, &mut net).unwrap();
    seller.add_partner(TradingPartner::new(BUYER));
    // Poison escalation only: the streak breaker stays off, so any
    // quarantine observed here came from the poison ladder.
    let policy =
        PartnerPolicy { poison_threshold: 3, open_ms: 10_000, ..PartnerPolicy::permissive() };
    seller.set_partner_policy(policy);

    // A raw reliable endpoint impersonates TP1's edge, sending validly
    // checksummed bytes that decode to nothing.
    let buyer_ep = EndpointId::new(format!("ep:{BUYER}"));
    let seller_ep = EndpointId::new(format!("ep:{SELLER}"));
    let mut raw = ReliableEndpoint::new(buyer_ep, ReliableConfig::default(), &mut net).unwrap();
    let poison = b"this will never parse as any wire format";
    for round in 0..3 {
        raw.send(
            &mut net,
            &seller_ep,
            b2b_document::FormatId::EDI_X12,
            Bytes::from(poison.to_vec()),
        )
        .unwrap();
        for _ in 0..5 {
            net.advance(10);
            seller.pump(&mut net).unwrap();
            raw.receive(&mut net).unwrap();
        }
        assert_eq!(seller.stats().decode_failures, round + 1);
    }

    // Third identical failure: the ladder tops out and TP1 is quarantined.
    assert_eq!(seller.dead_letters().len(), 3, "every poison copy is kept for inspection");
    assert_eq!(seller.health_stats().poison_trips, 1);
    assert_eq!(seller.health_stats().breaker_trips, 1, "quarantine counts as a trip");
    assert_eq!(seller.breaker_state(BUYER), BreakerState::Open);

    // The open window is time-driven: after `open_ms` the breaker probes.
    net.advance(10_000);
    seller.pump(&mut net).unwrap();
    assert_eq!(seller.breaker_state(BUYER), BreakerState::HalfOpen);
}

/// Undecodable failure notices climb the same poison ladder as
/// undecodable payloads: the third identical one quarantines the partner.
#[test]
fn repeated_undecodable_notices_escalate_to_partner_quarantine() {
    use b2b_core::{BreakerState, PartnerPolicy};
    use b2b_network::{Bytes, EndpointId, ReliableEndpoint};

    let mut net = SimNetwork::new(FaultConfig::reliable(), 31);
    let mut seller = IntegrationEngine::new(SELLER, &mut net).unwrap();
    seller.add_partner(TradingPartner::new(BUYER));
    let policy =
        PartnerPolicy { poison_threshold: 3, open_ms: 10_000, ..PartnerPolicy::permissive() };
    seller.set_partner_policy(policy);

    let buyer_ep = EndpointId::new(format!("ep:{BUYER}"));
    let seller_ep = EndpointId::new(format!("ep:{SELLER}"));
    let mut raw = ReliableEndpoint::new(buyer_ep, ReliableConfig::default(), &mut net).unwrap();
    let poison = b"this will never parse as a failure notice";
    for round in 0..3 {
        raw.send_notify(
            &mut net,
            &seller_ep,
            b2b_document::FormatId::EDI_X12,
            Bytes::from(poison.to_vec()),
        )
        .unwrap();
        for _ in 0..5 {
            net.advance(10);
            seller.pump(&mut net).unwrap();
            raw.receive(&mut net).unwrap();
        }
        assert_eq!(seller.stats().decode_failures, round + 1);
    }

    assert_eq!(seller.dead_letters().len(), 3, "every poison notice is kept for inspection");
    assert_eq!(seller.health_stats().poison_trips, 1);
    assert_eq!(seller.breaker_state(BUYER), BreakerState::Open);
}

/// A truncated binary payload climbs the same poison ladder as corrupt
/// text: the decoder NACKs it (no panic on the cut-short length
/// prefixes), each copy dead-letters, and the third identical copy
/// quarantines the partner.
#[test]
fn truncated_binary_payload_feeds_the_poison_ladder() {
    use b2b_core::{BreakerState, PartnerPolicy};
    use b2b_document::formats::sample_binary_po;
    use b2b_document::{FormatId, FormatRegistry};
    use b2b_network::{Bytes, EndpointId, ReliableEndpoint};

    let mut net = SimNetwork::new(FaultConfig::reliable(), 33);
    let mut seller = IntegrationEngine::new(SELLER, &mut net).unwrap();
    seller.add_partner(TradingPartner::new(BUYER));
    let policy =
        PartnerPolicy { poison_threshold: 3, open_ms: 10_000, ..PartnerPolicy::permissive() };
    seller.set_partner_policy(policy);

    // A well-formed binary PO, cut mid-record: the magic and header
    // survive, so the decoder walks into a length prefix that promises
    // more bytes than remain.
    let wire = FormatRegistry::with_builtins().encode(&sample_binary_po("P1", 4)).unwrap();
    let truncated = Bytes::from(wire[..wire.len() * 3 / 5].to_vec());

    let buyer_ep = EndpointId::new(format!("ep:{BUYER}"));
    let seller_ep = EndpointId::new(format!("ep:{SELLER}"));
    let mut raw = ReliableEndpoint::new(buyer_ep, ReliableConfig::default(), &mut net).unwrap();
    for round in 0..3 {
        raw.send(&mut net, &seller_ep, FormatId::BINARY, truncated.clone()).unwrap();
        for _ in 0..5 {
            net.advance(10);
            seller.pump(&mut net).unwrap();
            raw.receive(&mut net).unwrap();
        }
        assert_eq!(seller.stats().decode_failures, round + 1);
    }

    assert_eq!(seller.dead_letters().len(), 3, "every truncated copy is kept for inspection");
    assert_eq!(seller.health_stats().poison_trips, 1);
    assert_eq!(seller.breaker_state(BUYER), BreakerState::Open);
}

/// Sends `payload` once from a raw endpoint posing as the buyer's edge,
/// as a failure notice when `notice` is set, and asserts that every pump
/// of the seller returns `Ok` and that the payload ends as the seller's
/// one decode failure and its one dead letter.
fn assert_dead_letters_as_a_decode_failure(notice: bool, payload: Vec<u8>) {
    use b2b_document::FormatId;
    use b2b_network::{Bytes, EndpointId, ReliableEndpoint};

    let mut net = SimNetwork::new(FaultConfig::reliable(), 35);
    let mut seller = IntegrationEngine::new(SELLER, &mut net).unwrap();
    seller.add_partner(TradingPartner::new(BUYER));
    let buyer_ep = EndpointId::new(format!("ep:{BUYER}"));
    let seller_ep = EndpointId::new(format!("ep:{SELLER}"));
    let mut raw = ReliableEndpoint::new(buyer_ep, ReliableConfig::default(), &mut net).unwrap();
    let payload = Bytes::from(payload);
    if notice {
        raw.send_notify(&mut net, &seller_ep, FormatId::ROSETTANET, payload).unwrap();
    } else {
        raw.send(&mut net, &seller_ep, FormatId::ROSETTANET, payload).unwrap();
    }
    for _ in 0..5 {
        net.advance(10);
        seller.pump(&mut net).unwrap();
        raw.receive(&mut net).unwrap();
    }
    assert_eq!(seller.stats().decode_failures, 1);
    let letters: Vec<_> = seller.dead_letters().iter().map(|l| &l.reason).collect();
    assert!(matches!(letters[..], [DeadLetterReason::DecodeFailure(_)]), "{letters:?}");
}

/// A RosettaNet payload nested 100,000 elements deep is a decode failure
/// like any other: the XML reader does not recurse per element, so it
/// cannot overflow its stack.
#[test]
fn deeply_nested_xml_payload_dead_letters_as_a_decode_failure() {
    let payload = format!("<Pip3A1Quote>{}", "<a>".repeat(100_000));
    assert_dead_letters_as_a_decode_failure(false, payload.into_bytes());
}

/// A failure notice whose JSON body opens 100,000 arrays is refused at
/// the recursion limit instead of overflowing the parser's stack.
#[test]
fn deeply_nested_failure_notice_dead_letters_as_a_decode_failure() {
    assert_dead_letters_as_a_decode_failure(true, "[".repeat(100_000).into_bytes());
}

/// Two replies that miss their receipt deadline fail as two sends: each
/// owning session fails, each counterparty session is notified, and each
/// reply gets its own payload dead letter.
#[test]
fn failed_replies_dead_letter_one_payload_each() {
    use b2b_network::WireClass;

    // Fixed 6 s one-way latency: both POs (no deadline on the plain buyer
    // process) arrive at the seller in the same pump window, so the
    // seller's two replies share one emit pass; the replies carry the 5 s
    // receipt deadline, which a 12 s ack round trip can never meet.
    let faults =
        FaultConfig { min_delay_ms: 6_000, max_delay_ms: 6_000, ..FaultConfig::reliable() };
    let mut net = SimNetwork::new(faults, 29);
    let cfg = ReliableConfig::fixed(1_000, 50);
    let mut buyer = IntegrationEngine::with_reliable_config(BUYER, &mut net, cfg.clone()).unwrap();
    let mut seller = IntegrationEngine::with_reliable_config(SELLER, &mut net, cfg).unwrap();
    buyer.add_partner(TradingPartner::new(SELLER));
    seller.add_partner(TradingPartner::new(BUYER));
    buyer
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    seller
        .add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))
        .unwrap();
    seller_rules(&mut seller).unwrap();
    // Mirror of the receipt-timeout setup: only the *seller* models
    // WaitReceipt, so only its replies carry the deadline.
    let (init_def, _) = pip3a4_processes().unwrap();
    let (_, resp_def) = pip3a4_with_explicit_acks().unwrap();
    let agreement =
        TradingPartnerAgreement::between("pip3a4-acks", BUYER, SELLER, &init_def, &resp_def, true)
            .unwrap();
    buyer.install_agreement(agreement.clone(), &init_def, &resp_def).unwrap();
    seller.install_agreement(agreement, &init_def, &resp_def).unwrap();

    let template = TwoEnterpriseScenario::new(FaultConfig::reliable(), 1).unwrap();
    let mut correlations = Vec::new();
    for (name, amount) in [("late-a", 1_000), ("late-b", 2_000)] {
        let po = template.po(name, amount).unwrap();
        correlations.push(buyer.initiate(&mut net, "pip3a4-acks", po).unwrap());
    }
    for _ in 0..6_000 {
        net.advance(10);
        buyer.pump(&mut net).unwrap();
        seller.pump(&mut net).unwrap();
        if correlations.iter().all(|c| matches!(seller.session_state(c), SessionState::Failed(_))) {
            break;
        }
    }

    for c in &correlations {
        assert!(
            matches!(seller.session_state(c), SessionState::Failed(_)),
            "session {c} should fail at the receipt deadline"
        );
    }
    assert_eq!(seller.stats().delivery_failures, 2, "one failure per reply");
    assert_eq!(seller.stats().notifications_sent, 2, "each counterparty session notified");
    let letters: Vec<_> = seller
        .dead_letters()
        .iter()
        .filter(|l| matches!(l.reason, DeadLetterReason::DeliveryFailure { .. }))
        .collect();
    assert_eq!(letters.len(), 2, "one letter per failed reply");
    for letter in &letters {
        assert_eq!(letter.envelope.class, WireClass::Payload, "each letter holds one document");
    }
    assert_ne!(letters[0].envelope.id, letters[1].envelope.id, "distinct sends, distinct ids");
}

/// A replayed decode failure that trips the partner's breaker collapses
/// back into its own letter. The trip abandons the partner's outstanding
/// sends and dead-letters them after the replay's letter; none of those
/// letters may be lost to the collapse.
#[test]
fn replay_that_trips_the_breaker_keeps_the_abandoned_sends_letters() {
    use b2b_core::{BreakerState, PartnerPolicy};
    use b2b_network::{Bytes, EndpointId, Envelope};

    let mut s = TwoEnterpriseScenario::new(FaultConfig::reliable(), 37).unwrap();
    let policy =
        PartnerPolicy { poison_threshold: 3, open_ms: 10_000, ..PartnerPolicy::permissive() };
    s.seller.set_partner_policy(policy);
    let po = s.po("unacked", 1_000).unwrap();
    s.submit(po).unwrap();
    // Run both sides until the seller has replied, then stop pumping the
    // buyer: the reply stays unacknowledged in the seller's reliable layer.
    for _ in 0..500 {
        if s.seller.stats().wire_sent > 0 {
            break;
        }
        s.net.advance(10);
        s.buyer.pump(&mut s.net).unwrap();
        s.seller.pump(&mut s.net).unwrap();
    }
    assert_eq!(s.seller.stats().wire_sent, 1, "the seller replied");
    assert_eq!(s.seller.wire_outstanding(), 1, "the reply is unacknowledged");

    // Two forged poison payloads from TP1's endpoint: validly checksummed
    // bytes that decode to nothing, two rungs up the poison ladder.
    let from = EndpointId::new(format!("ep:{BUYER}"));
    let to = EndpointId::new(format!("ep:{SELLER}"));
    let poison = Bytes::from_static(b"this will never parse as any wire format");
    for _ in 0..2 {
        let id = s.net.alloc_message_id();
        let now = s.net.now();
        let forged = Envelope::payload_with_id(
            id,
            from.clone(),
            to.clone(),
            b2b_document::FormatId::EDI_X12,
            poison.clone(),
            now,
        );
        s.net.send(forged).unwrap();
    }
    for _ in 0..5 {
        s.net.advance(10);
        s.seller.pump(&mut s.net).unwrap();
    }
    assert_eq!(s.seller.stats().decode_failures, 2);
    assert_eq!(s.seller.breaker_state(BUYER), BreakerState::Closed);

    // Replaying one of them is the third identical failure: the ladder
    // tops out and the trip abandons the unacknowledged reply.
    let seq = s
        .seller
        .dead_letters()
        .iter()
        .find(|l| matches!(l.reason, DeadLetterReason::DecodeFailure(_)))
        .unwrap()
        .seq;
    s.seller.replay_dead_letter(&mut s.net, seq).unwrap();
    assert_eq!(s.seller.breaker_state(BUYER), BreakerState::Open);
    assert_eq!(s.seller.stats().delivery_failures, 1, "the trip abandoned the reply");

    let letters = |decode: bool| {
        s.seller
            .dead_letters()
            .iter()
            .filter(|l| match l.reason {
                DeadLetterReason::DecodeFailure(_) => decode,
                DeadLetterReason::DeliveryFailure { .. } => !decode,
                DeadLetterReason::Unroutable(_) => false,
            })
            .count() as u64
    };
    assert_eq!(letters(true), 2, "the replay collapsed back into its own letter");
    assert_eq!(
        letters(false),
        s.seller.stats().delivery_failures,
        "every abandoned send is dead-lettered"
    );
    assert_eq!(s.seller.dead_letters().get(seq).map(|l| l.replays), Some(1));
}

/// A late document for a session that already finished — here a quote
/// the partner sends again under a new message id — is dead-lettered as
/// unroutable. It must not abort the pump: the rest of its batch was
/// already acknowledged to the partner and has to reach its sessions.
#[test]
fn late_document_for_a_finished_session_does_not_lose_its_batch() {
    use b2b_document::{
        record, CorrelationId, Currency, Date, DocKind, Document, FormatId, FormatRegistry, Money,
        Value,
    };
    use b2b_network::{Bytes, EndpointId, ReliableEndpoint};
    use b2b_protocol::MessageExchangePattern;
    use b2b_transform::{TransformContext, TransformRegistry};

    const HUB: &str = "ACME";
    const PARTNER: &str = "Quoter";
    let mut net = SimNetwork::new(FaultConfig::reliable(), 43);
    let mut hub = IntegrationEngine::new(HUB, &mut net).unwrap();
    hub.add_partner(TradingPartner::new(PARTNER));
    let (init, resp) = MessageExchangePattern::RequestReply {
        request: DocKind::RequestForQuote,
        reply: DocKind::Quote,
    }
    .role_processes("rfq-quoter", FormatId::ROSETTANET)
    .unwrap();
    let agreement =
        TradingPartnerAgreement::between("rfq-quoter", HUB, PARTNER, &init, &resp, true).unwrap();
    hub.install_agreement(agreement.clone(), &init, &resp).unwrap();

    // The partner is a raw reliable endpoint that answers an RFQ with the
    // quote a seller's binding would put on the wire.
    let hub_ep = EndpointId::new(format!("ep:{HUB}"));
    let partner_ep = EndpointId::new(format!("ep:{PARTNER}"));
    let mut partner =
        ReliableEndpoint::new(partner_ep, ReliableConfig::default(), &mut net).unwrap();
    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new(PARTNER, HUB, "000000001", "i-quoter");
    let quote_for = |payload: &Bytes| -> (CorrelationId, Bytes) {
        let wire = formats.decode_bytes(&FormatId::ROSETTANET, payload).unwrap();
        let rfq = transforms.transform(&wire, &FormatId::NORMALIZED, &ctx).unwrap();
        let number = rfq.get("header.rfq_number").unwrap().as_text("rfq_number").unwrap();
        let body = record! {
            "header" => record! {
                "rfq_number" => Value::text(number),
                "seller" => Value::text(PARTNER),
                "unit_price" => Value::Money(Money::from_units(900, Currency::Usd)),
                "valid_until" => Value::Date(Date::new(2001, 11, 1).unwrap()),
            },
        };
        let quote = rfq.reply(DocKind::Quote, FormatId::NORMALIZED, body);
        let wire = transforms.transform(&quote, &FormatId::ROSETTANET, &ctx).unwrap();
        (rfq.correlation().clone(), Bytes::from(formats.encode(&wire).unwrap()))
    };
    let rfq = |number: &str| {
        Document::new(
            DocKind::RequestForQuote,
            FormatId::NORMALIZED,
            CorrelationId::for_rfq_number(number),
            record! {
                "header" => record! {
                    "rfq_number" => Value::text(number),
                    "buyer" => Value::text(HUB),
                    "item" => Value::text("LAPTOP-T23"),
                    "quantity" => Value::Int(100),
                    "respond_by" => Value::Date(Date::new(2001, 10, 1).unwrap()),
                },
            },
        )
    };

    let s1 = hub.initiate(&mut net, &agreement.id, rfq("S1")).unwrap();
    let s2 = hub.initiate(&mut net, &agreement.id, rfq("S2")).unwrap();
    let mut quotes = Vec::new();
    for _ in 0..20 {
        net.advance(10);
        quotes.extend(partner.receive(&mut net).unwrap().iter().map(|e| quote_for(&e.payload)));
        hub.pump(&mut net).unwrap();
        if quotes.len() == 2 {
            break;
        }
    }
    let quote = |c: &CorrelationId| quotes.iter().find(|(q, _)| q == c).unwrap().1.clone();
    let (quote1, quote2) = (quote(&s1), quote(&s2));

    // S1 completes on its quote.
    partner.send(&mut net, &hub_ep, FormatId::ROSETTANET, quote1.clone()).unwrap();
    for _ in 0..20 {
        net.advance(10);
        hub.pump(&mut net).unwrap();
        partner.receive(&mut net).unwrap();
    }
    assert_eq!(hub.session_state(&s1), SessionState::Completed);
    assert_eq!(hub.session_state(&s2), SessionState::InProgress);

    // S1's quote again, then S2's: both arrive in one pump's batch.
    partner.send(&mut net, &hub_ep, FormatId::ROSETTANET, quote1).unwrap();
    partner.send(&mut net, &hub_ep, FormatId::ROSETTANET, quote2).unwrap();
    net.advance(10);
    hub.pump(&mut net).unwrap();
    net.advance(10);
    partner.receive(&mut net).unwrap();
    assert_eq!(partner.outstanding_count(), 0, "the hub acknowledged both quotes");
    for _ in 0..20 {
        net.advance(10);
        hub.pump(&mut net).unwrap();
        partner.receive(&mut net).unwrap();
    }

    assert_eq!(hub.session_state(&s2), SessionState::Completed, "S2's quote was routed");
    assert_eq!(hub.session_state(&s1), SessionState::Completed);
    assert_eq!(hub.stats().unroutable, 1, "the late quote is counted");
    let letters: Vec<_> = hub.dead_letters().iter().collect();
    assert_eq!(letters.len(), 1, "the late quote is dead-lettered: {letters:?}");
    assert!(matches!(letters[0].reason, DeadLetterReason::Unroutable(_)), "{letters:?}");
}

/// A guarded hub trading RFQs with a partner that only acknowledges: the
/// partner is a raw reliable endpoint that never answers, so every
/// breaker success the hub records comes from a wire acknowledgment.
/// Every hub send fails 300 ms after it went out unacknowledged
/// (retransmits at +100 and +200 ms, failure at +300 ms).
struct AckOnlyPartner {
    net: SimNetwork,
    hub: b2b_core::IntegrationEngine,
    partner: b2b_network::ReliableEndpoint,
    rfqs: u32,
}

impl AckOnlyPartner {
    const NAME: &'static str = "Lurker";

    fn new(seed: u64) -> Self {
        use b2b_core::PartnerPolicy;
        use b2b_document::{DocKind, FormatId};
        use b2b_network::{EndpointId, ReliableEndpoint};
        use b2b_protocol::MessageExchangePattern;

        let mut net = SimNetwork::new(FaultConfig::reliable(), seed);
        let mut hub =
            IntegrationEngine::with_reliable_config("HUB", &mut net, ReliableConfig::fixed(100, 2))
                .unwrap();
        hub.set_partner_policy(PartnerPolicy::guarded());
        hub.add_partner(TradingPartner::new(Self::NAME));
        let (init, resp) = MessageExchangePattern::RequestReply {
            request: DocKind::RequestForQuote,
            reply: DocKind::Quote,
        }
        .role_processes("rfq-lurker", FormatId::ROSETTANET)
        .unwrap();
        let agreement =
            TradingPartnerAgreement::between("rfq-lurker", "HUB", Self::NAME, &init, &resp, true)
                .unwrap();
        hub.install_agreement(agreement, &init, &resp).unwrap();
        let endpoint = EndpointId::new(format!("ep:{}", Self::NAME));
        let partner = ReliableEndpoint::new(endpoint, ReliableConfig::default(), &mut net).unwrap();
        Self { net, hub, partner, rfqs: 0 }
    }

    /// Black-holes or heals the link into the partner; acknowledgments
    /// back to the hub always get through.
    fn set_link_dead(&mut self, dead: bool) {
        use b2b_network::FaultSchedule;
        let faults = FaultConfig { loss: if dead { 1.0 } else { 0.0 }, ..FaultConfig::reliable() };
        self.net.set_link_schedule(self.partner.id().clone(), FaultSchedule::constant(faults));
    }

    /// Starts one RFQ session; its request goes on the wire at once.
    fn send_rfq(&mut self) {
        use b2b_document::{record, CorrelationId, Date, DocKind, Document, FormatId, Value};
        self.rfqs += 1;
        let number = format!("R{}", self.rfqs);
        let rfq = Document::new(
            DocKind::RequestForQuote,
            FormatId::NORMALIZED,
            CorrelationId::for_rfq_number(&number),
            record! {
                "header" => record! {
                    "rfq_number" => Value::text(&number),
                    "buyer" => Value::text("HUB"),
                    "item" => Value::text("LAPTOP-T23"),
                    "quantity" => Value::Int(100),
                    "respond_by" => Value::Date(Date::new(2001, 10, 1).unwrap()),
                },
            },
        );
        self.hub.initiate(&mut self.net, "rfq-lurker", rfq).unwrap();
    }

    /// Runs `ms` of simulated time in 10 ms steps: a hub pump, then the
    /// partner drains (and so acknowledges) its inbox.
    fn run(&mut self, ms: u64) {
        for _ in 0..ms / 10 {
            self.net.advance(10);
            self.hub.pump(&mut self.net).unwrap();
            self.partner.receive(&mut self.net).unwrap();
        }
    }

    /// The pump in which an older send fails permanently and a newer
    /// send to the same partner is acknowledged. At entry an older send
    /// went out 280 ms ago over the dead link; the link heals, a newer
    /// request goes out, the partner acknowledges it 10 ms later, and the
    /// ack reaches the hub in the same pump as the older send's failure.
    fn fail_older_and_ack_newer(&mut self) {
        self.set_link_dead(false);
        self.send_rfq();
        self.run(10);
        assert_eq!(self.hub.wire_outstanding(), 2, "both sends still outstanding");
        let failures = self.hub.reliable_stats().failures;
        let acks = self.hub.reliable_stats().acks;
        self.run(10);
        assert_eq!(self.hub.reliable_stats().failures, failures + 1, "the older send failed");
        assert_eq!(self.hub.reliable_stats().acks, acks + 1, "the newer send was acknowledged");
    }
}

/// Acknowledgments drive the breaker back to `Closed`: a guarded hub
/// trips on a dead link, turns `HalfOpen` once `open_ms` has passed, and
/// closes after `close_threshold` acknowledged sends — its partner never
/// replies, so only the acks can close it. The trip itself happens in a
/// pump that also acknowledges a newer send: the failure is applied
/// first, so the third failure in a row trips the breaker and the ack
/// that follows finds it open.
#[test]
fn acknowledged_sends_walk_a_tripped_breaker_back_to_closed() {
    use b2b_core::{BreakerState, PartnerPolicy};

    let policy = PartnerPolicy::guarded();
    let mut link = AckOnlyPartner::new(47);
    let name = AckOnlyPartner::NAME;
    link.set_link_dead(true);
    // The first request fails at 300 ms, and its failure notice at 600.
    link.send_rfq();
    link.run(600);
    assert_eq!(link.hub.reliable_stats().failures, 2);
    assert_eq!(link.hub.breaker_state(name), BreakerState::Closed, "two failures in a row");

    // The third failure coincides with an acknowledgment: it trips.
    link.send_rfq();
    link.run(280);
    link.fail_older_and_ack_newer();
    assert_eq!(link.hub.breaker_state(name), BreakerState::Open, "the third failure trips");
    assert_eq!(link.hub.health_stats().breaker_trips, 1);
    let opened = link.net.now().as_millis();

    // The open window is time-driven.
    link.run(policy.open_ms - 10);
    assert_eq!(link.hub.breaker_state(name), BreakerState::Open);
    link.run(10);
    assert_eq!(link.net.now().as_millis(), opened + policy.open_ms);
    assert_eq!(link.hub.breaker_state(name), BreakerState::HalfOpen);

    // Probes close it: one acknowledged send per probe.
    for probe in 1..=policy.close_threshold {
        assert_eq!(link.hub.breaker_state(name), BreakerState::HalfOpen, "before probe {probe}");
        let acks = link.hub.reliable_stats().acks;
        link.send_rfq();
        link.run(20);
        assert_eq!(link.hub.reliable_stats().acks, acks + 1, "probe {probe} acknowledged");
    }
    assert_eq!(link.hub.breaker_state(name), BreakerState::Closed);
    assert_eq!(link.hub.health_stats().breaker_trips, 1);
}

/// When one pump both fails an older send and acknowledges a newer one
/// to the same partner, the failure is applied first and the ack then
/// resets the streak it started: afterwards it takes a full
/// `trip_threshold` of further failures to trip the breaker.
#[test]
fn a_failure_and_a_later_ack_in_one_pump_leave_the_streak_reset() {
    use b2b_core::{BreakerState, PartnerPolicy};

    let policy = PartnerPolicy::guarded();
    let mut link = AckOnlyPartner::new(53);
    let name = AckOnlyPartner::NAME;
    link.set_link_dead(true);
    link.send_rfq();
    link.run(280);
    link.fail_older_and_ack_newer();
    assert_eq!(link.hub.breaker_state(name), BreakerState::Closed);
    // The failed session's notice goes out over the healed link.
    link.run(100);
    assert_eq!(link.hub.wire_outstanding(), 0, "the notice was acknowledged");
    assert_eq!(link.hub.breaker_state(name), BreakerState::Closed);

    // Kill the link again and count the failures it takes to trip.
    link.set_link_dead(true);
    let failures = link.hub.reliable_stats().failures;
    for _ in 0..10 {
        if link.hub.breaker_state(name) == BreakerState::Open {
            break;
        }
        link.send_rfq();
        while link.hub.wire_outstanding() > 0 {
            link.run(10);
        }
    }
    assert_eq!(link.hub.breaker_state(name), BreakerState::Open);
    assert_eq!(
        link.hub.reliable_stats().failures - failures,
        u64::from(policy.trip_threshold),
        "the ack reset the streak the older send's failure had started"
    );
}
