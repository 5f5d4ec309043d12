//! The paper's running example between two engines: buyer `TP1` sends
//! EDI X12 850 purchase orders to `GadgetSupply`, whose SAP and Oracle
//! back ends and externalized approval rules answer with 855
//! acknowledgments.

use crate::calib::{Reference, REFERENCE_SAMPLES};
use crate::meter::{format_slot, timed, Call, Counters, Harness, Pass};
use crate::rfq::SplitMix64;
use b2b_core::error::{IntegrationError, Result};
use b2b_core::scenario::{ScenarioProtocol, TwoEnterpriseScenario, BUYER, SELLER};
use b2b_core::{IntegrationEngine, SessionState};
use b2b_document::{CorrelationId, FormatId, FormatRegistry};
use b2b_network::{Bytes, FaultConfig};
use b2b_transform::{TransformContext, TransformRegistry};

const ORDERS: usize = 10_000;
const WAVE: usize = 100;
/// PO amounts are uniform in this range; the approval threshold of the
/// paper's rules is 55,000, so about a third of the orders cross it.
const AMOUNTS: (i64, i64) = (1_000, 82_000);
const MAX_WAVE_STEPS: usize = 20_000;

fn orders(engine: &IntegrationEngine, backend: &str) -> u64 {
    engine.backend(backend).map_or(0, |b| b.backend().order_count() as u64)
}

/// Builds buyer and seller with their back ends, rules and agreement.
pub fn setup(seed: u64) -> Result<TwoEnterpriseScenario> {
    let faults = FaultConfig { loss: 0.02, duplicate: 0.02, ..FaultConfig::reliable() };
    TwoEnterpriseScenario::with_protocol(ScenarioProtocol::Edi, faults, seed)
}

/// Runs the plan for `seed` once on fresh engines.
pub fn run_pass(seed: u64, traced: bool, reference: &mut Reference) -> Result<Pass> {
    let mut pass = Pass::new(traced);
    let mut s = setup(seed)?;

    let formats = FormatRegistry::with_builtins();
    let transforms = TransformRegistry::with_builtins();
    let ctx = TransformContext::new(BUYER, SELLER, "000000001", "probe");
    let mut rng = SplitMix64(seed ^ 0x850_855);
    pass.initiate_us.reserve(ORDERS);
    pass.session_sim_ms.reserve(ORDERS);
    pass.doc_latency.reserve(1 << 16);
    let mut pending: Vec<(CorrelationId, u64)> = Vec::with_capacity(WAVE);
    let baseline = crate::alloc::snapshot();
    crate::alloc::reset_peak();
    let traffic_started = std::time::Instant::now();

    for w in 0..ORDERS / WAVE {
        if w % (ORDERS / WAVE / REFERENCE_SAMPLES) == 0 {
            pass.sample_reference(reference);
        }
        let sent_at = s.net.now().as_millis();
        for i in 0..WAVE {
            let amount = AMOUNTS.0 + (rng.next() % (AMOUNTS.1 - AMOUNTS.0) as u64) as i64;
            let po = s.po(&format!("PO{:06}", w * WAVE + i), amount)?;
            if traced {
                pass.harness(Harness::Probe, |codec| -> Result<()> {
                    let slot = format_slot(&FormatId::EDI_X12);
                    let wire = timed(true, &mut codec.transform, || {
                        transforms.transform(&po, &FormatId::EDI_X12, &ctx)
                    })?;
                    let bytes = Bytes::from(timed(true, &mut codec.encode[slot], || {
                        formats.encode(&wire)
                    })?);
                    timed(true, &mut codec.decode[slot], || {
                        formats.decode_bytes(&FormatId::EDI_X12, &bytes)
                    })?;
                    Ok(())
                })?;
            }
            let TwoEnterpriseScenario { net, buyer, agreement_id, .. } = &mut s;
            let correlation =
                pass.call(Call::Initiate, buyer, |buyer| buyer.initiate(net, agreement_id, po))?;
            pending.push((correlation, sent_at));
        }
        pass.sessions += WAVE as u64;
        let target = (w + 1) * WAVE;
        let mut completed = s.buyer.completed_sessions();
        let mut steps = 0;
        while !(s.net.idle()
            && s.buyer.wire_outstanding() == 0
            && s.seller.wire_outstanding() == 0
            && !s.buyer.has_pending_wire()
            && !s.seller.has_pending_wire()
            && s.buyer.completed_sessions() == target
            && s.seller.completed_sessions() == target)
        {
            if steps == MAX_WAVE_STEPS {
                return Err(IntegrationError::Config(format!("wave {w} did not quiesce")));
            }
            steps += 1;
            let TwoEnterpriseScenario { net, buyer, seller, .. } = &mut s;
            pass.harness(Harness::Network, |_| net.advance(10));
            pass.call(Call::Pump, buyer, |buyer| buyer.pump(net))?;
            pass.call(Call::Pump, seller, |seller| seller.pump(net))?;
            if buyer.completed_sessions() != completed {
                completed = buyer.completed_sessions();
                let now = net.now().as_millis();
                pending.retain(|(c, t0)| {
                    let done = buyer.session_state(c) == SessionState::Completed;
                    if done {
                        pass.session_sim_ms.push((now - t0) as f64);
                    }
                    !done
                });
            }
        }
        pass.failed += pending.len() as u64;
        pending.clear();
    }

    pass.wall_ns = traffic_started.elapsed().as_nanos() as u64 - pass.reference_spent_ns;
    let end = crate::alloc::snapshot();
    pass.traffic_alloc = end.since(&baseline);
    pass.peak_live = crate::alloc::peak();
    let mut counters = Counters::of(&s.buyer);
    counters.add(&Counters::of(&s.seller));
    counters.backend_orders = orders(&s.seller, "SAP") + orders(&s.seller, "Oracle");
    pass.counters = counters;

    let n = ORDERS as u64;
    let poas = s.buyer.backend("SAP").map_or(0, |b| b.backend().poa_count() as u64);
    let seller_done = s.seller.completed_sessions() as u64;
    let rules = s.seller.wf().stats().rule_invocations;
    let orders = counters.backend_orders;
    let dead = counters.dead_letters;
    pass.check(seller_done == n, || format!("seller completed {seller_done} of {n} orders"));
    pass.check(rules == n, || format!("seller ran {rules} rule invocations for {n} orders"));
    pass.check(poas == n, || format!("buyer filed {poas} acknowledgments for {n} orders"));
    pass.check(orders == n, || format!("seller back ends stored {orders} of {n} orders"));
    pass.check(dead == 0, || format!("{dead} dead letters"));
    Ok(pass)
}
