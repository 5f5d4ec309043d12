//! The seeded chaos harness behind experiment E18.
//!
//! One hub enterprise trades with `partners` counterparties over EDI
//! round trips while one of them misbehaves: black-holes, flaps, poisons
//! the hub with undecodable bytes, or floods it. Every fault decision
//! comes from the seeded simulation ([`SimNetwork`]'s RNG plus per-link
//! [`FaultSchedule`]s), so a chaos run is a pure function of
//! ([`ChaosConfig`], seed) — two runs are byte-identical, which E18
//! asserts via [`ChaosReport::fingerprint`].

use b2b_backend::{AckPolicy, ApplicationProcess, SapSystem};
use b2b_core::engine::IntegrationEngine;
use b2b_core::error::Result;
use b2b_core::scenario::{seller_rules, ScenarioProtocol};
use b2b_core::{PartnerPolicy, SessionState, TradingPartner};
use b2b_document::normalized::PoBuilder;
use b2b_document::{CorrelationId, Currency, Date, Money};
use b2b_network::{
    Bytes, EndpointId, FaultConfig, FaultSchedule, ReliableConfig, ReliableEndpoint, SimNetwork,
};
use b2b_protocol::TradingPartnerAgreement;

/// The hub enterprise. Named `TP1` so the stock seller-side approval
/// thresholds of [`seller_rules`] apply to its orders.
pub const HUB: &str = "TP1";
/// The endpoint name of the rogue traffic source used by the poison and
/// flood faults.
pub const ROGUE: &str = "ROGUE";

/// Default seed of the chaos harness; override with `B2B_CHAOS_SEED`.
pub const DEFAULT_CHAOS_SEED: u64 = 0xC4A05;

/// The chaos seed: `B2B_CHAOS_SEED` if set and parseable, else
/// [`DEFAULT_CHAOS_SEED`].
pub fn chaos_seed() -> u64 {
    std::env::var("B2B_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_CHAOS_SEED)
}

/// What goes wrong during a chaos run. The victim of a link fault is
/// always partner 0; the poison/flood source is an extra rogue endpoint
/// registered as a trading partner of the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Nothing: the no-fault baseline.
    None,
    /// Every hub→victim message is lost for the whole run.
    BlackHole,
    /// The hub→victim link alternates `up_ms` healthy / `down_ms` dead.
    Flap {
        /// Healthy window, ms.
        up_ms: u64,
        /// Dead window, ms.
        down_ms: u64,
    },
    /// The rogue partner repeats one validly-checksummed, undecodable
    /// payload — the poison-escalation ladder's target.
    Poison,
    /// The rogue partner sends bursts of *distinct* undecodable payloads
    /// — pressure on the per-partner inbound cap.
    Flood {
        /// Payloads per burst (one burst per `flood` interval).
        burst: usize,
    },
}

/// One chaos run, fully determined together with the seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Trading partners of the hub (partner 0 is the link-fault victim).
    pub partners: usize,
    /// Waves of purchase orders; each wave submits one PO per partner.
    pub waves: usize,
    /// Gap between waves, simulated ms.
    pub wave_gap_ms: u64,
    /// The fault to inject.
    pub fault: ChaosFault,
    /// The hub's containment policy (partners always run permissive).
    pub policy: PartnerPolicy,
    /// Simulation seed (see [`chaos_seed`]).
    pub seed: u64,
    /// Hard cap on the drain phase after the last wave, simulated ms.
    pub drain_ms: u64,
}

impl ChaosConfig {
    /// A small grid cell: 3 partners, 6 waves, 150 ms apart — long
    /// enough that a guarded breaker trips *during* the submission phase
    /// (a black-holed send fails permanently after ~300 ms under the
    /// harness retry budget, so the third failure lands around wave 4).
    pub fn cell(fault: ChaosFault, policy: PartnerPolicy, seed: u64) -> Self {
        Self { partners: 3, waves: 6, wave_gap_ms: 150, fault, policy, seed, drain_ms: 60_000 }
    }
}

/// Everything observable about one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Sessions submitted (waves × partners).
    pub sessions: usize,
    /// Hub sessions that completed.
    pub completed: usize,
    /// Hub sessions that failed terminally.
    pub failed: usize,
    /// Healthy-partner sessions (victim excluded) that completed.
    pub healthy_completed: usize,
    /// Healthy-partner sessions submitted.
    pub healthy_sessions: usize,
    /// Sim ms from first submit until every healthy session was terminal
    /// (`None` if they never all settled inside the drain window).
    pub healthy_done_ms: Option<u64>,
    /// Total simulated ms of the run.
    pub elapsed_ms: u64,
    /// Hub wire sends that actually went out.
    pub wire_sent: u64,
    /// Hub sends shed by breaker or queue bounds.
    pub shed: u64,
    /// Hub messages dead-lettered.
    pub dead_lettered: u64,
    /// Reliable-layer acks at the hub.
    pub acked: u64,
    /// Reliable-layer permanent failures at the hub.
    pub failures: u64,
    /// Reliable-layer sends at the hub (payloads + notices).
    pub reliable_sends: u64,
    /// Hub breaker trips (incl. poison quarantines).
    pub breaker_trips: u64,
    /// Hub poison quarantines.
    pub poison_trips: u64,
    /// Inbound payloads the hub shed at the cap.
    pub shed_inbound: u64,
    /// Byte-comparable digest of every deterministic observable: hub
    /// stats, health stats, breaker states, per-session terminal states,
    /// and network counters.
    pub fingerprint: String,
}

impl ChaosReport {
    /// The E18 coverage invariant: every session reached a terminal
    /// state, and every reliable send was acknowledged or failed — so
    /// each submitted order is delivered, dead-lettered, or shed, never
    /// silently lost. Returns an error string naming the violated leg.
    pub fn check_invariant(&self) -> std::result::Result<(), String> {
        if self.completed + self.failed != self.sessions {
            return Err(format!(
                "session coverage broken: {} completed + {} failed != {} submitted",
                self.completed, self.failed, self.sessions
            ));
        }
        if self.acked + self.failures != self.reliable_sends {
            return Err(format!(
                "wire ledger not drained: {} acks + {} failures != {} sends",
                self.acked, self.failures, self.reliable_sends
            ));
        }
        Ok(())
    }
}

/// Runs one seeded chaos scenario to quiescence (or the drain cap).
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport> {
    let mut net = SimNetwork::new(FaultConfig::reliable(), cfg.seed);
    // Tight retry budget: a black-holed message fails permanently after
    // ~300 ms instead of tying up the ledger for many seconds.
    let retry = ReliableConfig::fixed(100, 2);
    let mut hub = IntegrationEngine::with_reliable_config(HUB, &mut net, retry.clone())?;
    hub.set_partner_policy(cfg.policy.clone());
    hub.add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))?;

    // The harness runs on the suite-wide default wire format, so a
    // `B2B_WIRE_FORMAT=binary` CI pass drives the whole fault grid —
    // including the poison ladder — through the binary decoder.
    let protocol = ScenarioProtocol::from_env();
    let wire_format = protocol.format();
    let (init_def, resp_def) = protocol.processes()?;
    let mut partners: Vec<(String, IntegrationEngine)> = Vec::new();
    for k in 0..cfg.partners {
        let name = format!("CS{k}");
        let mut p = IntegrationEngine::with_reliable_config(&name, &mut net, retry.clone())?;
        p.add_partner(TradingPartner::new(HUB));
        p.add_backend(ApplicationProcess::new(Box::new(SapSystem::new(AckPolicy::AcceptAll))))?;
        seller_rules(&mut p)?;
        hub.add_partner(TradingPartner::new(&name));
        let agreement = TradingPartnerAgreement::between(
            &format!("{wire_format}-{HUB}-{name}"),
            HUB,
            &name,
            &init_def,
            &resp_def,
            true,
        )?;
        hub.install_agreement(agreement.clone(), &init_def, &resp_def)?;
        p.install_agreement(agreement, &init_def, &resp_def)?;
        partners.push((name, p));
    }
    let victim = partners[0].0.clone();

    // Link faults: schedules keyed by the *destination* endpoint, so only
    // hub→victim traffic is affected.
    let victim_ep = EndpointId::new(format!("ep:{victim}"));
    match cfg.fault {
        ChaosFault::BlackHole => {
            let dead = FaultConfig { loss: 1.0, ..FaultConfig::reliable() };
            net.set_link_schedule(victim_ep, FaultSchedule::constant(dead));
        }
        ChaosFault::Flap { up_ms, down_ms } => {
            let schedule = FaultSchedule::flapping(FaultConfig::reliable(), up_ms, down_ms)
                .expect("valid flap windows");
            net.set_link_schedule(victim_ep, schedule);
        }
        ChaosFault::None | ChaosFault::Poison | ChaosFault::Flood { .. } => {}
    }

    // The rogue source for poison/flood: a raw reliable endpoint the hub
    // knows as a trading partner, free to put arbitrary bytes on the wire.
    let mut rogue = match cfg.fault {
        ChaosFault::Poison | ChaosFault::Flood { .. } => {
            hub.add_partner(TradingPartner::new(ROGUE));
            Some(ReliableEndpoint::new(
                EndpointId::new(format!("ep:{ROGUE}")),
                retry.clone(),
                &mut net,
            )?)
        }
        _ => None,
    };
    let hub_ep = EndpointId::new(format!("ep:{HUB}"));
    let mut rogue_seq: u64 = 0;

    let start = net.now().as_millis();
    // The rogue goes quiet when the waves stop — otherwise the network
    // never idles and the drain phase runs to its cap.
    let rogue_deadline = start + cfg.waves as u64 * cfg.wave_gap_ms;
    let mut correlations: Vec<(String, CorrelationId)> = Vec::new();
    let mut healthy_done_ms: Option<u64> = None;

    let step = |net: &mut SimNetwork,
                hub: &mut IntegrationEngine,
                partners: &mut Vec<(String, IntegrationEngine)>,
                rogue: &mut Option<ReliableEndpoint>,
                rogue_seq: &mut u64|
     -> Result<()> {
        net.advance(10);
        // Rogue traffic rides the same 10 ms cadence as the pumps.
        if let Some(raw) = rogue.as_mut() {
            let active = net.now().as_millis() < rogue_deadline;
            match cfg.fault {
                _ if !active => {}
                // One identical undecodable payload per 50 ms: the
                // same checksum climbing the poison ladder.
                ChaosFault::Poison if net.now().as_millis().is_multiple_of(50) => {
                    raw.send(
                        net,
                        &hub_ep,
                        wire_format.clone(),
                        Bytes::from(&b"poison: same bytes every time"[..]),
                    )?;
                }
                // A burst of *distinct* garbage per 20 ms: distinct
                // checksums, so the inbound cap (not the poison
                // ladder) is what pushes back.
                ChaosFault::Flood { burst } if net.now().as_millis().is_multiple_of(20) => {
                    for _ in 0..burst {
                        *rogue_seq += 1;
                        raw.send(
                            net,
                            &hub_ep,
                            wire_format.clone(),
                            Bytes::from(format!("flood #{rogue_seq}")),
                        )?;
                    }
                }
                _ => {}
            }
            raw.receive(net)?; // drain acks and the hub's notices
            raw.tick(net)?;
        }
        hub.pump(net)?;
        for (_, p) in partners.iter_mut() {
            p.pump(net)?;
        }
        Ok(())
    };

    // Submission waves.
    for wave in 0..cfg.waves {
        for (name, _) in &partners {
            let po = PoBuilder::new(
                format!("chaos-{wave}-{name}"),
                HUB,
                name,
                Date::new(2001, 9, 17)?,
                Currency::Usd,
            )
            .line("LAPTOP-T23", 1_000 + wave as i64, Money::from_units(1, Currency::Usd))?
            .build()?;
            let c = hub.initiate(&mut net, &format!("{wire_format}-{HUB}-{name}"), po)?;
            correlations.push((name.clone(), c));
        }
        for _ in 0..(cfg.wave_gap_ms / 10) {
            step(&mut net, &mut hub, &mut partners, &mut rogue, &mut rogue_seq)?;
        }
    }

    // Drain: run until the hub is quiescent (or the cap), recording when
    // the healthy-partner sessions all settled.
    let healthy_settled = |hub: &IntegrationEngine, correlations: &[(String, CorrelationId)]| {
        correlations
            .iter()
            .filter(|(name, _)| *name != victim)
            .all(|(name, c)| hub.session_state_with(c, name) != SessionState::InProgress)
    };
    let all_settled = |hub: &IntegrationEngine, correlations: &[(String, CorrelationId)]| {
        correlations
            .iter()
            .all(|(name, c)| hub.session_state_with(c, name) != SessionState::InProgress)
    };
    for _ in 0..(cfg.drain_ms / 10) {
        if healthy_done_ms.is_none() && healthy_settled(&hub, &correlations) {
            healthy_done_ms = Some(net.now().as_millis() - start);
        }
        let ledgers_drained = hub.wire_outstanding() == 0
            && !hub.has_pending_wire()
            && partners.iter().all(|(_, p)| p.wire_outstanding() == 0 && !p.has_pending_wire());
        if all_settled(&hub, &correlations) && net.idle() && ledgers_drained {
            break;
        }
        step(&mut net, &mut hub, &mut partners, &mut rogue, &mut rogue_seq)?;
    }
    if healthy_done_ms.is_none() && healthy_settled(&hub, &correlations) {
        healthy_done_ms = Some(net.now().as_millis() - start);
    }

    // Harvest.
    let states: Vec<(String, String)> = correlations
        .iter()
        .map(|(name, c)| (format!("{name}:{c}"), format!("{:?}", hub.session_state_with(c, name))))
        .collect();
    let completed = states.iter().filter(|(_, s)| s == "Completed").count();
    let failed = states.iter().filter(|(_, s)| s.starts_with("Failed")).count();
    let healthy: Vec<&(String, CorrelationId)> =
        correlations.iter().filter(|(name, _)| *name != victim).collect();
    let healthy_completed = healthy
        .iter()
        .filter(|(name, c)| hub.session_state_with(c, name) == SessionState::Completed)
        .count();
    let fingerprint = format!(
        "stats={:?} health={:?} breakers={:?} states={:?} dead={} net={:?}",
        hub.stats(),
        hub.health_stats(),
        hub.breaker_states(),
        states,
        hub.dead_letters().len(),
        net.stats(),
    );
    let rs = hub.reliable_stats();
    Ok(ChaosReport {
        sessions: correlations.len(),
        completed,
        failed,
        healthy_completed,
        healthy_sessions: healthy.len(),
        healthy_done_ms,
        elapsed_ms: net.now().as_millis() - start,
        wire_sent: hub.stats().wire_sent,
        shed: hub.stats().shed,
        dead_lettered: hub.stats().dead_lettered,
        acked: rs.acks,
        failures: rs.failures,
        reliable_sends: rs.sends,
        breaker_trips: hub.health_stats().breaker_trips,
        poison_trips: hub.health_stats().poison_trips,
        shed_inbound: hub.health_stats().shed_inbound,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_cell_completes_everything() {
        let cfg = ChaosConfig::cell(ChaosFault::None, PartnerPolicy::guarded(), 1);
        let r = run_chaos(&cfg).unwrap();
        r.check_invariant().unwrap();
        assert_eq!(r.completed, r.sessions);
        assert_eq!(r.breaker_trips, 0);
        assert_eq!(r.shed, 0);
    }

    #[test]
    fn black_hole_trips_the_breaker_and_keeps_the_invariant() {
        let cfg = ChaosConfig::cell(ChaosFault::BlackHole, PartnerPolicy::guarded(), 2);
        let r = run_chaos(&cfg).unwrap();
        r.check_invariant().unwrap();
        assert!(r.breaker_trips >= 1, "black hole must trip the victim's breaker");
        assert!(r.shed >= 1, "post-trip sends are shed");
        assert_eq!(r.healthy_completed, r.healthy_sessions, "healthy partners unaffected");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cfg = ChaosConfig::cell(
            ChaosFault::Flap { up_ms: 200, down_ms: 200 },
            PartnerPolicy::guarded(),
            3,
        );
        let first = run_chaos(&cfg).unwrap();
        let second = run_chaos(&cfg).unwrap();
        assert_eq!(first.fingerprint, second.fingerprint, "two identical runs diverged");
    }
}
