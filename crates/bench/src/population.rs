//! The seeded partner-population and traffic generator.
//!
//! One hub enterprise trades with many lightweight simulated partners:
//! each partner is a raw [`ReliableEndpoint`] (the chaos harness's rogue
//! idiom) plus a behaviour — *responders* decode the
//! hub's RFQ, synthesize a protocol-correct quote, and reply;
//! *lurkers* acknowledge the wire delivery and then go silent forever,
//! which leaves the hub's session open and idle. Traffic is
//! Zipf-skewed across the population, wire formats are mixed
//! (RosettaNet text and the compact binary codec), and the network can
//! inject duplicates and loss. Everything derives from the seed, so two
//! population runs are byte-identical — which the determinism tests
//! assert via [`PopulationReport::fingerprint`].

use b2b_core::engine::IntegrationEngine;
use b2b_core::error::{IntegrationError, Result};
use b2b_core::partner::TradingPartner;
use b2b_document::{
    record, CorrelationId, Currency, Date, DocKind, Document, FormatId, FormatRegistry, Money,
    Value,
};
use b2b_network::{
    Bytes, EndpointId, Envelope, FaultConfig, ReliableConfig, ReliableEndpoint, SimNetwork,
};
use b2b_protocol::{MessageExchangePattern, TradingPartnerAgreement};
use b2b_transform::{TransformContext, TransformRegistry};

/// The hub enterprise of every population run.
pub const HUB: &str = "HUB";

/// Trading partners in a generated population.
pub const PARTNERS: usize = 8;
/// Sessions a generated traffic plan initiates.
pub const SESSIONS: usize = 64;
/// Sessions initiated per wave. Bounded waves keep the in-flight
/// document count (and therefore the directed-queue wake scans)
/// proportional to the wave, not the population.
pub const WAVE: usize = 32;

/// One generated partner: name and index are implied by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartnerSpec {
    /// Trades on the compact binary wire format instead of RosettaNet.
    pub binary: bool,
    /// Answers RFQs with quotes; lurkers ack and go silent.
    pub responder: bool,
}

/// A generated population + traffic plan: pure function of the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationPlan {
    /// The generation seed (also seeds the network of a run).
    pub seed: u64,
    /// The partner population.
    pub partners: Vec<PartnerSpec>,
    /// Zipf-skewed partner index per session, in initiation order.
    pub traffic: Vec<u32>,
}

/// Deterministic splitmix64 — the plan generator's only entropy
/// source, so plans are reproducible on any host.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn fraction(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl PopulationPlan {
    /// The canonical name of a partner by population index.
    pub fn partner_name(index: usize) -> String {
        format!("P{index:05}")
    }

    /// Generates the plan for `seed`: [`PARTNERS`] partner attributes first
    /// (mixed wire formats, ~60% responders), then a Zipf(1.1)-skewed
    /// sequence of [`SESSIONS`] over the population — the head partners
    /// see many more sessions than the tail, like a real hub's partner
    /// book.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xB2B_CAFE);
        let partners: Vec<PartnerSpec> = (0..PARTNERS)
            .map(|_| PartnerSpec {
                binary: rng.next().is_multiple_of(2),
                responder: rng.fraction() < 0.6,
            })
            .collect();
        // Cumulative Zipf weights, exponent 1.1.
        let mut cumulative = Vec::with_capacity(partners.len());
        let mut total = 0.0f64;
        for k in 0..partners.len() {
            total += 1.0 / ((k + 1) as f64).powf(1.1);
            cumulative.push(total);
        }
        let traffic: Vec<u32> = (0..SESSIONS)
            .map(|_| {
                let r = rng.fraction() * total;
                cumulative.partition_point(|&c| c <= r).min(partners.len() - 1) as u32
            })
            .collect();
        Self { seed, partners, traffic }
    }

    /// Sessions aimed at responder partners (the ones that complete).
    pub fn responder_sessions(&self) -> usize {
        self.traffic.iter().filter(|&&p| self.partners[p as usize].responder).count()
    }
}

/// How a population run is executed (the plan says *what* happens; this
/// says how it is driven).
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Inject wire faults: 0.5% loss + 1% duplicates (all seeded).
    pub faults: bool,
    /// Initiate each traffic wave with deferred settles: the whole
    /// wave's RFQs drain through *one* settle pass — the bulk-traffic
    /// shape. Off = one settle per initiate.
    pub bulk_initiate: bool,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self { faults: true, bulk_initiate: false }
    }
}

/// One lightweight simulated partner: a raw reliable endpoint plus a
/// behaviour. No engine, no workflow database — a thousand of these
/// cost what one `IntegrationEngine` does.
struct PartnerSim {
    endpoint: ReliableEndpoint,
    format: FormatId,
    responder: bool,
    ctx: TransformContext,
    price: Money,
    /// Suppressed duplicate deliveries observed (fault-injection runs).
    duplicates: u64,
    /// Quotes sent.
    replied: u64,
}

impl PartnerSim {
    /// Drains the inbox; responders decode each RFQ, build the quote a
    /// real seller's `make-quote` activity would, render it into their
    /// wire format, and send it back. Lurkers let `receive` acknowledge
    /// the delivery and drop the payload.
    fn pump(
        &mut self,
        net: &mut SimNetwork,
        hub_ep: &EndpointId,
        formats: &FormatRegistry,
        transforms: &TransformRegistry,
    ) -> Result<()> {
        let batch = self.endpoint.receive_classified(net)?;
        self.duplicates += batch.duplicates;
        if self.responder {
            for env in batch.payloads {
                self.reply_to(net, hub_ep, formats, transforms, env)?;
            }
        }
        self.endpoint.tick(net)?;
        Ok(())
    }

    fn reply_to(
        &mut self,
        net: &mut SimNetwork,
        hub_ep: &EndpointId,
        formats: &FormatRegistry,
        transforms: &TransformRegistry,
        env: Envelope,
    ) -> Result<()> {
        let wire_doc = formats.decode_bytes(&env.format, &env.payload)?;
        if wire_doc.kind() != DocKind::RequestForQuote {
            return Ok(());
        }
        let rfq = transforms.transform(&wire_doc, &FormatId::NORMALIZED, &self.ctx)?;
        let field = |what: &str, e: String| {
            IntegrationError::Config(format!("population RFQ missing {what}: {e}"))
        };
        let rfq_number = rfq
            .get("header.rfq_number")
            .and_then(|v| v.as_text("rfq_number").map(str::to_string))
            .map_err(|e| field("rfq_number", e.to_string()))?;
        let respond_by = rfq
            .get("header.respond_by")
            .and_then(|v| v.as_date("respond_by"))
            .map_err(|e| field("respond_by", e.to_string()))?;
        let body = record! {
            "header" => record! {
                "rfq_number" => Value::text(&rfq_number),
                "seller" => Value::text(&self.ctx.sender),
                "unit_price" => Value::Money(self.price),
                "valid_until" => Value::Date(respond_by.plus_days(30)),
            },
        };
        let quote = rfq.reply(DocKind::Quote, FormatId::NORMALIZED, body);
        let wire_quote = transforms.transform(&quote, &self.format, &self.ctx)?;
        let bytes = formats.encode(&wire_quote)?;
        self.endpoint.send(net, hub_ep, self.format.clone(), Bytes::from(bytes))?;
        self.replied += 1;
        Ok(())
    }
}

/// The hub plus its simulated partner population, ready to take
/// traffic. Building one installs an agreement (and the per-partner
/// public/binding processes) for every partner.
pub struct Population {
    /// The seeded network.
    pub net: SimNetwork,
    /// The hub engine under test.
    pub hub: IntegrationEngine,
    partners: Vec<PartnerSim>,
    agreement_ids: Vec<String>,
    formats: FormatRegistry,
    transforms: TransformRegistry,
    hub_ep: EndpointId,
    sessions_initiated: usize,
}

impl Population {
    /// Builds the hub and population for `plan` under `cfg`.
    pub fn build(plan: &PopulationPlan, cfg: &PopulationConfig) -> Result<Self> {
        let faults = if cfg.faults {
            FaultConfig { loss: 0.005, duplicate: 0.01, ..FaultConfig::reliable() }
        } else {
            FaultConfig::reliable()
        };
        let mut net = SimNetwork::new(faults, plan.seed);
        let mut hub = IntegrationEngine::new(HUB, &mut net)?;
        let mut partners = Vec::with_capacity(plan.partners.len());
        let mut agreement_ids = Vec::with_capacity(plan.partners.len());
        for (i, spec) in plan.partners.iter().enumerate() {
            let name = PopulationPlan::partner_name(i);
            hub.add_partner(TradingPartner::new(&name));
            let wire_format = if spec.binary { FormatId::BINARY } else { FormatId::ROSETTANET };
            let (init, resp) = MessageExchangePattern::RequestReply {
                request: DocKind::RequestForQuote,
                reply: DocKind::Quote,
            }
            .role_processes(&format!("rfq-{name}"), wire_format.clone())?;
            let agreement = TradingPartnerAgreement::between(
                &format!("rfq-{name}"),
                HUB,
                &name,
                &init,
                &resp,
                true,
            )?;
            hub.install_agreement(agreement.clone(), &init, &resp)?;
            agreement_ids.push(agreement.id.clone());
            let endpoint = ReliableEndpoint::new(
                EndpointId::new(format!("ep:{name}")),
                ReliableConfig::default(),
                &mut net,
            )?;
            partners.push(PartnerSim {
                endpoint,
                format: wire_format,
                responder: spec.responder,
                ctx: TransformContext::new(&name, HUB, "000000001", &format!("i-{name}")),
                price: Money::from_units(800 + (i % 397) as i64, Currency::Usd),
                duplicates: 0,
                replied: 0,
            });
        }
        let hub_ep = EndpointId::new(format!("ep:{HUB}"));
        Ok(Self {
            net,
            hub,
            partners,
            agreement_ids,
            formats: FormatRegistry::with_builtins(),
            transforms: TransformRegistry::with_builtins(),
            hub_ep,
            sessions_initiated: 0,
        })
    }

    /// Builds the next uniquely-numbered RFQ. Session numbers come from
    /// an internal counter so every RFQ number (and therefore
    /// correlation) is unique across the run.
    fn next_rfq(&mut self) -> Document {
        let n = self.sessions_initiated;
        self.sessions_initiated += 1;
        let number = format!("S{n:07}");
        Document::new(
            DocKind::RequestForQuote,
            FormatId::NORMALIZED,
            CorrelationId::for_rfq_number(&number),
            record! {
                "header" => record! {
                    "rfq_number" => Value::text(&number),
                    "buyer" => Value::text(HUB),
                    "item" => Value::text("LAPTOP-T23"),
                    "quantity" => Value::Int(100),
                    "respond_by" => Value::Date(Date::new(2001, 10, 1).expect("date")),
                },
            },
        )
    }

    /// Initiates one session toward partner `index`, settling (and
    /// therefore sending the RFQ) immediately.
    pub fn initiate(&mut self, index: usize) -> Result<CorrelationId> {
        let rfq = self.next_rfq();
        let Population { net, hub, agreement_ids, .. } = self;
        hub.initiate(net, &agreement_ids[index], rfq)
    }

    /// Initiates one session toward partner `index` with the settle
    /// deferred to the next [`step`](Self::step): a wave initiated this
    /// way settles in one settle pass and drains through one emit pass.
    pub fn initiate_deferred(&mut self, index: usize) -> Result<CorrelationId> {
        let rfq = self.next_rfq();
        self.hub.initiate_deferred(&self.agreement_ids[index], rfq)
    }

    /// One simulation step: advance 10 ms, pump the hub, pump every
    /// partner.
    pub fn step(&mut self) -> Result<()> {
        let Population { net, hub, partners, formats, transforms, hub_ep, .. } = self;
        net.advance(10);
        hub.pump(net)?;
        for p in partners.iter_mut() {
            p.pump(net, hub_ep, formats, transforms)?;
        }
        Ok(())
    }

    /// Whether the run is quiescent: no queued network traffic and no
    /// unresolved reliable sends on either side.
    pub fn quiescent(&self) -> bool {
        self.net.idle()
            && self.hub.wire_outstanding() == 0
            && !self.hub.has_pending_wire()
            && self.partners.iter().all(|p| p.endpoint.outstanding_count() == 0)
    }

    /// Steps until quiescent, up to `max_steps`. Returns the steps
    /// taken.
    pub fn drain(&mut self, max_steps: usize) -> Result<usize> {
        for step in 0..max_steps {
            if self.quiescent() {
                return Ok(step);
            }
            self.step()?;
        }
        Ok(max_steps)
    }

    /// Quotes sent across the population.
    pub fn replies(&self) -> u64 {
        self.partners.iter().map(|p| p.replied).sum()
    }

    /// Duplicate deliveries the partner endpoints suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.partners.iter().map(|p| p.duplicates).sum()
    }

    /// Sessions initiated so far.
    pub fn sessions_initiated(&self) -> usize {
        self.sessions_initiated
    }
}

/// Everything observable about one population run.
#[derive(Debug, Clone)]
pub struct PopulationReport {
    /// Sessions initiated.
    pub sessions: usize,
    /// Hub sessions completed (responder traffic).
    pub completed: usize,
    /// Quotes the partner sims sent.
    pub replies: u64,
    /// Hub documents routed to sessions.
    pub routed_docs: u64,
    /// Hub settle counters at the end of the run.
    pub settle: b2b_wfms::SettleMetrics,
    /// Byte-comparable digest of every deterministic observable.
    pub fingerprint: String,
}

/// Runs `plan` to quiescence under `cfg`: initiates sessions in
/// bounded waves, draining between waves, then harvests a report whose
/// fingerprint covers every deterministic observable (integration
/// stats, WFMS counters, session outcomes, stage counters, codec cache
/// traffic, health, network counters, settle rounds/touched).
pub fn run_population(plan: &PopulationPlan, cfg: &PopulationConfig) -> Result<PopulationReport> {
    let mut pop = Population::build(plan, cfg)?;
    let sim_start = pop.net.now().as_millis();
    let mut initiated = 0;
    while initiated < plan.traffic.len() {
        let end = (initiated + WAVE).min(plan.traffic.len());
        for &p in &plan.traffic[initiated..end] {
            if cfg.bulk_initiate {
                pop.initiate_deferred(p as usize)?;
            } else {
                pop.initiate(p as usize)?;
            }
        }
        if cfg.bulk_initiate {
            // Deferred instances only move on a pump; `quiescent`
            // cannot see them, so force the settling step.
            pop.step()?;
        }
        initiated = end;
        pop.drain(4_000)?;
    }
    pop.drain(20_000)?;
    if !pop.quiescent() {
        return Err(IntegrationError::Config("population run failed to quiesce".into()));
    }
    let settle = pop.hub.settle_metrics();
    let profile = pop.hub.stage_profile();
    let fingerprint = format!(
        "stats={:?} wf={:?} completed={} replies={} dups={} stages={:?} cache={:?} \
         health={:?} breakers={:?} dead={} sim={} net={:?} settle=({},{},{})",
        pop.hub.stats(),
        pop.hub.wf().stats(),
        pop.hub.completed_sessions(),
        pop.replies(),
        pop.duplicates_suppressed(),
        profile.counters,
        pop.hub.codec_cache_stats(),
        pop.hub.health_stats(),
        pop.hub.breaker_states(),
        pop.hub.dead_letters().len(),
        pop.net.now().as_millis() - sim_start,
        pop.net.stats(),
        settle.instances_resident,
        settle.rounds,
        settle.touched_total,
    );
    Ok(PopulationReport {
        sessions: plan.traffic.len(),
        completed: pop.hub.completed_sessions(),
        replies: pop.replies(),
        routed_docs: profile.counters.routed_documents,
        settle,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible_and_zipf_skewed() {
        let a = PopulationPlan::generate(7);
        let b = PopulationPlan::generate(7);
        assert_eq!(a, b, "the same seed must generate the same plan");
        let c = PopulationPlan::generate(8);
        assert_ne!(a, c, "different seeds must differ");
        // Zipf skew: the head partner sees more traffic than the tail.
        let count = |p: u32| a.traffic.iter().filter(|&&t| t == p).count();
        let head = count(0);
        let tail = count((a.partners.len() - 1) as u32);
        assert!(head > tail, "head partner ({head}) must out-trade the tail ({tail})");
    }

    #[test]
    fn tiny_population_completes_responder_sessions() {
        let plan = PopulationPlan::generate(20_010_917);
        let report = run_population(&plan, &PopulationConfig::default()).expect("population run");
        assert_eq!(report.sessions, plan.traffic.len());
        assert_eq!(
            report.completed,
            plan.responder_sessions(),
            "every responder-directed session completes, every lurker session idles"
        );
        assert!(report.replies >= report.completed as u64);
        assert!(report.routed_docs > 0);
    }

    #[test]
    fn population_runs_are_deterministic() {
        let plan = PopulationPlan::generate(11);
        let first = run_population(&plan, &PopulationConfig::default()).expect("first run");
        let second = run_population(&plan, &PopulationConfig::default()).expect("second run");
        assert_eq!(first.fingerprint, second.fingerprint, "two identical runs diverged");
    }

    #[test]
    fn bulk_waves_match_per_initiate_runs() {
        let plan = PopulationPlan::generate(11);
        let classic = run_population(&plan, &PopulationConfig::default()).expect("classic");
        let bulk_cfg = PopulationConfig { bulk_initiate: true, ..PopulationConfig::default() };
        let bulk = run_population(&plan, &bulk_cfg).expect("bulk");
        // Deferring a wave changes *when* first legs settle, not what the
        // population computes: completions and replies must agree.
        assert_eq!(classic.completed, bulk.completed);
        assert_eq!(classic.replies, bulk.replies);
        // One settle pass per wave runs the whole wave, and a second run
        // of it is byte-identical.
        let again = run_population(&plan, &bulk_cfg).expect("bulk again");
        assert_eq!(bulk.fingerprint, again.fingerprint, "two identical bulk runs diverged");
    }
}
