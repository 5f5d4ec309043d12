//! The RFQ hub workloads: one hub engine broadcasting requests for quote
//! to a seeded, Zipf-skewed partner population.
//!
//! The plan is the Medium population of the repository's population
//! harness (512 partners, 20,000 sessions in waves of 1,000, Zipf(1.1)
//! traffic, ~50/50 RosettaNet/binary wire formats, ~60% responders),
//! generated here with the same algorithm so the benchmark does not link
//! that crate's allocator. Responders decode the RFQ and send a quote
//! back; lurkers acknowledge it and stay silent, so their hub sessions
//! stay open by design.

use crate::calib::{Reference, REFERENCE_SAMPLES};
use crate::meter::{format_slot, timed, Call, CodecTimes, Counters, Harness, Pass};
use b2b_core::error::{IntegrationError, Result};
use b2b_core::{IntegrationEngine, SessionState, TradingPartner};
use b2b_document::{
    record, CorrelationId, Currency, Date, DocKind, Document, FormatId, FormatRegistry, Money,
    Value,
};
use b2b_network::{
    Bytes, EndpointId, Envelope, FaultConfig, ReliableConfig, ReliableEndpoint, SimNetwork,
};
use b2b_protocol::{MessageExchangePattern, TradingPartnerAgreement};
use b2b_transform::{TransformContext, TransformRegistry};

const HUB: &str = "HUB";
/// The population harness's default seed, which fixes the partner book.
const POPULATION_SEED: u64 = 20_010_917;
const PARTNERS: usize = 512;
const SESSIONS: usize = 20_000;
const WAVE: usize = 1_000;
/// Simulated steps a wave may take to quiesce before the pass fails.
const MAX_WAVE_STEPS: usize = 20_000;

/// How the hub initiates a wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `initiate` per session: one settle/emit pass per RFQ, shards 1.
    Population,
    /// `initiate_deferred` for the whole wave, then one pump drains it
    /// through a single settle/emit pass, shards 2.
    Bulk,
}

impl Mode {
    fn shards(self) -> usize {
        match self {
            Self::Population => 1,
            Self::Bulk => 2,
        }
    }
}

/// One generated partner.
#[derive(Debug, Clone, Copy)]
struct PartnerSpec {
    binary: bool,
    responder: bool,
}

/// The seeded population and traffic plan.
pub struct Plan {
    partners: Vec<PartnerSpec>,
    traffic: Vec<u32>,
    seed: u64,
}

/// splitmix64: the plan generator's only entropy source.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn fraction(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Plan {
    /// The Medium plan for `seed`. The partner book is fixed: the
    /// population harness's Medium partners at its default seed, so every
    /// seed trades with the same mix of formats and behaviours. The seed
    /// draws the Zipf(1.1) traffic over that book and seeds the network's
    /// faults. (Letting the seed redraw the book too would let it decide
    /// whether the few head partners, which carry most of the traffic,
    /// answer or lurk, and swing the workload's shape from seed to seed.)
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64(POPULATION_SEED ^ 0xB2B_CAFE);
        let partners: Vec<PartnerSpec> = (0..PARTNERS)
            .map(|_| PartnerSpec {
                binary: rng.next().is_multiple_of(2),
                responder: rng.fraction() < 0.6,
            })
            .collect();
        let mut cumulative = Vec::with_capacity(partners.len());
        let mut total = 0.0f64;
        for k in 0..partners.len() {
            total += 1.0 / ((k + 1) as f64).powf(1.1);
            cumulative.push(total);
        }
        let mut rng = SplitMix64(seed ^ 0x5E55_1045);
        let traffic = (0..SESSIONS)
            .map(|_| {
                let r = rng.fraction() * total;
                cumulative.partition_point(|&c| c <= r).min(partners.len() - 1) as u32
            })
            .collect();
        Self { partners, traffic, seed }
    }

    /// Sessions aimed at responders: the ones that must complete.
    pub fn responder_sessions(&self) -> usize {
        self.traffic.iter().filter(|&&p| self.partners[p as usize].responder).count()
    }
}

/// One simulated partner: a raw reliable endpoint plus a behaviour.
struct PartnerSim {
    endpoint: ReliableEndpoint,
    format: FormatId,
    responder: bool,
    ctx: TransformContext,
    price: Money,
    replied: u64,
}

impl PartnerSim {
    /// Drains the inbox; responders answer each RFQ with a quote.
    fn pump(
        &mut self,
        net: &mut SimNetwork,
        hub_ep: &EndpointId,
        registries: &Registries,
        traced: bool,
        times: &mut CodecTimes,
    ) -> Result<()> {
        let batch = self.endpoint.receive_classified(net)?;
        if self.responder {
            for env in batch.payloads {
                self.reply_to(net, hub_ep, registries, traced, times, env)?;
            }
        }
        self.endpoint.tick(net)?;
        Ok(())
    }

    fn reply_to(
        &mut self,
        net: &mut SimNetwork,
        hub_ep: &EndpointId,
        reg: &Registries,
        traced: bool,
        times: &mut CodecTimes,
        env: Envelope,
    ) -> Result<()> {
        let slot = format_slot(&env.format);
        let wire_doc = timed(traced, &mut times.decode[slot], || {
            reg.formats.decode_bytes(&env.format, &env.payload)
        })?;
        if wire_doc.kind() != DocKind::RequestForQuote {
            return Ok(());
        }
        let rfq = timed(traced, &mut times.transform, || {
            reg.transforms.transform(&wire_doc, &FormatId::NORMALIZED, &self.ctx)
        })?;
        let field =
            |what: &str, e: String| IntegrationError::Config(format!("RFQ missing {what}: {e}"));
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
        let wire_quote = timed(traced, &mut times.transform, || {
            reg.transforms.transform(&quote, &self.format, &self.ctx)
        })?;
        let bytes = timed(traced, &mut times.encode[slot], || reg.formats.encode(&wire_quote))?;
        self.endpoint.send(net, hub_ep, self.format.clone(), Bytes::from(bytes))?;
        self.replied += 1;
        Ok(())
    }
}

struct Registries {
    formats: FormatRegistry,
    transforms: TransformRegistry,
}

/// The hub, its partner population and the network between them.
pub struct World {
    net: SimNetwork,
    hub: IntegrationEngine,
    partners: Vec<PartnerSim>,
    agreement_ids: Vec<String>,
    registries: Registries,
    hub_ep: EndpointId,
}

impl World {
    /// Builds the hub, its partners and their agreements.
    pub fn build(plan: &Plan, mode: Mode) -> Result<Self> {
        let faults = FaultConfig { loss: 0.005, duplicate: 0.01, ..FaultConfig::reliable() };
        let mut net = SimNetwork::new(faults, plan.seed);
        let mut hub = IntegrationEngine::new(HUB, &mut net)?;
        hub.set_shards(mode.shards());
        let mut partners = Vec::with_capacity(plan.partners.len());
        let mut agreement_ids = Vec::with_capacity(plan.partners.len());
        for (i, spec) in plan.partners.iter().enumerate() {
            let name = format!("P{i:05}");
            hub.add_partner(TradingPartner::new(&name));
            let format = if spec.binary { FormatId::BINARY } else { FormatId::ROSETTANET };
            let (init, resp) = MessageExchangePattern::RequestReply {
                request: DocKind::RequestForQuote,
                reply: DocKind::Quote,
            }
            .role_processes(&format!("rfq-{name}"), format.clone())?;
            let agreement = TradingPartnerAgreement::between(
                &format!("rfq-{name}"),
                HUB,
                &name,
                &init,
                &resp,
                true,
            )?;
            agreement_ids.push(agreement.id.clone());
            hub.install_agreement(agreement, &init, &resp)?;
            let endpoint = ReliableEndpoint::new(
                EndpointId::new(format!("ep:{name}")),
                ReliableConfig::default(),
                &mut net,
            )?;
            partners.push(PartnerSim {
                endpoint,
                format,
                responder: spec.responder,
                ctx: TransformContext::new(&name, HUB, "000000001", &format!("i-{name}")),
                price: Money::from_units(800 + (i % 397) as i64, Currency::Usd),
                replied: 0,
            });
        }
        Ok(Self {
            net,
            hub,
            partners,
            agreement_ids,
            registries: Registries {
                formats: FormatRegistry::with_builtins(),
                transforms: TransformRegistry::with_builtins(),
            },
            hub_ep: EndpointId::new(format!("ep:{HUB}")),
        })
    }

    /// One simulated step: advance 10 ms, pump the hub, pump every
    /// partner.
    fn step(&mut self, pass: &mut Pass) -> Result<()> {
        let World { net, hub, partners, registries, hub_ep, .. } = self;
        pass.harness(Harness::Network, |_| net.advance(10));
        pass.call(Call::Pump, hub, |hub| hub.pump(net))?;
        let traced = pass.traced;
        pass.harness(Harness::Partner, |codec| {
            for p in partners.iter_mut() {
                p.pump(net, hub_ep, registries, traced, codec)?;
            }
            Ok(())
        })
    }

    /// No queued network traffic and no unresolved reliable send on
    /// either side: checked with counters only.
    fn quiescent(&self) -> bool {
        self.net.idle()
            && self.hub.wire_outstanding() == 0
            && !self.hub.has_pending_wire()
            && self.partners.iter().all(|p| p.endpoint.outstanding_count() == 0)
    }
}

fn rfq(n: usize) -> Document {
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
                "respond_by" => Value::Date(Date::new(2001, 10, 1).expect("valid date")),
            },
        },
    )
}

/// Runs the whole plan once on fresh engines.
pub fn run_pass(plan: &Plan, mode: Mode, traced: bool, reference: &mut Reference) -> Result<Pass> {
    let mut pass = Pass::new(traced);
    let mut world = World::build(plan, mode)?;

    pass.initiate_us.reserve(SESSIONS);
    pass.session_sim_ms.reserve(SESSIONS);
    pass.doc_latency.reserve(1 << 16);
    let mut pending: Vec<(CorrelationId, u64)> = Vec::with_capacity(WAVE);
    let baseline = crate::alloc::snapshot();
    crate::alloc::reset_peak();
    let traffic_started = std::time::Instant::now();

    for (w, wave) in plan.traffic.chunks(WAVE).enumerate() {
        if w % (SESSIONS / WAVE / REFERENCE_SAMPLES) == 0 {
            pass.sample_reference(reference);
        }
        let sent_at = world.net.now().as_millis();
        for (i, &p) in wave.iter().enumerate() {
            let doc = rfq(w * WAVE + i);
            let World { net, hub, agreement_ids, .. } = &mut world;
            let id = &agreement_ids[p as usize];
            let correlation = pass.call(Call::Initiate, hub, |hub| match mode {
                Mode::Population => hub.initiate(net, id, doc),
                Mode::Bulk => hub.initiate_deferred(id, doc),
            })?;
            if plan.partners[p as usize].responder {
                pending.push((correlation, sent_at));
            }
        }
        pass.sessions += wave.len() as u64;
        let mut completed = world.hub.completed_sessions();
        let mut steps = 0;
        // A deferred wave only moves on a pump, which `quiescent` cannot
        // see, so the bulk mode always takes the first step.
        while mode == Mode::Bulk && steps == 0 || !world.quiescent() {
            if steps == MAX_WAVE_STEPS {
                return Err(IntegrationError::Config(format!("wave {w} did not quiesce")));
            }
            world.step(&mut pass)?;
            steps += 1;
            if world.hub.completed_sessions() != completed {
                completed = world.hub.completed_sessions();
                let now = world.net.now().as_millis();
                let hub = &world.hub;
                pending.retain(|(c, t0)| {
                    let done = hub.session_state(c) == SessionState::Completed;
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
    pass.counters = Counters::of(&world.hub);

    let expected = plan.responder_sessions() as u64;
    let completed = world.hub.completed_sessions() as u64;
    let replies: u64 = world.partners.iter().map(|p| p.replied).sum();
    pass.check(completed == expected, || {
        format!("completed {completed} sessions, expected {expected} (responder sessions)")
    });
    pass.check(replies == completed, || format!("{replies} quotes for {completed} completions"));
    let dead = pass.counters.dead_letters;
    pass.check(dead == 0, || format!("{dead} dead letters"));
    let delivery_failures = world.hub.stats().delivery_failures;
    pass.check(delivery_failures == 0, || format!("{delivery_failures} delivery failures"));
    Ok(pass)
}
