//! The seeded partner-population and traffic generator behind
//! experiment E21.
//!
//! One hub enterprise trades with thousands of lightweight simulated
//! partners: each partner is a raw [`ReliableEndpoint`] (the chaos
//! harness's rogue idiom) plus a behaviour — *responders* decode the
//! hub's RFQ, synthesize a protocol-correct quote, and reply;
//! *lurkers* acknowledge the wire delivery and then go silent forever,
//! which leaves the hub's session open and idle. Traffic is
//! Zipf-skewed across the population, wire formats are mixed
//! (RosettaNet text and the compact binary codec), and the network can
//! inject duplicates and loss. Everything derives from
//! ([`SizeTier`], seed), so a population run is byte-identical across
//! shard counts — which E21 and the differential proptests assert via
//! [`PopulationReport::fingerprint`].

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
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The hub enterprise of every population run.
pub const HUB: &str = "HUB";

/// Default seed of the population harness; override per call site.
pub const DEFAULT_POPULATION_SEED: u64 = 20_010_917;

/// Fixture scale, Tiny → Huge, modeled on the omtsf fixture-tier
/// design the ROADMAP describes: every size-sensitive experiment takes
/// a tier instead of a hard-coded count, and the big tiers can be
/// written to disk once so full runs don't pay generation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SizeTier {
    /// Smoke-test scale: unit tests.
    Tiny,
    /// CI scale: the `--quick` identity/flat-cost pass.
    Small,
    /// Development scale: fast local iteration.
    Medium,
    /// The E21 acceptance scale: ≥ 2,000 partners, ≥ 100k sessions.
    Large,
    /// The million-session tier; generated to a disk fixture once.
    Huge,
}

impl SizeTier {
    /// All tiers, ascending.
    pub fn all() -> [SizeTier; 5] {
        [Self::Tiny, Self::Small, Self::Medium, Self::Large, Self::Huge]
    }

    /// Lower-case tier name (fixture file names, CLI args).
    pub fn name(self) -> &'static str {
        match self {
            Self::Tiny => "tiny",
            Self::Small => "small",
            Self::Medium => "medium",
            Self::Large => "large",
            Self::Huge => "huge",
        }
    }

    /// Parses a tier name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|t| t.name().eq_ignore_ascii_case(name))
    }

    /// The tier named by `B2B_TIER`, or `default` when unset/unknown.
    pub fn from_env(default: Self) -> Self {
        std::env::var("B2B_TIER").ok().and_then(|v| Self::from_name(&v)).unwrap_or(default)
    }

    /// Trading partners in the population.
    pub fn partners(self) -> usize {
        match self {
            Self::Tiny => 8,
            Self::Small => 64,
            Self::Medium => 512,
            Self::Large => 2_000,
            Self::Huge => 4_000,
        }
    }

    /// Sessions the traffic plan initiates.
    pub fn sessions(self) -> usize {
        match self {
            Self::Tiny => 64,
            Self::Small => 2_000,
            Self::Medium => 20_000,
            Self::Large => 100_000,
            Self::Huge => 1_000_000,
        }
    }

    /// Sessions initiated per wave. Bounded waves keep the in-flight
    /// document count (and therefore the directed-queue wake scans)
    /// proportional to the wave, not the population.
    pub fn wave(self) -> usize {
        match self {
            Self::Tiny => 32,
            Self::Small => 250,
            Self::Medium => 1_000,
            Self::Large | Self::Huge => 2_000,
        }
    }

    /// Sellers for the RFQ-broadcast experiment family (E17/E19/E20).
    /// `Small` is the historical 24-seller configuration every recorded
    /// baseline used.
    pub fn broadcast_sellers(self) -> usize {
        match self {
            Self::Tiny => 3,
            Self::Small => 24,
            Self::Medium => 64,
            Self::Large => 160,
            Self::Huge => 320,
        }
    }
}

/// One generated partner: name and index are implied by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartnerSpec {
    /// Trades on the compact binary wire format instead of RosettaNet.
    pub binary: bool,
    /// Answers RFQs with quotes; lurkers ack and go silent.
    pub responder: bool,
}

/// A generated population + traffic plan: pure function of
/// (tier, seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationPlan {
    /// The tier this plan was generated at.
    pub tier: SizeTier,
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

const FIXTURE_MAGIC: &[u8; 8] = b"B2BPOP1\n";

impl PopulationPlan {
    /// The canonical name of a partner by population index.
    pub fn partner_name(index: usize) -> String {
        format!("P{index:05}")
    }

    /// Generates the plan for (tier, seed): partner attributes first
    /// (mixed wire formats, ~60% responders), then a Zipf(1.1)-skewed
    /// traffic sequence over the population — the head partners see
    /// orders of magnitude more sessions than the tail, like a real
    /// hub's partner book.
    pub fn generate(tier: SizeTier, seed: u64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xB2B_CAFE);
        let partners: Vec<PartnerSpec> = (0..tier.partners())
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
        let traffic: Vec<u32> = (0..tier.sessions())
            .map(|_| {
                let r = rng.fraction() * total;
                cumulative.partition_point(|&c| c <= r).min(partners.len() - 1) as u32
            })
            .collect();
        Self { tier, seed, partners, traffic }
    }

    /// Sessions aimed at responder partners (the ones that complete).
    pub fn responder_sessions(&self) -> usize {
        self.traffic.iter().filter(|&&p| self.partners[p as usize].responder).count()
    }

    /// The fixture path of (tier, seed) under `dir`.
    pub fn fixture_path(dir: &Path, tier: SizeTier, seed: u64) -> PathBuf {
        dir.join(format!("population_{}_{seed}.bin", tier.name()))
    }

    /// Serializes the plan to a compact binary fixture.
    pub fn write_fixture(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = Self::fixture_path(dir, self.tier, self.seed);
        let mut buf = Vec::with_capacity(32 + self.partners.len() + self.traffic.len() * 4);
        buf.extend_from_slice(FIXTURE_MAGIC);
        buf.push(self.tier as u8);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&(self.partners.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.traffic.len() as u64).to_le_bytes());
        for p in &self.partners {
            buf.push(u8::from(p.binary) | (u8::from(p.responder) << 1));
        }
        for &t in &self.traffic {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&buf)?;
        Ok(path)
    }

    /// Deserializes a fixture written by [`write_fixture`](Self::write_fixture).
    pub fn read_fixture(path: &Path) -> std::io::Result<Self> {
        let bad = |what: &str| std::io::Error::other(format!("fixture {path:?}: {what}"));
        let bytes = std::fs::read(path)?;
        if bytes.len() < 29 || &bytes[..8] != FIXTURE_MAGIC {
            return Err(bad("bad header"));
        }
        let tier = match bytes[8] {
            0 => SizeTier::Tiny,
            1 => SizeTier::Small,
            2 => SizeTier::Medium,
            3 => SizeTier::Large,
            4 => SizeTier::Huge,
            _ => return Err(bad("unknown tier")),
        };
        let seed = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
        let partners_n = u32::from_le_bytes(bytes[17..21].try_into().expect("4 bytes")) as usize;
        let sessions_n = u64::from_le_bytes(bytes[21..29].try_into().expect("8 bytes")) as usize;
        let traffic_at = 29 + partners_n;
        if bytes.len() != traffic_at + sessions_n * 4 {
            return Err(bad("truncated"));
        }
        let partners = bytes[29..traffic_at]
            .iter()
            .map(|&f| PartnerSpec { binary: f & 1 != 0, responder: f & 2 != 0 })
            .collect();
        let traffic = bytes[traffic_at..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        Ok(Self { tier, seed, partners, traffic })
    }

    /// Loads the fixture for (tier, seed) from `dir`, generating and
    /// writing it first if absent — the "large tiers on disk" path that
    /// spares full runs the generation cost. Falls back to in-memory
    /// generation when the directory isn't writable (read-only CI).
    pub fn load_or_generate(tier: SizeTier, seed: u64, dir: &Path) -> Self {
        let path = Self::fixture_path(dir, tier, seed);
        if let Ok(plan) = Self::read_fixture(&path) {
            if plan.tier == tier && plan.seed == seed {
                return plan;
            }
        }
        let plan = Self::generate(tier, seed);
        let _ = plan.write_fixture(dir);
        plan
    }
}

/// How a population run is executed (the plan says *what* happens; this
/// says on what machine shape).
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Hub worker shards for the execute stage.
    pub shards: usize,
    /// Inject wire faults: 0.5% loss + 1% duplicates (all seeded).
    pub faults: bool,
    /// Initiate each traffic wave with deferred settles: the whole
    /// wave's RFQs drain through *one* settle pass — the bulk-traffic
    /// shape. Off = E21's classic one-settle-per-initiate traffic.
    pub bulk_initiate: bool,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        Self { shards: 1, faults: true, bulk_initiate: false }
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
        hub.set_shards(cfg.shards);
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
    /// way settles in one sharded pass and drains through one emit pass.
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
    /// Partners in the population.
    pub partners: usize,
    /// Sessions initiated.
    pub sessions: usize,
    /// Hub sessions completed (responder traffic).
    pub completed: usize,
    /// Quotes the partner sims sent.
    pub replies: u64,
    /// Duplicate wire deliveries the partner endpoints suppressed.
    pub duplicates_suppressed: u64,
    /// Wall-clock ms of the traffic phase (setup excluded).
    pub wall_ms: f64,
    /// Simulated ms of the traffic phase.
    pub sim_ms: u64,
    /// Hub documents routed to sessions.
    pub routed_docs: u64,
    /// Allocator traffic of the traffic phase (hub + partner sims).
    pub alloc: crate::alloc_count::AllocDelta,
    /// Hub settle counters at the end of the run.
    pub settle: b2b_wfms::SettleMetrics,
    /// Hub session-table memory at the end of the run.
    pub memory: b2b_core::metrics::SessionMemory,
    /// Peak resident set of the process so far (`VmHWM`), kB.
    pub vm_hwm_kb: Option<u64>,
    /// Byte-comparable digest of every deterministic observable.
    pub fingerprint: String,
}

/// Parses the process's peak resident set (`VmHWM`) from
/// `/proc/self/status`; `None` off Linux.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `plan` to quiescence under `cfg`: initiates sessions in
/// bounded waves, draining between waves, then harvests a report whose
/// fingerprint covers every deterministic observable (integration
/// stats, WFMS counters, session outcomes, stage counters, codec cache
/// traffic, health, network counters, settle rounds/touched).
pub fn run_population(plan: &PopulationPlan, cfg: &PopulationConfig) -> Result<PopulationReport> {
    let mut pop = Population::build(plan, cfg)?;
    let wave = plan.tier.wave();
    let sim_start = pop.net.now().as_millis();
    let started = std::time::Instant::now();
    let ((), alloc) = crate::alloc_count::measure(|| {
        let mut initiated = 0;
        while initiated < plan.traffic.len() {
            let end = (initiated + wave).min(plan.traffic.len());
            for &p in &plan.traffic[initiated..end] {
                if cfg.bulk_initiate {
                    pop.initiate_deferred(p as usize).expect("initiate");
                } else {
                    pop.initiate(p as usize).expect("initiate");
                }
            }
            if cfg.bulk_initiate {
                // Deferred instances only move on a pump; `quiescent`
                // cannot see them, so force the settling step.
                pop.step().expect("bulk settle step");
            }
            initiated = end;
            pop.drain(4_000).expect("wave drain");
        }
        pop.drain(20_000).expect("final drain");
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
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
        partners: plan.partners.len(),
        sessions: plan.traffic.len(),
        completed: pop.hub.completed_sessions(),
        replies: pop.replies(),
        duplicates_suppressed: pop.duplicates_suppressed(),
        wall_ms,
        sim_ms: pop.net.now().as_millis() - sim_start,
        routed_docs: profile.counters.routed_documents,
        alloc,
        settle,
        memory: pop.hub.session_memory(),
        vm_hwm_kb: vm_hwm_kb(),
        fingerprint,
    })
}

/// Per-phase numbers of the flat-cost probe: one active-traffic burst
/// measured against a given idle-session backdrop.
#[derive(Debug, Clone, Copy)]
pub struct FlatCostPhase {
    /// Idle (lurker) sessions resident when the burst ran.
    pub idle_sessions: usize,
    /// Workflow instances resident before the burst.
    pub instances_resident: u64,
    /// Active sessions initiated and completed by the burst.
    pub active_sessions: usize,
    /// Settle rounds the burst took.
    pub rounds: u64,
    /// Instances moved into shard slices, total.
    pub moved: u64,
    /// Touched-set sizes, summed over rounds.
    pub touched: u64,
    /// Instances moved per settle round.
    pub moved_per_round: f64,
    /// Allocator calls per routed document.
    pub allocs_per_doc: f64,
}

/// The flat-cost experiment: the same active burst measured at 1× and
/// 10× idle sessions.
#[derive(Debug, Clone, Copy)]
pub struct FlatCostReport {
    /// The burst against the 1× idle backdrop.
    pub base: FlatCostPhase,
    /// The identical burst against the 10× idle backdrop.
    pub grown: FlatCostPhase,
}

impl FlatCostReport {
    /// Worst relative drift of (moved/round, allocs/doc) between the
    /// two phases — the number E21 asserts stays within ±5%.
    pub fn max_drift(&self) -> f64 {
        let drift = |a: f64, b: f64| {
            if a == 0.0 {
                f64::from(u8::from(b != 0.0))
            } else {
                (b - a).abs() / a
            }
        };
        drift(self.base.moved_per_round, self.grown.moved_per_round)
            .max(drift(self.base.allocs_per_doc, self.grown.allocs_per_doc))
    }
}

/// Measures per-round settle cost under idle growth: seed `base_idle`
/// lurker sessions, run an active burst and measure (moved/round,
/// allocs/routed doc), grow the idle population to 10×, run the
/// identical burst again, and report both phases. With touched-only
/// settle the idle sessions are never moved, so the two phases must
/// agree — this is the direct regression guard for the tentpole.
pub fn run_flat_cost(
    tier: SizeTier,
    seed: u64,
    shards: usize,
    base_idle: usize,
    active_per_phase: usize,
) -> Result<FlatCostReport> {
    let plan = PopulationPlan::generate(tier, seed);
    let cfg = PopulationConfig { shards, faults: false, ..PopulationConfig::default() };
    let mut pop = Population::build(&plan, &cfg)?;
    let lurkers: Vec<usize> =
        plan.partners.iter().enumerate().filter(|(_, s)| !s.responder).map(|(i, _)| i).collect();
    let responders: Vec<usize> =
        plan.partners.iter().enumerate().filter(|(_, s)| s.responder).map(|(i, _)| i).collect();
    if lurkers.is_empty() || responders.is_empty() {
        return Err(IntegrationError::Config("flat-cost needs both behaviours".into()));
    }
    let wave = tier.wave();
    let seed_idle = |pop: &mut Population, count: usize| -> Result<()> {
        for chunk_start in (0..count).step_by(wave) {
            for i in chunk_start..(chunk_start + wave).min(count) {
                pop.initiate(lurkers[i % lurkers.len()])?;
            }
            pop.drain(4_000)?;
        }
        pop.drain(20_000)?;
        Ok(())
    };
    let burst = |pop: &mut Population| -> Result<FlatCostPhase> {
        let idle_sessions = pop.sessions_initiated() - pop.hub.completed_sessions();
        let before = pop.hub.settle_metrics();
        let routed_before = pop.hub.stage_profile().counters.routed_documents;
        let completed_before = pop.hub.completed_sessions();
        let ((), alloc) = crate::alloc_count::measure(|| {
            for chunk_start in (0..active_per_phase).step_by(wave) {
                for i in chunk_start..(chunk_start + wave).min(active_per_phase) {
                    pop.initiate(responders[i % responders.len()]).expect("initiate");
                }
                pop.drain(4_000).expect("burst drain");
            }
            pop.drain(20_000).expect("burst final drain");
        });
        if !pop.quiescent() {
            return Err(IntegrationError::Config("flat-cost burst failed to quiesce".into()));
        }
        let after = pop.hub.settle_metrics();
        let routed = pop.hub.stage_profile().counters.routed_documents - routed_before;
        let active = pop.hub.completed_sessions() - completed_before;
        if active != active_per_phase {
            return Err(IntegrationError::Config(format!(
                "flat-cost burst: {active} of {active_per_phase} active sessions completed"
            )));
        }
        let rounds = after.rounds - before.rounds;
        let moved = after.moved_total - before.moved_total;
        Ok(FlatCostPhase {
            idle_sessions,
            instances_resident: before.instances_resident,
            active_sessions: active,
            rounds,
            moved,
            touched: after.touched_total - before.touched_total,
            moved_per_round: moved as f64 / rounds.max(1) as f64,
            allocs_per_doc: alloc.allocations as f64 / routed.max(1) as f64,
        })
    };
    // Warm everything the first burst would otherwise pay for alone:
    // codec caches, compiled programs, scratch capacity.
    for _ in 0..wave.min(active_per_phase) {
        pop.initiate(responders[0])?;
    }
    pop.drain(20_000)?;
    seed_idle(&mut pop, base_idle)?;
    let base = burst(&mut pop)?;
    seed_idle(&mut pop, base_idle * 9)?;
    let grown = burst(&mut pop)?;
    Ok(FlatCostReport { base, grown })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible_and_zipf_skewed() {
        let a = PopulationPlan::generate(SizeTier::Tiny, 7);
        let b = PopulationPlan::generate(SizeTier::Tiny, 7);
        assert_eq!(a, b, "same (tier, seed) must generate the same plan");
        let c = PopulationPlan::generate(SizeTier::Tiny, 8);
        assert_ne!(a, c, "different seeds must differ");
        // Zipf skew: the head partner sees more traffic than the tail.
        let count =
            |plan: &PopulationPlan, p: u32| plan.traffic.iter().filter(|&&t| t == p).count();
        let small = PopulationPlan::generate(SizeTier::Small, 7);
        let head = count(&small, 0);
        let tail = count(&small, (small.partners.len() - 1) as u32);
        assert!(head > tail, "head partner ({head}) must out-trade the tail ({tail})");
    }

    #[test]
    fn fixtures_round_trip() {
        let dir = std::env::temp_dir().join("b2b_population_fixture_test");
        let plan = PopulationPlan::generate(SizeTier::Tiny, 42);
        let path = plan.write_fixture(&dir).expect("write");
        let back = PopulationPlan::read_fixture(&path).expect("read");
        assert_eq!(plan, back);
        let loaded = PopulationPlan::load_or_generate(SizeTier::Tiny, 42, &dir);
        assert_eq!(plan, loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_population_completes_responder_sessions() {
        let plan = PopulationPlan::generate(SizeTier::Tiny, DEFAULT_POPULATION_SEED);
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
    fn population_runs_are_identical_across_shards() {
        let plan = PopulationPlan::generate(SizeTier::Tiny, 11);
        let base = run_population(&plan, &PopulationConfig::default()).expect("shards=1");
        for shards in [2, 4] {
            let other = run_population(&plan, &PopulationConfig { shards, ..Default::default() })
                .expect("sharded run");
            assert_eq!(base.fingerprint, other.fingerprint, "shards={shards} diverged");
        }
    }

    #[test]
    fn bulk_waves_match_per_initiate_runs_at_every_shard_count() {
        let plan = PopulationPlan::generate(SizeTier::Tiny, 11);
        let classic = run_population(&plan, &PopulationConfig::default()).expect("classic");
        let bulk_cfg = PopulationConfig { bulk_initiate: true, ..PopulationConfig::default() };
        let bulk = run_population(&plan, &bulk_cfg).expect("bulk");
        // Deferring a wave changes *when* first legs settle, not what the
        // population computes: completions and replies must agree.
        assert_eq!(classic.completed, bulk.completed);
        assert_eq!(classic.replies, bulk.replies);
        // One settle pass per wave runs the whole wave on the pool; the
        // shard count must stay invisible.
        let bulk_sharded =
            run_population(&plan, &PopulationConfig { shards: 4, ..bulk_cfg }).expect("bulk/4sh");
        assert_eq!(bulk.fingerprint, bulk_sharded.fingerprint, "bulk run diverged at 4 shards");
    }
}
