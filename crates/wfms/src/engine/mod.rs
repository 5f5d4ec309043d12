//! The workflow engine: an interpreter for workflow instances.
//!
//! Interpretation itself lives in [`exec`] as free functions over an
//! [`exec::ExecCtx`] — a shared read-only environment plus mutable
//! instance/queue state. The `Engine` here owns the database and the
//! volatile state, exposes the sequential API (`run`, `deliver`,
//! `deliver_to`, `advance_time`), and adds [`Engine::settle`]: a
//! shard-parallel fixpoint that partitions instances across scoped
//! threads and merges the results deterministically.

pub mod instance;
pub(crate) mod program;

mod exec;
mod pool;

#[cfg(test)]
mod tests;

pub use exec::EngineStats;
pub use instance::{EdgeState, InstanceStatus, StepState, Variable, WorkflowInstance};
pub use pool::{PoolStats, WorkerPool};
// `SettleMetrics` is defined below and re-exported from the crate root.

use crate::db::WorkflowDatabase;
use crate::error::{Result, WfError};
use crate::federation::EngineId;
use crate::history::{HistoryEvent, HistoryKind};
use crate::model::{ChannelId, InstanceId, StepId, WorkflowType, WorkflowTypeId};
use b2b_document::Document;
use b2b_network::SimTime;
use b2b_rules::RuleRegistry;
use b2b_transform::TransformRegistry;
use exec::{ExecCtx, ExecEnv, ShardSlice, VolatileState};
use instance::InstanceRecord;
use program::StepRef;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Settle-cost counters, read via [`Engine::settle_metrics`].
///
/// `rounds`, `touched_*`, and `instances_resident` are pure functions of
/// the interaction trace — identical at any shard count, so they may
/// join determinism fingerprints. `moved_*` counts instances
/// physically moved into shard slices, which is `0` for in-place rounds
/// (one shard) and shard-layout-dependent otherwise: measurement only,
/// keep it out of fingerprints (the struct is deliberately not `Eq`,
/// like [`PoolStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SettleMetrics {
    /// Instances resident in the workflow database right now.
    pub instances_resident: u64,
    /// Settle rounds executed (whole-engine and sharded).
    pub rounds: u64,
    /// Touched-set size of the last round: instances that were runnable
    /// or had a directed document their receive step was waiting on.
    pub touched_last_round: u64,
    /// Cumulative touched-set sizes across all rounds.
    pub touched_total: u64,
    /// Instances moved into shard slices by the last round (`0` when the
    /// round settled in place).
    pub moved_last_round: u64,
    /// Cumulative instances moved into shard slices.
    pub moved_total: u64,
}

/// Round-scoped partition scratch, reused across rounds so steady-state
/// planning allocates nothing: the buffers keep their capacity between
/// rounds and between settle calls.
#[derive(Default)]
struct SettleScratch {
    /// The round's touched set as sorted, deduped `(instance, shard)`
    /// pairs — one `assign` evaluation per instance per round, and the
    /// only id→shard map the round needs (runnable ids resolve their
    /// shard by binary search instead of re-hashing).
    touched: Vec<(InstanceId, usize)>,
    /// shard → slice position for this round (`usize::MAX` = shard idle).
    slice_of_shard: Vec<usize>,
    /// Busy slices laid out this round.
    slices: usize,
}

/// One shard slice plus its settle result. During a round the pool
/// claims each cell's index exactly once, so exactly one thread holds a
/// `&mut` into it; after the round the dispatcher owns them all again.
struct SliceCell(std::cell::UnsafeCell<(ShardSlice, Option<Result<()>>)>);

// SAFETY: the pool's claim protocol (one `fetch_add` winner per index)
// makes access to each cell exclusive within a round.
unsafe impl Sync for SliceCell {}

/// Context handed to an [`Activity`] implementation.
pub struct ActivityContext<'a> {
    /// Instance variables (read and write).
    pub vars: &'a mut BTreeMap<String, Variable>,
    /// Rule-context source.
    pub source: &'a str,
    /// Rule-context target.
    pub target: &'a str,
    /// Current logical time.
    pub now: SimTime,
}

impl ActivityContext<'_> {
    /// Reads a document variable.
    pub fn document(&self, var: &str) -> std::result::Result<&Document, String> {
        match self.vars.get(var) {
            Some(Variable::Document(d)) => Ok(d),
            Some(Variable::Value(v)) => {
                Err(format!("variable `{var}` holds a {} value", v.type_name()))
            }
            None => Err(format!("variable `{var}` is not set")),
        }
    }

    /// Writes a document variable.
    pub fn set_document(&mut self, var: &str, doc: Document) {
        self.vars.insert(var.to_string(), Variable::Document(doc));
    }

    /// Writes a value variable.
    pub fn set_value(&mut self, var: &str, value: b2b_document::Value) {
        self.vars.insert(var.to_string(), Variable::Value(value));
    }
}

/// An externally implemented step behaviour (ERP store/extract, approval,
/// audit, …). Registered with the engine by name; workflow types only
/// carry the name.
pub trait Activity: Send + Sync {
    /// Executes the activity; an `Err` fails the step (and the instance).
    fn execute(&self, ctx: &mut ActivityContext<'_>) -> std::result::Result<(), String>;
}

impl<F> Activity for F
where
    F: Fn(&mut ActivityContext<'_>) -> std::result::Result<(), String> + Send + Sync,
{
    fn execute(&self, ctx: &mut ActivityContext<'_>) -> std::result::Result<(), String> {
        self(ctx)
    }
}

/// A subworkflow delegated to a remote engine, awaiting federation pickup.
#[derive(Debug, Clone)]
pub struct RemoteSubRequest {
    /// Parent instance on this engine.
    pub parent_instance: InstanceId,
    /// The waiting subworkflow step.
    pub step: StepId,
    /// Engine the subworkflow should run on.
    pub engine: EngineId,
    /// Subworkflow type.
    pub workflow: WorkflowTypeId,
    /// Variable snapshot handed to the remote instance.
    pub vars: BTreeMap<String, Variable>,
    /// Rule-context source.
    pub source: String,
    /// Rule-context target.
    pub target: String,
}

/// The workflow engine (Figure 4): database, activity registry, rule and
/// transformation registries, channels, timers, and an outbox the host
/// drains.
pub struct Engine {
    id: EngineId,
    now: SimTime,
    db: WorkflowDatabase,
    activities: BTreeMap<String, Arc<dyn Activity>>,
    rules: RuleRegistry,
    transforms: TransformRegistry,
    carry_types: bool,
    vol: VolatileState,
    /// Persistent settle workers; empty until the first multi-shard
    /// settle (or an explicit [`Engine::configure_pool`]) warms it up.
    pool: WorkerPool,
    /// Settle-cost counters (see [`SettleMetrics`]).
    settle_counters: SettleMetrics,
    /// Reusable round-planning buffers.
    scratch: SettleScratch,
}

impl Engine {
    /// Creates an engine.
    pub fn new(id: EngineId) -> Self {
        Self {
            id,
            now: SimTime::ZERO,
            db: WorkflowDatabase::new(),
            activities: BTreeMap::new(),
            rules: RuleRegistry::new(),
            transforms: TransformRegistry::new(),
            carry_types: false,
            vol: VolatileState::default(),
            pool: WorkerPool::default(),
            settle_counters: SettleMetrics::default(),
            scratch: SettleScratch::default(),
        }
    }

    /// Settle-cost counters: instances resident, the last round's touched
    /// set, and how many instances rounds physically moved. The
    /// `touched`/`rounds` members are deterministic; `moved_*` depends on
    /// the shard layout (see [`SettleMetrics`]).
    pub fn settle_metrics(&self) -> SettleMetrics {
        SettleMetrics {
            instances_resident: self.db.instance_count() as u64,
            ..self.settle_counters
        }
    }

    /// Pre-spawns pool workers so the first settle does not pay spawn
    /// cost. `settle` also grows the pool lazily; this merely front-loads
    /// the warm-up. Grow-only.
    pub fn configure_pool(&mut self, workers: usize) {
        self.pool.ensure_workers(workers);
    }

    /// Pool utilization counters. Scheduling-dependent fields — keep out
    /// of determinism fingerprints (see [`PoolStats`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Switches to carry-type-in-instance mode (Section 2.1 trade-off;
    /// ablated by the migration bench): exported instances and database
    /// snapshots embed each instance's type definition.
    pub fn set_carry_types(&mut self, carry: bool) {
        self.carry_types = carry;
    }

    /// The workflow database.
    pub fn db(&self) -> &WorkflowDatabase {
        &self.db
    }

    /// Mutable database access (used by federation for type migration).
    pub fn db_mut(&mut self) -> &mut WorkflowDatabase {
        &mut self.db
    }

    /// Counters.
    pub fn stats(&self) -> &EngineStats {
        &self.vol.stats
    }

    /// Audit history.
    pub fn history(&self) -> &[HistoryEvent] {
        &self.vol.history
    }

    /// Current logical time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Registers an activity implementation.
    pub fn register_activity(&mut self, name: &str, activity: Arc<dyn Activity>) {
        self.activities.insert(name.to_string(), activity);
    }

    /// The rule registry (the paper's externalized business rules).
    pub fn rules(&self) -> &RuleRegistry {
        &self.rules
    }

    /// Mutable rule registry (changing partner rules touches nothing else).
    pub fn rules_mut(&mut self) -> &mut RuleRegistry {
        &mut self.rules
    }

    /// Installs the rule registry.
    pub fn set_rules(&mut self, rules: RuleRegistry) {
        self.rules = rules;
    }

    /// Installs the transformation registry.
    pub fn set_transforms(&mut self, transforms: TransformRegistry) {
        self.transforms = transforms;
    }

    /// The transformation registry.
    pub fn transforms(&self) -> &TransformRegistry {
        &self.transforms
    }

    /// Deploys a workflow type, compiling it once into the program every
    /// later instance of this version shares. Instances already running
    /// keep the version they were created with.
    pub fn deploy(&mut self, wf: WorkflowType) {
        self.db.put_type(wf);
    }

    /// Creates an instance; `source`/`target` seed the rule context.
    pub fn create_instance(
        &mut self,
        type_id: &WorkflowTypeId,
        vars: BTreeMap<String, Variable>,
        source: &str,
        target: &str,
    ) -> Result<InstanceId> {
        let program = Arc::clone(self.db.program(type_id)?);
        let (source, target) = (self.db.intern(source), self.db.intern(target));
        let id = self.db.allocate_instance_id();
        self.db.put_instance(WorkflowInstance::new(id, program, vars, source, target));
        self.vol.stats.instances_created += 1;
        exec::record(&mut self.vol, self.now, id, HistoryKind::InstanceCreated);
        Ok(id)
    }

    /// Runs an instance (and everything it makes runnable) until blocked,
    /// completed, or failed.
    pub fn run(&mut self, id: InstanceId) -> Result<InstanceStatus> {
        self.vol.runnable.push_back(id);
        self.with_ctx(exec::drain_runnable)?;
        self.status(id)
    }

    /// Status of an instance.
    pub fn status(&self, id: InstanceId) -> Result<InstanceStatus> {
        Ok(self.db.get_instance(id)?.status.clone())
    }

    /// Reads an instance variable (for assertions and hosts).
    pub fn variable(&self, id: InstanceId, var: &str) -> Result<Variable> {
        Ok(self.db.get_instance(id)?.var(var)?.clone())
    }

    /// Delivers a document to a channel; a waiting receive step consumes
    /// it (FIFO), otherwise it queues until one does.
    pub fn deliver(&mut self, channel: &ChannelId, doc: impl Into<Arc<Document>>) -> Result<()> {
        self.vol.channel_queues.entry(channel.clone()).or_default().push_back(doc.into());
        self.with_ctx(|ctx| {
            exec::match_waiters(ctx, channel)?;
            exec::drain_runnable(ctx)
        })
    }

    /// Delivers a document to one specific instance's receive step on
    /// `channel` (hosts use this for session-scoped routing between
    /// public processes, bindings, and private processes). If the
    /// instance is not yet waiting there, the document queues until its
    /// receive step executes.
    pub fn deliver_to(
        &mut self,
        instance: InstanceId,
        channel: &ChannelId,
        doc: impl Into<Arc<Document>>,
    ) -> Result<()> {
        let doc = doc.into();
        self.with_ctx(|ctx| exec::deliver_to(ctx, instance, channel, doc))
    }

    /// Queues a document on an instance's directed channel WITHOUT
    /// stepping the instance. Staged hosts use this to decouple routing
    /// (single-threaded) from execution ([`Engine::settle`], sharded);
    /// the queued document wakes its receiver in the next settle.
    /// Documents move by `Arc`, so re-queueing what [`drain_outbox`]
    /// (Self::drain_outbox) returned is pointer-cheap.
    pub fn enqueue_to(
        &mut self,
        instance: InstanceId,
        channel: &ChannelId,
        doc: impl Into<Arc<Document>>,
    ) -> Result<()> {
        let running = self
            .db
            .get_instance(instance)
            .map(|i| i.status == InstanceStatus::Running)
            .unwrap_or(false);
        if !running {
            return Err(WfError::Channel {
                channel: channel.to_string(),
                reason: format!("instance {instance} is not running"),
            });
        }
        self.vol
            .directed_queues
            .entry(instance)
            .or_default()
            .entry(channel.clone())
            .or_default()
            .push_back(doc.into());
        Ok(())
    }

    /// Marks an instance runnable without stepping it; the next
    /// [`Engine::settle`] (or `run`) executes it.
    pub fn schedule(&mut self, id: InstanceId) {
        self.vol.runnable.push_back(id);
    }

    /// Instances whose persisted state changed since the last call
    /// (sorted). Hosts use this to refresh derived caches instead of
    /// rescanning every session.
    pub fn drain_touched(&mut self) -> Vec<InstanceId> {
        std::mem::take(&mut self.vol.touched).into_iter().collect()
    }

    /// Takes everything send steps have emitted, tagged with the emitting
    /// instance so hosts can route per session. Sorted by
    /// `(InstanceId, ChannelId)` — per-instance emission order is
    /// preserved (the sort is stable), and the overall order is canonical
    /// regardless of how instances were partitioned across shards.
    /// Documents come out as `Arc`s: hosts that re-queue them into
    /// another instance ([`Engine::enqueue_to`]) move a pointer, not a
    /// document tree.
    pub fn drain_outbox(&mut self) -> Vec<(InstanceId, ChannelId, Arc<Document>)> {
        let mut out = std::mem::take(&mut self.vol.outbox);
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    /// Takes pending remote-subworkflow requests (federation calls this).
    pub fn drain_remote_requests(&mut self) -> Vec<RemoteSubRequest> {
        std::mem::take(&mut self.vol.remote_requests)
    }

    /// Advances logical time and completes the timer steps that fell due,
    /// marking their instances runnable without running them: the next
    /// [`Engine::settle`] (or [`Engine::run`]) executes them.
    pub fn advance_clock(&mut self, now: SimTime) -> Result<()> {
        self.now = now;
        let mut due = Vec::new();
        self.vol.timers.retain(|&(at, inst, step)| {
            if at <= now {
                due.push((inst, step));
                false
            } else {
                true
            }
        });
        self.with_ctx(|ctx| {
            for (inst_id, step) in due {
                exec::complete_waiting_step(ctx, inst_id, step)?;
            }
            Ok(())
        })
    }

    /// Advances logical time, fires due timers, and runs everything they
    /// (and earlier scheduling) made runnable, sequentially.
    pub fn advance_time(&mut self, now: SimTime) -> Result<()> {
        self.advance_clock(now)?;
        self.with_ctx(exec::drain_runnable)
    }

    /// Whether any instance is blocked (running but not finished).
    pub fn blocked_instances(&self) -> Vec<InstanceId> {
        self.db
            .instance_ids()
            .into_iter()
            .filter(|id| {
                self.db
                    .get_instance(*id)
                    .is_ok_and(|i| i.status == InstanceStatus::Running && !i.all_steps_resolved())
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Shard-parallel settling.

    /// Runs every pending piece of work — runnable instances, directed
    /// deliveries whose receiver is waiting, matchable channel queues,
    /// deferred subworkflow spawns — to a global fixpoint, partitioning
    /// instances across up to `shards` scoped worker threads by `assign`.
    ///
    /// The result is byte-identical for every shard count (including 1):
    /// cross-shard effects (spawns, parent completions) are deferred and
    /// resolved between rounds in canonical order, and every merged
    /// collection is canonically sorted. `assign` must be a pure function
    /// of the instance id.
    pub fn settle(
        &mut self,
        shards: usize,
        assign: &(dyn Fn(InstanceId) -> usize + Sync),
    ) -> Result<()> {
        let shards = shards.max(1);
        // Warm the persistent pool once: the dispatching thread works
        // too, so `shards` ways of parallelism need `shards - 1` helpers.
        // After this, no settle round ever spawns a thread.
        self.pool.ensure_workers(shards.saturating_sub(1));
        loop {
            self.apply_deferred()?;
            if self.global_match_possible() {
                // Global channel queues are engine-wide FIFO state: match
                // them sequentially (legacy semantics) before sharding.
                self.with_settle_ctx(exec::settle_slice)?;
                continue;
            }
            if !self.plan_round(shards, assign) {
                if self.vol.spawns.is_empty() && self.vol.parent_finishes.is_empty() {
                    self.compact_waiters();
                    return Ok(());
                }
                continue;
            }
            self.settle_round(shards)?;
        }
    }

    /// Drops stale waiter entries once they make up more than half of the
    /// waiter queues, so resident entries stay within twice the receive
    /// steps still waiting, at amortized O(1) per delivery. Order is kept:
    /// matching is FIFO per channel.
    fn compact_waiters(&mut self) {
        let entries: usize = self.vol.waiters.values().map(VecDeque::len).sum();
        if self.vol.stale_waiters * 2 <= entries {
            return;
        }
        let instances = self.db.instances();
        self.vol.waiters.retain(|_, queue| {
            queue.retain(|(id, step)| {
                instances.get(id).is_some_and(|i| i.states.step(step.ix()) == StepState::Waiting)
            });
            !queue.is_empty()
        });
        self.vol.stale_waiters = 0;
    }

    /// Resolves deferred subworkflow spawns and parent completions in
    /// canonical `(parent, step)` order.
    fn apply_deferred(&mut self) -> Result<()> {
        let mut spawns = std::mem::take(&mut self.vol.spawns);
        let mut finishes = std::mem::take(&mut self.vol.parent_finishes);
        spawns.sort_by_key(|sp| (sp.parent, sp.step));
        finishes.sort_by_key(|pf| (pf.parent, pf.step));
        for sp in spawns {
            let program = match self.db.program(&sp.workflow) {
                Ok(program) => Arc::clone(program),
                Err(_) => {
                    let step = &self.db.get_instance(sp.parent)?.program.step(sp.step.ix()).id;
                    let reason = format!(
                        "step `{step}`: subworkflow type `{}` not in database",
                        sp.workflow
                    );
                    self.with_ctx(|ctx| exec::fail_instance(ctx, sp.parent, reason))?;
                    continue;
                }
            };
            let child_id = self.db.allocate_instance_id();
            let mut child = WorkflowInstance::new(child_id, program, sp.vars, sp.source, sp.target);
            child.parent = Some((sp.parent, sp.step));
            self.db.put_instance(child);
            self.vol.stats.instances_created += 1;
            exec::record(&mut self.vol, self.now, child_id, HistoryKind::InstanceCreated);
            self.vol.runnable.push_back(child_id);
        }
        if !finishes.is_empty() {
            self.with_ctx(|ctx| {
                for pf in finishes {
                    exec::finish_parent(ctx, pf.parent, pf.step, pf.vars, pf.failure)?;
                }
                Ok::<(), WfError>(())
            })?;
        }
        Ok(())
    }

    /// Whether any global channel queue holds a document a live waiter
    /// could consume.
    fn global_match_possible(&self) -> bool {
        self.vol.channel_queues.iter().any(|(channel, queue)| {
            !queue.is_empty()
                && self.vol.waiters.get(channel).is_some_and(|ws| {
                    ws.iter().any(|(inst, step)| {
                        self.db
                            .get_instance(*inst)
                            .is_ok_and(|i| i.states.step(step.ix()) == StepState::Waiting)
                    })
                })
        })
    }

    /// Plans one settle round in a single pass over the wakeable work:
    /// collects the touched set — instances that are runnable, or have a
    /// non-empty directed queue their receive step is waiting on — as
    /// sorted `(instance, shard)` pairs, and lays out one slice per busy
    /// shard in ascending shard order (the canonical merge order).
    /// Everything lands in reusable scratch buffers, so a steady-state
    /// round plans without touching the allocator. Returns whether the
    /// round has any work.
    ///
    /// This is the one place `assign` runs: the partition, the runnable
    /// distribution, and the queue moves in [`Engine::settle_round`] all
    /// resolve shards from the scratch instead of re-hashing (the old
    /// code rebuilt a `slice_index` map and re-ran `assign` three times
    /// per round).
    fn plan_round(&mut self, shards: usize, assign: &dyn Fn(InstanceId) -> usize) -> bool {
        let Engine { db, vol, scratch, settle_counters, .. } = self;
        scratch.touched.clear();
        for id in &vol.runnable {
            scratch.touched.push((*id, assign(*id) % shards));
        }
        for (id, qs) in &vol.directed_queues {
            let Ok(inst) = db.get_instance(*id) else { continue };
            if inst.status != InstanceStatus::Running {
                continue;
            }
            let waiting = qs
                .iter()
                .any(|(channel, q)| !q.is_empty() && inst.waiting_receiver(channel).is_some());
            if waiting {
                scratch.touched.push((*id, assign(*id) % shards));
            }
        }
        scratch.touched.sort_unstable();
        scratch.touched.dedup();
        if scratch.touched.is_empty() {
            return false;
        }
        scratch.slice_of_shard.clear();
        scratch.slice_of_shard.resize(shards, usize::MAX);
        for &(_, shard) in &scratch.touched {
            scratch.slice_of_shard[shard] = 0;
        }
        let mut slices = 0;
        for entry in scratch.slice_of_shard.iter_mut() {
            if *entry != usize::MAX {
                *entry = slices;
                slices += 1;
            }
        }
        scratch.slices = slices;
        settle_counters.touched_last_round = scratch.touched.len() as u64;
        settle_counters.touched_total += scratch.touched.len() as u64;
        true
    }

    /// One parallel round: move the planned touched set — and nothing
    /// else — into per-busy-shard slices, settle each slice (on the
    /// persistent pool when more than one), and merge everything back
    /// canonically.
    ///
    /// Idle instances stay shard-resident: an instance outside the
    /// touched set cannot execute this round (it is not runnable, no
    /// directed document can wake it, global channels match between
    /// rounds, and spawns/parent completions defer), so leaving it — and
    /// its directed queues — in place is invisible to the merge. That is
    /// what makes a round's cost proportional to busy work instead of
    /// the live population.
    fn settle_round(&mut self, shards: usize) -> Result<()> {
        if shards == 1 {
            // The single slice would be the entire database: settle it in
            // place instead of moving every instance out and back. Same
            // fresh volatile state, same canonical merge — only the move
            // of touched instances out of and back into the database
            // disappears.
            return self.settle_whole_engine_round();
        }
        // The scratch buffers leave `self` for the duration of the round
        // (the partition needs them alongside `&mut self.db`) and return
        // at the end, keeping their capacity for the next round.
        let touched = std::mem::take(&mut self.scratch.touched);
        let slice_of_shard = std::mem::take(&mut self.scratch.slice_of_shard);
        let mut slices: Vec<ShardSlice> =
            (0..self.scratch.slices).map(|_| ShardSlice::default()).collect();

        // Lift exactly the planned instances, each with its whole
        // directed-queue set — a runnable instance may reach a receive
        // mid-round and must see documents queued before it.
        let mut moved = 0u64;
        let (_, instances, _) = self.db.split_mut();
        for &(id, shard) in &touched {
            let k = slice_of_shard[shard];
            if let Some(inst) = instances.remove(&id) {
                slices[k].instances.insert(id, inst);
                moved += 1;
            }
            if let Some(qs) = self.vol.directed_queues.remove(&id) {
                slices[k].vol.directed_queues.insert(id, qs);
            }
        }
        self.settle_counters.moved_last_round = moved;
        self.settle_counters.moved_total += moved;
        self.settle_counters.rounds += 1;
        for id in std::mem::take(&mut self.vol.runnable) {
            // Every runnable id is in the touched set by construction
            // (stale ids included — their slice yields the UnknownInstance
            // error exactly as the unsharded engine would).
            let at = touched.partition_point(|&(i, _)| i < id);
            let k = slice_of_shard[touched[at].1];
            slices[k].vol.runnable.push_back(id);
        }

        // Execute on the persistent pool: each slice is one task, claimed
        // by exactly one thread (the dispatcher participates), results
        // written into its own cell. Which thread ran a slice is
        // invisible after the merge below.
        let cells: Vec<SliceCell> =
            slices.into_iter().map(|s| SliceCell(std::cell::UnsafeCell::new((s, None)))).collect();
        {
            let env = ExecEnv {
                types: self.db.types_map(),
                activities: &self.activities,
                rules: &self.rules,
                transforms: &self.transforms,
                now: self.now,
            };
            self.pool.run(cells.len(), &|k| {
                // SAFETY: the pool claims each index exactly once, so
                // this &mut access to cell `k` is exclusive.
                let (slice, result) = unsafe { &mut *cells[k].0.get() };
                let mut ctx = ExecCtx {
                    env: &env,
                    instances: &mut slice.instances,
                    ids: None,
                    vol: &mut slice.vol,
                };
                *result = Some(exec::settle_slice(&mut ctx));
            });
        }

        let merged = self.merge_round(cells.into_iter().map(|cell| cell.0.into_inner()).collect());
        self.scratch.touched = touched;
        self.scratch.slice_of_shard = slice_of_shard;
        merged
    }

    /// Settles the degenerate one-shard round without partitioning: the
    /// executor borrows the database's instance map directly and writes
    /// into a fresh [`VolatileState`], so the byte-for-byte computation is
    /// identical to a one-slice [`Engine::settle_round`] minus the move of
    /// every live instance out of and back into the database.
    fn settle_whole_engine_round(&mut self) -> Result<()> {
        self.settle_counters.moved_last_round = 0;
        self.settle_counters.rounds += 1;
        let mut slice = ShardSlice::default();
        slice.vol.runnable = std::mem::take(&mut self.vol.runnable);
        slice.vol.directed_queues = std::mem::take(&mut self.vol.directed_queues);
        let result = {
            let Engine { db, activities, rules, transforms, now, .. } = &mut *self;
            let (types, instances, _) = db.split_mut();
            let env = ExecEnv { types, activities, rules, transforms, now: *now };
            let mut ctx = ExecCtx { env: &env, instances, ids: None, vol: &mut slice.vol };
            exec::settle_slice(&mut ctx)
        };
        self.merge_round(vec![(slice, Some(result))])
    }

    /// Merge canonically — in slice (shard) order, never claim order: the
    /// merged state must not depend on how instances were partitioned or
    /// which thread settled them.
    fn merge_round(&mut self, settled: Vec<(ShardSlice, Option<Result<()>>)>) -> Result<()> {
        let mut first_err = None;
        let mut history_segment = Vec::new();
        let mut new_waiters: BTreeMap<ChannelId, Vec<(InstanceId, StepRef)>> = BTreeMap::new();
        for (slice, result) in settled {
            let result = result.expect("pool ran every slice");
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
            for (_, inst) in slice.instances {
                self.db.put_instance(inst);
            }
            let v = slice.vol;
            for (id, mut qs) in v.directed_queues {
                // Drained queues die here, so the resident map holds only
                // instances with documents actually pending — the next
                // round's plan scans pending work, not history.
                qs.retain(|_, queue| !queue.is_empty());
                if !qs.is_empty() {
                    self.vol.directed_queues.insert(id, qs);
                }
            }
            for (channel, ws) in v.waiters {
                new_waiters.entry(channel).or_default().extend(ws);
            }
            self.vol.stale_waiters += v.stale_waiters;
            for (channel, queue) in v.channel_queues {
                if !queue.is_empty() {
                    self.vol.channel_queues.entry(channel).or_default().extend(queue);
                }
            }
            self.vol.outbox.extend(v.outbox);
            self.vol.timers.extend(v.timers);
            self.vol.remote_requests.extend(v.remote_requests);
            self.vol.runnable.extend(v.runnable);
            self.vol.spawns.extend(v.spawns);
            self.vol.parent_finishes.extend(v.parent_finishes);
            self.vol.stats.absorb(&v.stats);
            self.vol.touched.extend(v.touched);
            history_segment.extend(v.history);
        }
        // Instances live wholly in one slice, so a stable sort by
        // (time, instance) preserves per-instance causality while fixing
        // a canonical cross-instance order.
        history_segment.sort_by_key(|e| (e.at, e.instance));
        self.vol.history.extend(history_segment);
        // New waiter registrations: each receive step registers at most
        // once, so the set is partition-independent; sorting makes the
        // order canonical too.
        for (channel, mut ws) in new_waiters {
            ws.sort();
            self.vol.waiters.entry(channel).or_default().extend(ws);
        }
        self.vol.timers.sort();
        self.vol
            .remote_requests
            .sort_by(|a, b| (a.parent_instance, &a.step).cmp(&(b.parent_instance, &b.step)));
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Migration support (used by federation).

    /// Serializes an instance and removes it from this engine (Figure 5(a):
    /// "stored in two different workflow engine databases at two different
    /// points in time"). The snapshot carries the type definition in
    /// carry-type mode, or when the instance runs a version this engine no
    /// longer has deployed.
    pub fn export_instance(&mut self, id: InstanceId) -> Result<String> {
        let inst = self.db.take_instance(id)?;
        if inst.parent.is_some() {
            let err = WfError::Federation {
                reason: format!("instance {id} is a subworkflow; migrate the parent"),
            };
            self.db.put_instance(inst);
            return Err(err);
        }
        self.vol.stale_waiters += inst.waiting_receives().count();
        exec::record(&mut self.vol, self.now, id, HistoryKind::MigratedOut(String::new()));
        let carry = self.carry_types || !self.db.is_current(&inst);
        let snapshot = serde_json::to_string(&inst.to_record(carry))
            .map_err(|e| WfError::Snapshot { reason: e.to_string() });
        self.compact_waiters();
        snapshot
    }

    /// Imports a serialized instance under a fresh local id. Fails when
    /// this engine lacks the instance's workflow type (unless the instance
    /// carries its type with it).
    pub fn import_instance(&mut self, snapshot: &str) -> Result<InstanceId> {
        let record = parse_record(snapshot)?;
        if record.carried_type.is_none() && !self.db.has_type(&record.type_id) {
            return Err(WfError::UnknownType { workflow: record.type_id.to_string() });
        }
        if record.parent.is_some() {
            return Err(WfError::Federation {
                reason: format!("instance {} is a subworkflow; migrate the parent", record.id),
            });
        }
        let mut inst = self.db.instance_from_record(record)?;
        let id = self.db.allocate_instance_id();
        inst.id = id;
        // Re-register channel waiters for receive steps that were waiting
        // when the instance left its previous engine — waiter registrations
        // are engine-local and do not travel with the snapshot.
        register_waiters(&mut self.vol, &inst);
        self.db.put_instance(inst);
        exec::record(&mut self.vol, self.now, id, HistoryKind::MigratedIn(String::new()));
        Ok(id)
    }

    /// Serializes the whole workflow database (crash-recovery point:
    /// "at any point in time a workflow instance is either persisted in
    /// the database or in state transition in the workflow engine",
    /// Section 2.1). Volatile engine state — channel queues, timers,
    /// outbox — is NOT part of the database, matching the paper's
    /// architecture where only the database survives an engine restart.
    pub fn snapshot_database(&self) -> Result<String> {
        self.db.snapshot_with(self.carry_types)
    }

    /// Rebuilds an engine's database from a snapshot, re-registering
    /// channel waiters for every receive step that was waiting when the
    /// snapshot was taken, so deliveries resume after a restart.
    /// Activities, rules, and transformations must be re-installed by the
    /// host (they are code, not data — exactly why the paper's engines
    /// need "all the relevant workflow step types available").
    pub fn restore_database(&mut self, snapshot: &str) -> Result<()> {
        self.db = WorkflowDatabase::restore(snapshot)?;
        self.vol.waiters.clear();
        self.vol.stale_waiters = 0;
        self.vol.channel_queues.clear();
        self.vol.directed_queues.clear();
        self.vol.timers.clear();
        let Engine { db, vol, .. } = self;
        for inst in db.instances().values() {
            if inst.status == InstanceStatus::Running {
                register_waiters(vol, inst);
            }
        }
        Ok(())
    }

    /// The workflow type needed to run `snapshot`, if the engine must
    /// fetch it (Figure 6, step ①).
    pub fn required_type_of(snapshot: &str) -> Result<Option<WorkflowTypeId>> {
        let record = parse_record(snapshot)?;
        Ok(if record.carried_type.is_some() { None } else { Some(record.type_id) })
    }

    /// Resolves a remote subworkflow (called by federation with the
    /// results from the remote engine).
    pub fn resolve_remote(
        &mut self,
        parent_instance: InstanceId,
        step: &StepId,
        vars: BTreeMap<String, Variable>,
        failure: Option<String>,
    ) -> Result<()> {
        let inst = self.db.get_instance(parent_instance)?;
        let step =
            inst.program.lookup(step).map(|ix| inst.program.step_ref(ix)).ok_or_else(|| {
                WfError::Federation {
                    reason: format!("instance {parent_instance} has no step `{step}`"),
                }
            })?;
        self.with_ctx(|ctx| {
            exec::finish_parent(ctx, parent_instance, step, vars, failure)?;
            exec::drain_runnable(ctx)
        })
    }

    // ------------------------------------------------------------------
    // Internals.

    /// Builds a sequential execution context over disjoint borrows of the
    /// engine's fields (legacy semantics: subworkflows spawn inline).
    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut ExecCtx<'_>) -> R) -> R {
        let result = {
            let Engine { db, activities, rules, transforms, vol, now, .. } = &mut *self;
            let (types, instances, next_instance) = db.split_mut();
            let env = ExecEnv { types, activities, rules, transforms, now: *now };
            let mut ctx = ExecCtx { env: &env, instances, ids: Some(next_instance), vol };
            f(&mut ctx)
        };
        self.compact_waiters();
        result
    }

    /// Like [`Engine::with_ctx`] but in settle mode: subworkflow spawns
    /// and parent completions defer, exactly as in parallel slices, so
    /// sequential and sharded settling stay step-for-step identical.
    fn with_settle_ctx<R>(&mut self, f: impl FnOnce(&mut ExecCtx<'_>) -> R) -> R {
        let Engine { db, activities, rules, transforms, vol, now, .. } = self;
        let (types, instances, _) = db.split_mut();
        let env = ExecEnv { types, activities, rules, transforms, now: *now };
        let mut ctx = ExecCtx { env: &env, instances, ids: None, vol };
        f(&mut ctx)
    }
}

/// Registers a waiter for every receive step `inst` is waiting in, in
/// step order.
fn register_waiters(vol: &mut VolatileState, inst: &WorkflowInstance) {
    for (ix, channel) in inst.waiting_receives() {
        vol.waiters
            .entry(channel.clone())
            .or_default()
            .push_back((inst.id, inst.program.step_ref(ix)));
    }
}

/// Parses a migration snapshot.
fn parse_record(snapshot: &str) -> Result<InstanceRecord> {
    serde_json::from_str(snapshot).map_err(|e| WfError::Snapshot { reason: e.to_string() })
}
