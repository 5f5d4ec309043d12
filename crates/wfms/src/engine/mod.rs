//! The workflow engine: an interpreter for workflow instances.
//!
//! Interpretation itself lives in the private `exec` module as free
//! functions over an execution context: a shared read-only environment
//! plus mutable instance and queue state. The `Engine` here owns the
//! database and the volatile state and executes through one path,
//! [`Engine::settle`]: a fixpoint of rounds on the calling thread, each
//! advancing the instances with work in place in the database and
//! appending its effects to the engine's volatile state in canonical
//! order. Documents reach an instance only through its own directed
//! queues. The sequential API (`run`, `deliver_to`, `advance_time`,
//! `resolve_remote`) queues its work and settles it.

pub mod instance;
pub(crate) mod program;

mod exec;

#[cfg(test)]
mod tests;

pub use exec::EngineStats;
pub use instance::{EdgeState, InstanceStatus, StepState, Variable, WorkflowInstance};
// `SettleMetrics` is defined below and re-exported from the crate root.

use crate::db::WorkflowDatabase;
use crate::error::{Result, WfError};
use crate::federation::EngineId;
use crate::history::{HistoryEvent, HistoryKind};
use crate::model::{ChannelId, InstanceId, StepId, StepKind, WorkflowType, WorkflowTypeId};
use b2b_document::Document;
use b2b_network::SimTime;
use b2b_rules::RuleRegistry;
use b2b_transform::TransformRegistry;
use exec::{ExecCtx, ExecEnv, ParentFinish, VolatileState};
use instance::InstanceRecord;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Settle-cost counters, read via [`Engine::settle_metrics`].
///
/// `rounds`, `touched_*`, and `instances_resident` are pure functions of
/// the interaction trace, so they may join determinism fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SettleMetrics {
    /// Instances resident in the workflow database right now.
    pub instances_resident: u64,
    /// Settle rounds executed.
    pub rounds: u64,
    /// Touched-set size of the last round: instances that were runnable
    /// or had a directed document their receive step was waiting on.
    pub touched_last_round: u64,
    /// Cumulative touched-set sizes across all rounds.
    pub touched_total: u64,
    /// Inert: always 0, since rounds advance instances in place. Kept
    /// because the hub benchmark still reads it.
    pub moved_total: u64,
}

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
        self.vars.insert(var.to_string(), Variable::Document(Arc::new(doc)));
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
    /// Settle-cost counters (see [`SettleMetrics`]).
    settle_counters: SettleMetrics,
    /// The current round's touched set, sorted and deduped. Kept between
    /// rounds so a steady-state round plans without allocating.
    round_touched: Vec<InstanceId>,
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
            settle_counters: SettleMetrics::default(),
            round_touched: Vec::new(),
        }
    }

    /// Settle-cost counters: instances resident, rounds, and the touched
    /// sets of the last round and of all rounds.
    pub fn settle_metrics(&self) -> SettleMetrics {
        SettleMetrics {
            instances_resident: self.db.instance_count() as u64,
            ..self.settle_counters
        }
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
    /// completed, or failed: [`Engine::schedule`], then [`Engine::settle`].
    pub fn run(&mut self, id: InstanceId) -> Result<InstanceStatus> {
        self.schedule(id);
        self.settle()?;
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

    /// Delivers a document to one specific instance's receive step on
    /// `channel` and settles: [`Engine::enqueue_to`], then
    /// [`Engine::settle`]. If the instance is not yet waiting there, the
    /// document queues until its receive step executes.
    pub fn deliver_to(
        &mut self,
        instance: InstanceId,
        channel: &ChannelId,
        doc: impl Into<Arc<Document>>,
    ) -> Result<()> {
        self.enqueue_to(instance, channel, doc)?;
        self.settle()
    }

    /// Queues a document on an instance's directed channel WITHOUT
    /// stepping the instance: the one way a document reaches an instance.
    /// Staged hosts use this to decouple routing from execution
    /// ([`Engine::settle`]); the queued document wakes its receiver in the
    /// next settle. Documents move by `Arc`: re-queueing what
    /// [`Engine::drain_outbox`] returned moves a pointer, and the receive
    /// step stores that same `Arc`, so sender and receiver share one
    /// document.
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
    /// [`Engine::settle`] executes it.
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
    /// regardless of the order instances ran in.
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
    /// [`Engine::settle`] executes them.
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

    /// Advances logical time, fires due timers, and settles everything
    /// they (and earlier scheduling) made runnable.
    pub fn advance_time(&mut self, now: SimTime) -> Result<()> {
        self.advance_clock(now)?;
        self.settle()
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
    // Settling.

    /// Runs every pending piece of work — runnable instances, directed
    /// deliveries whose receiver is waiting, deferred subworkflow spawns
    /// and parent completions — to a fixpoint on the calling thread. This
    /// is the engine's only executor.
    ///
    /// Each round first resolves the deferred spawns and parent
    /// completions in canonical order, then advances the touched
    /// instances in place in the database, appending their effects to the
    /// volatile state, then puts what the round appended in canonical
    /// order — also when a step errors, so the engine's state stays
    /// canonical.
    ///
    /// An instance outside the touched set cannot execute in a round (it
    /// is not runnable, no directed document can wake it, and spawns and
    /// parent completions defer), so a round's cost follows the busy
    /// work, not the resident population.
    pub fn settle(&mut self) -> Result<()> {
        loop {
            self.apply_deferred()?;
            if !self.plan_round() {
                return Ok(());
            }
            let history_start = self.vol.history.len();
            let result = self.with_ctx(exec::settle_slice);
            self.canonicalize_round(history_start);
            result?;
        }
    }

    /// Resolves deferred subworkflow spawns and parent completions in
    /// canonical `(parent, step)` order; nothing it does defers again.
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

    /// Plans one round: collects the touched set — instances that are
    /// runnable, or have a non-empty directed queue their receive step is
    /// waiting on — sorted and deduped into a reused buffer, so a
    /// steady-state round plans without allocating. Returns whether the
    /// round has any work.
    fn plan_round(&mut self) -> bool {
        let Engine { db, vol, round_touched: touched, settle_counters, .. } = self;
        touched.clear();
        touched.extend(vol.runnable.iter().copied());
        for (id, qs) in &vol.directed_queues {
            let Ok(inst) = db.get_instance(*id) else { continue };
            if inst.status != InstanceStatus::Running {
                continue;
            }
            let waiting = qs
                .iter()
                .any(|(channel, q)| !q.is_empty() && inst.waiting_receiver(channel).is_some());
            if waiting {
                touched.push(*id);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            return false;
        }
        settle_counters.rounds += 1;
        settle_counters.touched_last_round = touched.len() as u64;
        settle_counters.touched_total += touched.len() as u64;
        true
    }

    /// Puts what a round appended to the volatile state in canonical
    /// order; the round's history starts at `history_start`.
    fn canonicalize_round(&mut self, history_start: usize) {
        let vol = &mut self.vol;
        // A stable sort by (time, instance) keeps each instance's own
        // order and groups the round's events by instance: the order the
        // recorded histories and their pinned digests hash.
        vol.history[history_start..].sort_by_key(|e| (e.at, e.instance));
        vol.timers.sort();
        vol.remote_requests
            .sort_by(|a, b| (a.parent_instance, &a.step).cmp(&(b.parent_instance, &b.step)));
        // Drained queues die here, so the resident map holds only
        // instances with documents actually pending — the next round's
        // plan scans pending work, not history.
        vol.directed_queues.retain(|_, qs| {
            qs.retain(|_, queue| !queue.is_empty());
            !qs.is_empty()
        });
    }

    // ------------------------------------------------------------------
    // Migration support (used by federation).

    /// Serializes an instance and removes it from this engine (Figure 5(a):
    /// "stored in two different workflow engine databases at two different
    /// points in time"). The snapshot carries the type definition in
    /// carry-type mode, or when the instance runs a version this engine no
    /// longer has deployed.
    ///
    /// A snapshot carries persisted state only, so an instance that still
    /// depends on work this engine holds is refused with
    /// [`WfError::Federation`] and stays in place: a subworkflow (its
    /// parent waits here), an instance scheduled to run or with directed
    /// documents queued, and one waiting at a step other than a receive
    /// (a pending timer, a local subworkflow child, a remote request).
    pub fn export_instance(&mut self, id: InstanceId) -> Result<String> {
        if let Some(why) = self.pinned_here(self.db.get_instance(id)?) {
            return Err(WfError::Federation { reason: format!("instance {id} {why}") });
        }
        let inst = self.db.take_instance(id)?;
        exec::record(&mut self.vol, self.now, id, HistoryKind::MigratedOut(String::new()));
        let carry = self.carry_types || !self.db.is_current(&inst);
        serde_json::to_string(&inst.to_record(carry))
            .map_err(|e| WfError::Snapshot { reason: e.to_string() })
    }

    /// Why `inst` cannot leave this engine, if something it depends on
    /// would stay behind.
    fn pinned_here(&self, inst: &WorkflowInstance) -> Option<String> {
        if inst.parent.is_some() {
            return Some("is a subworkflow; migrate the parent".into());
        }
        if self.vol.runnable.contains(&inst.id) {
            return Some("is scheduled to run on this engine".into());
        }
        let queued = self.vol.directed_queues.get(&inst.id);
        if queued.is_some_and(|qs| qs.values().any(|q| !q.is_empty())) {
            return Some("has documents queued on this engine".into());
        }
        let program = &inst.program;
        (0..program.step_count())
            .find(|&ix| {
                inst.states.step(ix) == StepState::Waiting
                    && !matches!(program.step(ix).kind, StepKind::Receive { .. })
            })
            .map(|ix| format!("waits at `{}`, which only this engine resumes", program.step(ix).id))
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
        self.db.put_instance(inst);
        exec::record(&mut self.vol, self.now, id, HistoryKind::MigratedIn(String::new()));
        Ok(id)
    }

    /// Serializes the whole workflow database (crash-recovery point:
    /// "at any point in time a workflow instance is either persisted in
    /// the database or in state transition in the workflow engine",
    /// Section 2.1). Volatile engine state — directed queues, timers,
    /// outbox — is NOT part of the database, matching the paper's
    /// architecture where only the database survives an engine restart.
    pub fn snapshot_database(&self) -> Result<String> {
        self.db.snapshot_with(self.carry_types)
    }

    /// Rebuilds an engine's database from a snapshot. Receive steps that
    /// were waiting when the snapshot was taken are persisted as waiting,
    /// so directed deliveries resume after a restart. Activities, rules,
    /// and transformations must be re-installed by the host (they are
    /// code, not data — exactly why the paper's engines need "all the
    /// relevant workflow step types available").
    pub fn restore_database(&mut self, snapshot: &str) -> Result<()> {
        self.db = WorkflowDatabase::restore(snapshot)?;
        self.vol.directed_queues.clear();
        self.vol.timers.clear();
        Ok(())
    }

    /// The workflow type needed to run `snapshot`, if the engine must
    /// fetch it (Figure 6, step ①).
    pub fn required_type_of(snapshot: &str) -> Result<Option<WorkflowTypeId>> {
        let record = parse_record(snapshot)?;
        Ok(if record.carried_type.is_some() { None } else { Some(record.type_id) })
    }

    /// Resolves a remote subworkflow (called by federation with the
    /// results from the remote engine): queues the parent's completion,
    /// then settles.
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
        self.vol.parent_finishes.push(ParentFinish {
            parent: parent_instance,
            step,
            vars,
            failure,
        });
        self.settle()
    }

    // ------------------------------------------------------------------
    // Internals.

    /// Builds an execution context over disjoint borrows of the engine's
    /// fields, for work the engine does between settle rounds.
    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut ExecCtx<'_>) -> R) -> R {
        let Engine { db, activities, rules, transforms, vol, now, .. } = self;
        let env = ExecEnv { activities, rules, transforms, now: *now };
        let mut ctx = ExecCtx { env: &env, instances: db.instances_mut(), vol };
        f(&mut ctx)
    }
}

/// Parses a migration snapshot.
fn parse_record(snapshot: &str) -> Result<InstanceRecord> {
    serde_json::from_str(snapshot).map_err(|e| WfError::Snapshot { reason: e.to_string() })
}
