//! The shard-executable step interpreter.
//!
//! Workflow interpretation is split into a shared, read-only execution
//! environment ([`ExecEnv`]: compiled programs, activities, rules,
//! transformations) and mutable per-shard state ([`ShardSlice`]: a
//! disjoint set of instances plus the volatile queues that feed them).
//! Each instance carries an `Arc` of the [`Program`] it runs, so a step
//! reads its definition, edge lists and receive index by ordinal and
//! only ever mutates state of its own shard: independent shards execute
//! on separate workers without synchronization, and the engine merges
//! their results deterministically afterwards.
//!
//! Everything that crosses shard boundaries — subworkflow spawns (which
//! need the shared instance-id counter) and parent completions (the
//! parent may live in another shard) — is *deferred* into the slice and
//! resolved by the engine between settle rounds, in a canonical order
//! that does not depend on how instances were partitioned.

use super::instance::{EdgeState, InstanceStatus, States, StepState, Variable, WorkflowInstance};
use super::program::{Program, StepRef};
use super::{Activity, ActivityContext, RemoteSubRequest};
use crate::error::{Result, WfError};
use crate::history::{HistoryEvent, HistoryKind};
use crate::model::{ChannelId, InstanceId, StepKind, WorkflowTypeId};
use b2b_document::Document;
use b2b_network::SimTime;
use b2b_rules::{RuleError, RuleRegistry};
use b2b_transform::{TransformContext, TransformRegistry};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Engine counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instances created (including subworkflows).
    pub instances_created: u64,
    /// Steps executed to completion.
    pub steps_executed: u64,
    /// Documents emitted through send steps.
    pub sends: u64,
    /// Documents consumed by receive steps.
    pub receives: u64,
    /// Rule-function invocations.
    pub rule_invocations: u64,
    /// Transformations applied by transform steps.
    pub transforms: u64,
    /// Edge-guard expressions evaluated while resolving control flow.
    pub guard_evals: u64,
}

impl EngineStats {
    /// Adds another counter set onto this one (shard merge).
    pub(crate) fn absorb(&mut self, other: &EngineStats) {
        self.instances_created += other.instances_created;
        self.steps_executed += other.steps_executed;
        self.sends += other.sends;
        self.receives += other.receives;
        self.rule_invocations += other.rule_invocations;
        self.transforms += other.transforms;
        self.guard_evals += other.guard_evals;
    }
}

pub(crate) enum ExecOutcome {
    Completed,
    Waiting,
    Failed(String),
}

/// A locally spawned subworkflow, deferred so the shared instance-id
/// counter is only touched between settle rounds.
pub(crate) struct SpawnRequest {
    pub parent: InstanceId,
    pub step: StepRef,
    pub workflow: WorkflowTypeId,
    pub vars: BTreeMap<String, Variable>,
    pub source: Arc<str>,
    pub target: Arc<str>,
}

/// A child completion whose parent was not in the executing shard.
pub(crate) struct ParentFinish {
    pub parent: InstanceId,
    pub step: StepRef,
    pub vars: BTreeMap<String, Variable>,
    pub failure: Option<String>,
}

/// The shared, read-only half of the interpreter: everything a step
/// needs that is code or configuration rather than instance state.
pub(crate) struct ExecEnv<'a> {
    pub types: &'a BTreeMap<WorkflowTypeId, Arc<Program>>,
    pub activities: &'a BTreeMap<String, Arc<dyn Activity>>,
    pub rules: &'a RuleRegistry,
    pub transforms: &'a TransformRegistry,
    pub now: SimTime,
}

/// Volatile (non-persisted) engine state: queues, waiters, timers, the
/// outbox, audit history, and counters. One resident copy lives in the
/// engine; settle rounds carve per-shard copies out of it.
#[derive(Default)]
pub(crate) struct VolatileState {
    /// Global channel queues (documents waiting for *any* receiver).
    /// Documents travel by `Arc` end to end: routing hands off a pointer,
    /// and the receive step unwraps it (free while the reference is
    /// unique, copy-on-write otherwise).
    pub channel_queues: BTreeMap<ChannelId, VecDeque<Arc<Document>>>,
    /// Per-instance directed queues (session-scoped routing), grouped by
    /// receiving instance so a settle round can move one instance's whole
    /// queue set in a single `remove`/`insert`.
    pub directed_queues: BTreeMap<InstanceId, BTreeMap<ChannelId, VecDeque<Arc<Document>>>>,
    /// Receive steps blocked on a channel, FIFO per channel. A directed
    /// delivery leaves its receiver's entry behind (finding it would cost
    /// a queue scan); matching skips such stale entries, and the engine
    /// compacts them away once they are half the queue.
    pub waiters: BTreeMap<ChannelId, VecDeque<(InstanceId, StepRef)>>,
    /// Waiter entries whose receive no longer waits.
    pub stale_waiters: usize,
    /// Documents emitted by send steps, drained by the host.
    pub outbox: Vec<(InstanceId, ChannelId, Arc<Document>)>,
    /// Pending timers.
    pub timers: Vec<(SimTime, InstanceId, StepRef)>,
    /// Subworkflows delegated to remote engines.
    pub remote_requests: Vec<RemoteSubRequest>,
    /// Instances ready to run.
    pub runnable: VecDeque<InstanceId>,
    /// Audit history.
    pub history: Vec<HistoryEvent>,
    /// Counters.
    pub stats: EngineStats,
    /// Instances whose state changed since the last `drain_touched`.
    pub touched: BTreeSet<InstanceId>,
    /// Deferred local subworkflow spawns (settle mode only).
    pub spawns: Vec<SpawnRequest>,
    /// Deferred cross-shard parent completions (settle mode only).
    pub parent_finishes: Vec<ParentFinish>,
}

/// One shard's mutable world during a settle round: a disjoint slice of
/// the instance database plus its own volatile state.
#[derive(Default)]
pub(crate) struct ShardSlice {
    pub instances: BTreeMap<InstanceId, WorkflowInstance>,
    pub vol: VolatileState,
}

/// Everything one interpretation call may touch. `ids` is `Some` in
/// legacy sequential mode (subworkflows spawn inline, exactly as before)
/// and `None` in settle mode (spawns defer so results are independent of
/// the shard count).
pub(crate) struct ExecCtx<'a> {
    pub env: &'a ExecEnv<'a>,
    pub instances: &'a mut BTreeMap<InstanceId, WorkflowInstance>,
    pub ids: Option<&'a mut u64>,
    pub vol: &'a mut VolatileState,
}

/// The parts of an instance a step body reads and writes (everything but
/// its program and states, which the caller keeps borrowed).
struct Local<'i> {
    id: InstanceId,
    vars: &'i mut BTreeMap<String, Variable>,
    source: &'i Arc<str>,
    target: &'i Arc<str>,
}

pub(crate) fn record(
    vol: &mut VolatileState,
    now: SimTime,
    instance: InstanceId,
    kind: HistoryKind,
) {
    vol.history.push(HistoryEvent { at: now, instance, kind });
    vol.touched.insert(instance);
}

fn take_instance(
    instances: &mut BTreeMap<InstanceId, WorkflowInstance>,
    id: InstanceId,
) -> Result<WorkflowInstance> {
    instances.remove(&id).ok_or(WfError::UnknownInstance { instance: id.value() })
}

/// Takes a document out of its `Arc`: free when the reference is unique
/// (the common case — each queued document has exactly one consumer),
/// copy-on-write when something else still holds it.
fn unwrap_doc(doc: Arc<Document>) -> Document {
    Arc::try_unwrap(doc).unwrap_or_else(|shared| (*shared).clone())
}

pub(crate) fn drain_runnable(ctx: &mut ExecCtx<'_>) -> Result<()> {
    while let Some(id) = ctx.vol.runnable.pop_front() {
        run_one(ctx, id)?;
    }
    Ok(())
}

pub(crate) fn run_one(ctx: &mut ExecCtx<'_>, id: InstanceId) -> Result<()> {
    let mut inst = take_instance(ctx.instances, id)?;
    if inst.status != InstanceStatus::Running {
        ctx.instances.insert(id, inst);
        return Ok(());
    }
    run_steps(ctx, &mut inst);
    if inst.status == InstanceStatus::Running && inst.all_steps_resolved() {
        inst.status = InstanceStatus::Completed;
        record(ctx.vol, ctx.env.now, id, HistoryKind::InstanceCompleted);
    }
    let parent = inst.parent;
    // The variable snapshot is only handed to a parent on completion;
    // every other exit keeps the (potentially large) map un-copied.
    let finish = match (&parent, &inst.status) {
        (Some(_), InstanceStatus::Completed) => Some((inst.vars.clone(), None)),
        (Some(_), InstanceStatus::Failed(reason)) => Some((BTreeMap::new(), Some(reason.clone()))),
        _ => None,
    };
    ctx.instances.insert(id, inst);
    if let (Some((parent_id, parent_step)), Some((vars, failure))) = (parent, finish) {
        finish_parent(ctx, parent_id, parent_step, vars, failure)?;
    }
    Ok(())
}

/// Executes every ready step of a running instance until it blocks,
/// finishes, or fails: a step is ready once all its incoming edges are
/// resolved, and runs if one of them carried a token (dead-path
/// elimination skips it otherwise).
fn run_steps(ctx: &mut ExecCtx<'_>, inst: &mut WorkflowInstance) {
    let now = ctx.env.now;
    let WorkflowInstance { id, status, vars, program, states, source, target, .. } = inst;
    let (id, program) = (*id, &**program);
    loop {
        if *status != InstanceStatus::Running {
            break;
        }
        let mut progressed = false;
        for ix in 0..program.step_count() {
            if states.step(ix) != StepState::Pending {
                continue;
            }
            let incoming = program.incoming(ix);
            if incoming.iter().any(|&e| states.edge(e) == EdgeState::Unresolved) {
                continue;
            }
            progressed = true;
            let step = program.step(ix);
            let has_token =
                incoming.is_empty() || incoming.iter().any(|&e| states.edge(e) == EdgeState::Taken);
            if !has_token {
                // Dead path: skip and kill outgoing edges.
                states.set_step(ix, StepState::Skipped);
                for &e in program.outgoing(ix) {
                    states.set_edge(e, EdgeState::Dead);
                }
                record(ctx.vol, now, id, HistoryKind::StepSkipped(step.id.clone()));
                continue;
            }
            let local = Local { id, vars, source, target };
            match execute_step(ctx, local, program, ix) {
                ExecOutcome::Completed => {
                    ctx.vol.stats.steps_executed += 1;
                    let resolved = mark_completed(
                        program,
                        ix,
                        states,
                        vars,
                        source,
                        target,
                        &mut ctx.vol.stats,
                    );
                    if let Err(reason) = resolved {
                        *status = InstanceStatus::Failed(reason.clone());
                        record(ctx.vol, now, id, HistoryKind::InstanceFailed(reason));
                        break;
                    }
                    record(ctx.vol, now, id, HistoryKind::StepCompleted(step.id.clone()));
                }
                ExecOutcome::Waiting => {
                    states.set_step(ix, StepState::Waiting);
                    record(ctx.vol, now, id, HistoryKind::StepWaiting(step.id.clone()));
                }
                ExecOutcome::Failed(reason) => {
                    let reason = format!("step `{}`: {reason}", step.id);
                    *status = InstanceStatus::Failed(reason.clone());
                    record(ctx.vol, now, id, HistoryKind::InstanceFailed(reason));
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
}

fn execute_step(
    ctx: &mut ExecCtx<'_>,
    inst: Local<'_>,
    program: &Program,
    ix: usize,
) -> ExecOutcome {
    match &program.step(ix).kind {
        StepKind::NoOp => ExecOutcome::Completed,
        StepKind::Activity { activity } => {
            let Some(implementation) = ctx.env.activities.get(activity).cloned() else {
                return ExecOutcome::Failed(format!("unknown activity `{activity}`"));
            };
            let mut actx = ActivityContext {
                vars: inst.vars,
                source: inst.source,
                target: inst.target,
                now: ctx.env.now,
            };
            match implementation.execute(&mut actx) {
                Ok(()) => ExecOutcome::Completed,
                Err(reason) => ExecOutcome::Failed(reason),
            }
        }
        StepKind::RuleCheck { function, doc_var, out_var } => {
            ctx.vol.stats.rule_invocations += 1;
            // Evaluate against the variable in place — rules only borrow
            // the document, so no copy is needed.
            let result = match inst.vars.get(doc_var) {
                Some(Variable::Document(d)) => {
                    ctx.env.rules.invoke(function, inst.source, inst.target, d)
                }
                _ => {
                    return ExecOutcome::Failed(format!(
                        "rule check needs document variable `{doc_var}`"
                    ))
                }
            };
            match result {
                Ok(value) => {
                    inst.vars.insert(out_var.clone(), Variable::Value(value));
                    ExecOutcome::Completed
                }
                Err(e @ RuleError::NoRuleApplies { .. }) => {
                    // The paper's explicit error case.
                    ExecOutcome::Failed(e.to_string())
                }
                Err(e) => ExecOutcome::Failed(e.to_string()),
            }
        }
        StepKind::Transform { target_format, var, out_var } => {
            ctx.vol.stats.transforms += 1;
            let result = match inst.vars.get(var) {
                Some(Variable::Document(d)) => {
                    // Direction-aware context: a document leaving the
                    // normalized format is outbound, so the enterprise
                    // (rule-context target) is the wire-level sender.
                    let outbound = d.format() == &b2b_document::FormatId::NORMALIZED;
                    let (sender, receiver) = if outbound {
                        (&**inst.target, &**inst.source)
                    } else {
                        (&**inst.source, &**inst.target)
                    };
                    let tctx = TransformContext::new(
                        sender,
                        receiver,
                        &format!("{:09}", inst.id.value()),
                        &format!("i-{}", inst.id.value()),
                    );
                    ctx.env.transforms.transform(d, target_format, &tctx)
                }
                _ => {
                    return ExecOutcome::Failed(format!(
                        "transform needs document variable `{var}`"
                    ))
                }
            };
            match result {
                Ok(out) => {
                    inst.vars.insert(out_var.clone(), Variable::Document(out));
                    ExecOutcome::Completed
                }
                Err(e) => ExecOutcome::Failed(e.to_string()),
            }
        }
        StepKind::Send { channel, var } => {
            // The one remaining copy on the send path: the variable keeps
            // its document, so the outbox gets a fresh `Arc` that routing
            // and delivery then share without further copies.
            let doc = match inst.vars.get(var) {
                Some(Variable::Document(d)) => Arc::new(d.clone()),
                _ => return ExecOutcome::Failed(format!("send needs document variable `{var}`")),
            };
            ctx.vol.stats.sends += 1;
            ctx.vol.outbox.push((inst.id, channel.clone(), doc));
            ExecOutcome::Completed
        }
        StepKind::Receive { channel, var } => {
            let directed = ctx
                .vol
                .directed_queues
                .get_mut(&inst.id)
                .and_then(|qs| qs.get_mut(channel))
                .and_then(VecDeque::pop_front);
            if let Some(doc) = directed
                .or_else(|| ctx.vol.channel_queues.get_mut(channel).and_then(VecDeque::pop_front))
            {
                ctx.vol.stats.receives += 1;
                inst.vars.insert(var.clone(), Variable::Document(unwrap_doc(doc)));
                ExecOutcome::Completed
            } else {
                ctx.vol
                    .waiters
                    .entry(channel.clone())
                    .or_default()
                    .push_back((inst.id, program.step_ref(ix)));
                ExecOutcome::Waiting
            }
        }
        StepKind::Timer { delay_ms } => {
            ctx.vol.timers.push((ctx.env.now + *delay_ms, inst.id, program.step_ref(ix)));
            ExecOutcome::Waiting
        }
        StepKind::Subworkflow { workflow, remote } => {
            if let Some(engine) = remote {
                ctx.vol.remote_requests.push(RemoteSubRequest {
                    parent_instance: inst.id,
                    step: program.step(ix).id.clone(),
                    engine: engine.clone(),
                    workflow: workflow.clone(),
                    vars: inst.vars.clone(),
                    source: inst.source.to_string(),
                    target: inst.target.to_string(),
                });
                return ExecOutcome::Waiting;
            }
            let Some(ids) = ctx.ids.as_deref_mut() else {
                // Settle mode: allocating an id here would make results
                // depend on shard scheduling. Defer to the engine, which
                // spawns between rounds in canonical order.
                ctx.vol.spawns.push(SpawnRequest {
                    parent: inst.id,
                    step: program.step_ref(ix),
                    workflow: workflow.clone(),
                    vars: inst.vars.clone(),
                    source: Arc::clone(inst.source),
                    target: Arc::clone(inst.target),
                });
                return ExecOutcome::Waiting;
            };
            let Some(sub) = ctx.env.types.get(workflow) else {
                return ExecOutcome::Failed(format!(
                    "subworkflow type `{workflow}` not in database"
                ));
            };
            let child_id = InstanceId::new(*ids);
            *ids += 1;
            let mut child = WorkflowInstance::new(
                child_id,
                Arc::clone(sub),
                inst.vars.clone(),
                Arc::clone(inst.source),
                Arc::clone(inst.target),
            );
            child.parent = Some((inst.id, program.step_ref(ix)));
            ctx.instances.insert(child_id, child);
            ctx.vol.stats.instances_created += 1;
            record(ctx.vol, ctx.env.now, child_id, HistoryKind::InstanceCreated);
            ctx.vol.runnable.push_back(child_id);
            // Subworkflows return control ONLY on completion
            // (Section 3.1) — the parent step waits.
            ExecOutcome::Waiting
        }
    }
}

pub(crate) fn match_waiters(ctx: &mut ExecCtx<'_>, channel: &ChannelId) -> Result<()> {
    loop {
        let queue_len = ctx.vol.channel_queues.get(channel).map(VecDeque::len).unwrap_or(0);
        if queue_len == 0 {
            return Ok(());
        }
        let Some((inst_id, step)) = ctx.vol.waiters.get_mut(channel).and_then(VecDeque::pop_front)
        else {
            return Ok(());
        };
        // Stale waiter (served by a directed delivery, or the instance
        // migrated away): drop it.
        let receive = ctx
            .instances
            .get(&inst_id)
            .filter(|inst| inst.states.step(step.ix()) == StepState::Waiting)
            .map(|inst| inst.program.step(step.ix()));
        let Some(receive) = receive else {
            ctx.vol.stale_waiters = ctx.vol.stale_waiters.saturating_sub(1);
            continue;
        };
        let (var, step_id) = match &receive.kind {
            StepKind::Receive { var, .. } => (var.clone(), receive.id.clone()),
            other => {
                return Err(WfError::Channel {
                    channel: channel.to_string(),
                    reason: format!("waiter step `{}` is a {}", receive.id, other.kind_name()),
                })
            }
        };
        let doc = ctx
            .vol
            .channel_queues
            .get_mut(channel)
            .and_then(VecDeque::pop_front)
            .expect("queue checked non-empty");
        let mut inst = take_instance(ctx.instances, inst_id)?;
        inst.vars.insert(var, Variable::Document(unwrap_doc(doc)));
        ctx.vol.stats.receives += 1;
        record(ctx.vol, ctx.env.now, inst_id, HistoryKind::Delivered(step_id));
        finish_step_and_resume(ctx, inst, step.ix())?;
    }
}

/// Completes a waiting timer step (no-op if the instance is gone or the
/// step no longer waits).
pub(crate) fn complete_waiting_step(
    ctx: &mut ExecCtx<'_>,
    inst_id: InstanceId,
    step: StepRef,
) -> Result<()> {
    let waiting = ctx
        .instances
        .get(&inst_id)
        .is_some_and(|inst| inst.states.step(step.ix()) == StepState::Waiting);
    if !waiting {
        return Ok(());
    }
    let inst = take_instance(ctx.instances, inst_id)?;
    finish_step_and_resume(ctx, inst, step.ix())
}

pub(crate) fn finish_parent(
    ctx: &mut ExecCtx<'_>,
    parent_id: InstanceId,
    parent_step: StepRef,
    child_vars: BTreeMap<String, Variable>,
    failure: Option<String>,
) -> Result<()> {
    if ctx.ids.is_none() {
        // Settle mode: the parent may live in another shard, and even when
        // it does not, resolving inline would make history order depend on
        // the partitioning. Defer uniformly; the engine resolves between
        // rounds in canonical order.
        ctx.vol.parent_finishes.push(ParentFinish {
            parent: parent_id,
            step: parent_step,
            vars: child_vars,
            failure,
        });
        return Ok(());
    }
    if let Some(reason) = failure {
        let mut parent = take_instance(ctx.instances, parent_id)?;
        let step = &parent.program.step(parent_step.ix()).id;
        let reason = format!("subworkflow at `{step}` failed: {reason}");
        parent.status = InstanceStatus::Failed(reason.clone());
        let grandparent = parent.parent;
        ctx.instances.insert(parent_id, parent);
        record(ctx.vol, ctx.env.now, parent_id, HistoryKind::InstanceFailed(reason.clone()));
        if let Some((gp_id, gp_step)) = grandparent {
            finish_parent(ctx, gp_id, gp_step, BTreeMap::new(), Some(reason))?;
        }
        return Ok(());
    }
    let mut parent = take_instance(ctx.instances, parent_id)?;
    parent.vars.extend(child_vars);
    ctx.vol.stats.steps_executed += 1;
    finish_step_and_resume(ctx, parent, parent_step.ix())
}

/// Marks a (previously waiting) step completed on a taken-out instance,
/// resolves its outgoing edges, stores it back and queues a resume.
pub(crate) fn finish_step_and_resume(
    ctx: &mut ExecCtx<'_>,
    mut inst: WorkflowInstance,
    ix: usize,
) -> Result<()> {
    let id = inst.id;
    let resolved = {
        let WorkflowInstance { program, states, vars, source, target, .. } = &mut inst;
        mark_completed(program, ix, states, vars, source, target, &mut ctx.vol.stats)
    };
    if let Err(reason) = resolved {
        inst.status = InstanceStatus::Failed(reason.clone());
        ctx.instances.insert(id, inst);
        record(ctx.vol, ctx.env.now, id, HistoryKind::InstanceFailed(reason));
        return Ok(());
    }
    let step = inst.program.step(ix).id.clone();
    record(ctx.vol, ctx.env.now, id, HistoryKind::StepCompleted(step));
    ctx.instances.insert(id, inst);
    ctx.vol.runnable.push_back(id);
    Ok(())
}

/// Fails an instance outright (e.g. a deferred subworkflow spawn whose
/// type vanished) and propagates the failure to its parent.
pub(crate) fn fail_instance(ctx: &mut ExecCtx<'_>, id: InstanceId, reason: String) -> Result<()> {
    let mut inst = take_instance(ctx.instances, id)?;
    inst.status = InstanceStatus::Failed(reason.clone());
    let parent = inst.parent;
    ctx.instances.insert(id, inst);
    record(ctx.vol, ctx.env.now, id, HistoryKind::InstanceFailed(reason.clone()));
    if let Some((p, s)) = parent {
        finish_parent(ctx, p, s, BTreeMap::new(), Some(reason))?;
    }
    Ok(())
}

/// Delivers a document to one specific instance's receive step on
/// `channel`, stepping the instance if it is already waiting there.
pub(crate) fn deliver_to(
    ctx: &mut ExecCtx<'_>,
    instance: InstanceId,
    channel: &ChannelId,
    doc: Arc<Document>,
) -> Result<()> {
    let waiting = match ctx.instances.get(&instance) {
        Some(inst) if inst.status == InstanceStatus::Running => inst.waiting_receiver(channel),
        _ => {
            return Err(WfError::Channel {
                channel: channel.to_string(),
                reason: format!("instance {instance} is not running"),
            })
        }
    };
    let Some(ix) = waiting else {
        ctx.vol
            .directed_queues
            .entry(instance)
            .or_default()
            .entry(channel.clone())
            .or_default()
            .push_back(doc);
        return Ok(());
    };
    // The receive's waiter entry stays queued (stale) until matching skips
    // it or the engine compacts the waiter queues.
    ctx.vol.stale_waiters += 1;
    let mut inst = take_instance(ctx.instances, instance)?;
    let step = inst.program.step(ix);
    let StepKind::Receive { var, .. } = &step.kind else {
        unreachable!("the receive index holds receive steps only")
    };
    let (var, step_id) = (var.clone(), step.id.clone());
    inst.vars.insert(var, Variable::Document(unwrap_doc(doc)));
    ctx.vol.stats.receives += 1;
    record(ctx.vol, ctx.env.now, instance, HistoryKind::Delivered(step_id));
    finish_step_and_resume(ctx, inst, ix)?;
    drain_runnable(ctx)
}

/// Runs one shard to a local fixpoint: drains the runnable queue, wakes
/// every directed delivery whose receiver is waiting, and matches global
/// channel queues against waiters, until nothing changes.
pub(crate) fn settle_slice(ctx: &mut ExecCtx<'_>) -> Result<()> {
    loop {
        drain_runnable(ctx)?;
        wake_directed(ctx)?;
        if !match_global_queues(ctx)? && ctx.vol.runnable.is_empty() {
            return Ok(());
        }
    }
}

/// Completes, in `(instance, channel)` order, every directed delivery
/// whose receiver is waiting, in one pass over the directed queues.
///
/// After delivering to instance X the pass resumes at X itself, never
/// earlier. That is exactly the order of a rescan from the start after
/// every delivery: in settle mode a delivery steps only its own instance
/// (spawns and parent completions defer to the engine, sends go to the
/// outbox), so every instance before X still has nothing to wake, while
/// X may now wait on any of its channels again.
fn wake_directed(ctx: &mut ExecCtx<'_>) -> Result<()> {
    let mut from = InstanceId::new(0);
    while let Some((id, channel)) = next_wakeable(ctx, from) {
        let doc = ctx
            .vol
            .directed_queues
            .get_mut(&id)
            .and_then(|qs| qs.get_mut(&channel))
            .and_then(VecDeque::pop_front)
            .expect("checked non-empty");
        deliver_to(ctx, id, &channel, doc)?;
        from = id;
    }
    Ok(())
}

/// The first `(instance, channel)` at or after instance `from` with a
/// queued directed document and a receive step waiting for it.
fn next_wakeable(ctx: &ExecCtx<'_>, from: InstanceId) -> Option<(InstanceId, ChannelId)> {
    ctx.vol.directed_queues.range(from..).find_map(|(id, qs)| {
        let inst = ctx.instances.get(id).filter(|i| i.status == InstanceStatus::Running)?;
        qs.iter()
            .find(|(channel, q)| !q.is_empty() && inst.waiting_receiver(channel).is_some())
            .map(|(channel, _)| (*id, channel.clone()))
    })
}

/// Matches every non-empty global channel queue against its waiters;
/// returns whether any document was consumed.
fn match_global_queues(ctx: &mut ExecCtx<'_>) -> Result<bool> {
    let channels: Vec<ChannelId> = ctx
        .vol
        .channel_queues
        .iter()
        .filter(|(_, q)| !q.is_empty())
        .map(|(c, _)| c.clone())
        .collect();
    let mut matched = false;
    for channel in channels {
        let before = ctx.vol.channel_queues.get(&channel).map(VecDeque::len).unwrap_or(0);
        match_waiters(ctx, &channel)?;
        let after = ctx.vol.channel_queues.get(&channel).map(VecDeque::len).unwrap_or(0);
        matched |= after < before;
    }
    Ok(matched)
}

/// [`settle_slice`] with the directed wake done the quadratic way:
/// after every delivery, rescan all directed queues from the start. The
/// differential oracle for the single-pass wake.
#[cfg(test)]
pub(crate) fn settle_slice_rescanning(ctx: &mut ExecCtx<'_>) -> Result<()> {
    loop {
        drain_runnable(ctx)?;
        if let Some((id, channel)) = next_wakeable(ctx, InstanceId::new(0)) {
            let doc = ctx
                .vol
                .directed_queues
                .get_mut(&id)
                .and_then(|qs| qs.get_mut(&channel))
                .and_then(VecDeque::pop_front)
                .expect("checked non-empty");
            deliver_to(ctx, id, &channel, doc)?;
            continue;
        }
        if !match_global_queues(ctx)? && ctx.vol.runnable.is_empty() {
            return Ok(());
        }
    }
}

/// Marks a step completed and resolves its outgoing edges (guard
/// evaluation); returns a failure reason when a guard cannot be evaluated.
fn mark_completed(
    program: &Program,
    ix: usize,
    states: &mut States,
    vars: &BTreeMap<String, Variable>,
    source: &str,
    target: &str,
    stats: &mut EngineStats,
) -> std::result::Result<(), String> {
    states.set_step(ix, StepState::Completed);
    for &e in program.outgoing(ix) {
        let edge = &program.def().edges()[e as usize];
        let taken = match &edge.guard {
            None => true,
            Some(cond) => {
                stats.guard_evals += 1;
                let var = vars
                    .get(&cond.var)
                    .ok_or_else(|| format!("guard variable `{}` is not set", cond.var))?;
                // Documents evaluate in place; only plain values pay the
                // wrapping copy guards need to address them.
                match var {
                    Variable::Document(d) => {
                        cond.eval(d, source, target).map_err(|e| e.to_string())?
                    }
                    Variable::Value(_) => {
                        let doc = var.guard_document();
                        cond.eval(&doc, source, target).map_err(|e| e.to_string())?
                    }
                }
            }
        };
        states.set_edge(e, if taken { EdgeState::Taken } else { EdgeState::Dead });
    }
    Ok(())
}
