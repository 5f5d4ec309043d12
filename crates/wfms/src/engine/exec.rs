//! The step interpreter.
//!
//! Workflow interpretation is split into a shared, read-only execution
//! environment ([`ExecEnv`]: activities, rules, transformations) and the
//! mutable state a settle round advances ([`ExecCtx`]: the database's
//! instance map plus the engine's [`VolatileState`]). Each instance
//! carries an `Arc` of the [`Program`] it runs, so a step reads its
//! definition, edge lists and receive index by ordinal and only ever
//! mutates its own instance.
//!
//! Everything that crosses instance boundaries — subworkflow spawns
//! (which need the shared instance-id counter) and parent completions —
//! is *deferred* into the volatile state and resolved by the engine
//! between settle rounds, in canonical `(parent, step)` order. That fixes
//! the history order the recorded fingerprints hash. Documents reach an
//! instance only through its own directed queues, so a step never reads
//! or writes another instance's state.

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

/// A subworkflow's completion (or failure), handed to its parent step
/// between settle rounds.
pub(crate) struct ParentFinish {
    pub parent: InstanceId,
    pub step: StepRef,
    pub vars: BTreeMap<String, Variable>,
    pub failure: Option<String>,
}

/// The shared, read-only half of the interpreter: everything a step
/// needs that is code or configuration rather than instance state.
pub(crate) struct ExecEnv<'a> {
    pub activities: &'a BTreeMap<String, Arc<dyn Activity>>,
    pub rules: &'a RuleRegistry,
    pub transforms: &'a TransformRegistry,
    pub now: SimTime,
}

/// Volatile (non-persisted) engine state: queues, timers, the outbox,
/// audit history, and counters. One resident copy lives in the engine,
/// and settle rounds append to it directly.
#[derive(Default)]
pub(crate) struct VolatileState {
    /// Per-instance directed queues (session-scoped routing), grouped by
    /// receiving instance so a settle round finds an instance's queues in
    /// one lookup. Documents travel by `Arc` end to end: routing hands off
    /// a pointer, and the receive step unwraps it (free while the
    /// reference is unique, copy-on-write otherwise).
    pub directed_queues: BTreeMap<InstanceId, BTreeMap<ChannelId, VecDeque<Arc<Document>>>>,
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
    /// Deferred local subworkflow spawns.
    pub spawns: Vec<SpawnRequest>,
    /// Deferred parent completions.
    pub parent_finishes: Vec<ParentFinish>,
}

/// Everything one interpretation call may touch.
pub(crate) struct ExecCtx<'a> {
    pub env: &'a ExecEnv<'a>,
    pub instances: &'a mut BTreeMap<InstanceId, WorkflowInstance>,
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
    // A finished child defers its parent's completion, which the engine
    // resolves between rounds in canonical order.
    // The variable snapshot is only taken on completion; every other
    // exit keeps the (potentially large) map un-copied.
    if let Some((parent, step)) = inst.parent {
        let finish = match &inst.status {
            InstanceStatus::Completed => Some((inst.vars.clone(), None)),
            InstanceStatus::Failed(reason) => Some((BTreeMap::new(), Some(reason.clone()))),
            InstanceStatus::Running => None,
        };
        if let Some((vars, failure)) = finish {
            ctx.vol.parent_finishes.push(ParentFinish { parent, step, vars, failure });
        }
    }
    ctx.instances.insert(id, inst);
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
            let Some(doc) = directed else { return ExecOutcome::Waiting };
            ctx.vol.stats.receives += 1;
            inst.vars.insert(var.clone(), Variable::Document(unwrap_doc(doc)));
            ExecOutcome::Completed
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
            // The engine allocates the child's id and spawns it between
            // rounds, in canonical order. Subworkflows return control ONLY on
            // completion (Section 3.1) — the parent step waits.
            ctx.vol.spawns.push(SpawnRequest {
                parent: inst.id,
                step: program.step_ref(ix),
                workflow: workflow.clone(),
                vars: inst.vars.clone(),
                source: Arc::clone(inst.source),
                target: Arc::clone(inst.target),
            });
            ExecOutcome::Waiting
        }
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

/// Resolves a parent's subworkflow step with its child's outcome: a
/// completion merges the child's variables and resumes the parent, a
/// failure fails the parent and propagates up to the grandparent.
pub(crate) fn finish_parent(
    ctx: &mut ExecCtx<'_>,
    parent_id: InstanceId,
    parent_step: StepRef,
    child_vars: BTreeMap<String, Variable>,
    failure: Option<String>,
) -> Result<()> {
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

/// Hands a directed document to instance `id`'s waiting receive step
/// `ix` and runs the instance until it blocks again.
fn receive(ctx: &mut ExecCtx<'_>, id: InstanceId, ix: usize, doc: Arc<Document>) -> Result<()> {
    let mut inst = take_instance(ctx.instances, id)?;
    let step = inst.program.step(ix);
    let StepKind::Receive { var, .. } = &step.kind else {
        unreachable!("the receive index holds receive steps only")
    };
    let (var, step_id) = (var.clone(), step.id.clone());
    inst.vars.insert(var, Variable::Document(unwrap_doc(doc)));
    ctx.vol.stats.receives += 1;
    record(ctx.vol, ctx.env.now, id, HistoryKind::Delivered(step_id));
    finish_step_and_resume(ctx, inst, ix)?;
    drain_runnable(ctx)
}

/// Runs one settle round to a fixpoint: drains the runnable queue, then
/// wakes every directed delivery whose receiver is waiting. Each wake
/// drains the runnable queue again, so nothing is left runnable after.
pub(crate) fn settle_slice(ctx: &mut ExecCtx<'_>) -> Result<()> {
    drain_runnable(ctx)?;
    wake_directed(ctx)
}

/// Completes, in `(instance, channel)` order, every directed delivery
/// whose receiver is waiting, in one pass over the directed queues.
///
/// After delivering to instance X the pass resumes at X itself, never
/// earlier. That is exactly the order of a rescan from the start after
/// every delivery: a delivery steps only its own instance (spawns and
/// parent completions defer to the engine, sends go to the outbox), so
/// every instance before X still has nothing to wake, while X may now
/// wait on any of its channels again.
fn wake_directed(ctx: &mut ExecCtx<'_>) -> Result<()> {
    let mut from = InstanceId::new(0);
    while let Some((id, ix, doc)) = next_wakeable(ctx, from) {
        receive(ctx, id, ix, doc)?;
        from = id;
    }
    Ok(())
}

/// Pops the first directed document, at or after instance `from` and in
/// `(instance, channel)` order, whose receive step is waiting; returns it
/// with its receiver.
fn next_wakeable(
    ctx: &mut ExecCtx<'_>,
    from: InstanceId,
) -> Option<(InstanceId, usize, Arc<Document>)> {
    let instances = &*ctx.instances;
    ctx.vol.directed_queues.range_mut(from..).find_map(|(id, qs)| {
        let inst = instances.get(id).filter(|i| i.status == InstanceStatus::Running)?;
        qs.iter_mut().find_map(|(channel, q)| {
            let ix = inst.waiting_receiver(channel)?;
            q.pop_front().map(|doc| (*id, ix, doc))
        })
    })
}

/// [`settle_slice`] with the directed wake done the quadratic way:
/// after every delivery, rescan all directed queues from the start. The
/// differential oracle for the single-pass wake.
#[cfg(test)]
pub(crate) fn settle_slice_rescanning(ctx: &mut ExecCtx<'_>) -> Result<()> {
    drain_runnable(ctx)?;
    while let Some((id, ix, doc)) = next_wakeable(ctx, InstanceId::new(0)) {
        receive(ctx, id, ix, doc)?;
    }
    Ok(())
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
