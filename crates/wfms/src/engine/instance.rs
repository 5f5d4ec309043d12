//! Workflow instance state.

use super::program::{Program, StepRef};
use crate::error::{Result, WfError};
use crate::model::{ChannelId, InstanceId, StepId, WorkflowType, WorkflowTypeId};
use b2b_document::{record, CorrelationId, DocKind, Document, FormatId, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A variable slot in an instance: either a business document or a plain
/// value (rule results, counters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Variable {
    /// A business document, held by `Arc`: a send step, the queues and
    /// the receiving instance's variable all share one copy. Serializes
    /// as the document itself.
    Document(Arc<Document>),
    /// A plain value.
    Value(Value),
}

impl Variable {
    /// Extracts a document, or errors naming the variable.
    pub fn as_document(&self, var: &str) -> Result<&Document> {
        match self {
            Self::Document(d) => Ok(d),
            Self::Value(v) => Err(WfError::StepFailed {
                workflow: String::new(),
                step: String::new(),
                reason: format!("variable `{var}` holds a {} value, not a document", v.type_name()),
            }),
        }
    }

    /// Document a guard condition can evaluate against: documents are
    /// borrowed in place; plain values are wrapped so guards address them
    /// as `document.value`.
    pub fn guard_document(&self) -> Cow<'_, Document> {
        match self {
            Self::Document(d) => Cow::Borrowed(d),
            Self::Value(v) => Cow::Owned(Document::new(
                DocKind::Receipt,
                FormatId::custom("variable"),
                CorrelationId::new("guard"),
                record! { "value" => v.clone() },
            )),
        }
    }
}

/// Per-step execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepState {
    /// Not yet executed.
    Pending,
    /// Waiting for a message, timer, or subworkflow.
    Waiting,
    /// Finished.
    Completed,
    /// Eliminated by a false branch guard.
    Skipped,
}

/// Per-edge resolution state (dead-path elimination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeState {
    /// Source step not resolved yet.
    Unresolved,
    /// Token flowed along this edge.
    Taken,
    /// Guard was false or source was skipped.
    Dead,
}

/// Overall instance status.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceStatus {
    /// Executing or blocked on receive/timer/subworkflow.
    Running,
    /// All steps completed or skipped.
    Completed,
    /// A step failed; the reason is recorded.
    Failed(String),
}

/// Step states by ordinal followed by edge states by edge index, one
/// byte each, in a single allocation.
#[derive(Debug)]
pub(crate) struct States {
    cells: Box<[u8]>,
    steps: usize,
}

impl States {
    fn new(steps: usize, edges: usize) -> Self {
        Self { cells: vec![0; steps + edges].into_boxed_slice(), steps }
    }

    pub(crate) fn step(&self, ix: usize) -> StepState {
        match self.cells[ix] {
            0 => StepState::Pending,
            1 => StepState::Waiting,
            2 => StepState::Completed,
            _ => StepState::Skipped,
        }
    }

    pub(crate) fn set_step(&mut self, ix: usize, state: StepState) {
        self.cells[ix] = state as u8;
    }

    pub(crate) fn edge(&self, e: u32) -> EdgeState {
        match self.cells[self.steps + e as usize] {
            0 => EdgeState::Unresolved,
            1 => EdgeState::Taken,
            _ => EdgeState::Dead,
        }
    }

    pub(crate) fn set_edge(&mut self, e: u32, state: EdgeState) {
        self.cells[self.steps + e as usize] = state as u8;
    }

    fn steps(&self) -> impl Iterator<Item = StepState> + '_ {
        (0..self.steps).map(|ix| self.step(ix))
    }
}

/// One workflow instance, laid out densely: it shares the compiled
/// program of its type (the version it was created with), keeps step
/// and edge states in one ordinal-indexed byte vector, and interns its
/// rule-context names.
///
/// Instances serialize through an instance record, the string-keyed shape
/// of migration exports (Section 2.1's "at any point in time a workflow
/// instance is either persisted in the database or in state transition
/// in the workflow engine") and database snapshots.
#[derive(Debug)]
pub struct WorkflowInstance {
    /// Instance id (engine-local).
    pub id: InstanceId,
    /// Overall status.
    pub status: InstanceStatus,
    /// Variables.
    pub vars: BTreeMap<String, Variable>,
    pub(crate) program: Arc<Program>,
    pub(crate) states: States,
    /// Rule-context source (trading partner or application the triggering
    /// document came from), interned.
    pub(crate) source: Arc<str>,
    /// Rule-context target, interned.
    pub(crate) target: Arc<str>,
    /// Parent (instance, step) when this is a subworkflow.
    pub(crate) parent: Option<(InstanceId, StepRef)>,
}

impl WorkflowInstance {
    /// Creates a fresh instance of `program`.
    pub(crate) fn new(
        id: InstanceId,
        program: Arc<Program>,
        vars: BTreeMap<String, Variable>,
        source: Arc<str>,
        target: Arc<str>,
    ) -> Self {
        let states = States::new(program.step_count(), program.edge_count());
        Self {
            id,
            status: InstanceStatus::Running,
            vars,
            program,
            states,
            source,
            target,
            parent: None,
        }
    }

    /// Type this instance executes.
    pub fn type_id(&self) -> &WorkflowTypeId {
        self.program.def().id()
    }

    /// Type version captured at creation.
    pub fn type_version(&self) -> u32 {
        self.program.def().version()
    }

    /// Parent instance and step when this is a subworkflow.
    pub fn parent(&self) -> Option<(InstanceId, &StepId)> {
        self.parent.map(|(id, step)| (id, &self.program.step(step.ix()).id))
    }

    /// State of a step (`Pending` for names the type does not have).
    pub fn step_state(&self, id: &StepId) -> StepState {
        self.program.lookup(id).map_or(StepState::Pending, |ix| self.states.step(ix))
    }

    /// Whether every step is completed or skipped.
    pub fn all_steps_resolved(&self) -> bool {
        self.states.steps().all(|s| matches!(s, StepState::Completed | StepState::Skipped))
    }

    /// The first receive step on `channel` that is waiting right now.
    pub(crate) fn waiting_receiver(&self, channel: &ChannelId) -> Option<usize> {
        self.program
            .receivers(channel)
            .iter()
            .map(|&ix| ix as usize)
            .find(|&ix| self.states.step(ix) == StepState::Waiting)
    }

    /// Reads a variable.
    pub fn var(&self, name: &str) -> Result<&Variable> {
        self.vars.get(name).ok_or_else(|| WfError::StepFailed {
            workflow: self.type_id().to_string(),
            step: String::new(),
            reason: format!("variable `{name}` is not set"),
        })
    }

    /// The serialized shape of this instance. `carry_type` embeds the
    /// type definition (Section 2.1's carry-type trade-off).
    pub(crate) fn to_record(&self, carry_type: bool) -> InstanceRecord {
        let program = &self.program;
        InstanceRecord {
            id: self.id,
            type_id: self.type_id().clone(),
            type_version: self.type_version(),
            status: self.status.clone(),
            step_states: (0..program.step_count())
                .map(|ix| (program.step(ix).id.clone(), self.states.step(ix)))
                .collect(),
            edge_states: (0..program.edge_count() as u32).map(|e| self.states.edge(e)).collect(),
            vars: self.vars.clone(),
            source: self.source.to_string(),
            target: self.target.to_string(),
            parent: self.parent().map(|(id, step)| (id, step.clone())),
            carried_type: carry_type.then(|| program.def().clone()),
        }
    }

    /// Rebuilds an instance from its serialized shape on `program`; the
    /// record's step and edge states must fit the program exactly. The
    /// parent step, if any, is resolved by the caller.
    pub(crate) fn from_record(
        record: InstanceRecord,
        program: Arc<Program>,
        source: Arc<str>,
        target: Arc<str>,
    ) -> Result<Self> {
        let mismatch = |what: &str| WfError::Snapshot {
            reason: format!(
                "instance {} does not fit version {} of `{}`: {what}",
                record.id,
                program.def().version(),
                program.def().id()
            ),
        };
        if record.edge_states.len() != program.edge_count() {
            return Err(mismatch("edge count differs"));
        }
        let mut states = States::new(program.step_count(), program.edge_count());
        for (step, state) in &record.step_states {
            let ix = program.lookup(step).ok_or_else(|| mismatch("unknown step"))?;
            states.set_step(ix, *state);
        }
        for (e, state) in record.edge_states.iter().enumerate() {
            states.set_edge(e as u32, *state);
        }
        Ok(Self {
            id: record.id,
            status: record.status,
            vars: record.vars,
            program,
            states,
            source,
            target,
            parent: None,
        })
    }
}

/// The serialized shape of a [`WorkflowInstance`]: step states keyed by
/// step name, owned strings, and an optional embedded type. Migration
/// exports and database snapshots write exactly these bytes.
#[derive(Serialize, Deserialize)]
pub(crate) struct InstanceRecord {
    pub id: InstanceId,
    pub type_id: WorkflowTypeId,
    pub type_version: u32,
    pub status: InstanceStatus,
    pub step_states: BTreeMap<StepId, StepState>,
    pub edge_states: Vec<EdgeState>,
    pub vars: BTreeMap<String, Variable>,
    pub source: String,
    pub target: String,
    pub parent: Option<(InstanceId, StepId)>,
    pub carried_type: Option<WorkflowType>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StepDef, WorkflowBuilder};

    fn program() -> Arc<Program> {
        let wf = WorkflowBuilder::new("w")
            .step(StepDef::noop("b"))
            .step(StepDef::noop("a"))
            .edge("b", "a")
            .build()
            .unwrap();
        Arc::new(Program::compile(wf))
    }

    fn instance() -> WorkflowInstance {
        WorkflowInstance::new(
            InstanceId::new(1),
            program(),
            BTreeMap::new(),
            "s".into(),
            "t".into(),
        )
    }

    #[test]
    fn fresh_instance_is_pending_everywhere() {
        let inst = instance();
        assert_eq!(inst.status, InstanceStatus::Running);
        assert_eq!(inst.step_state(&StepId::new("a")), StepState::Pending);
        assert_eq!(inst.states.edge(0), EdgeState::Unresolved);
        assert!(!inst.all_steps_resolved());
        assert!(inst.to_record(false).carried_type.is_none());
    }

    #[test]
    fn carry_type_records_embed_the_definition() {
        let inst = instance();
        let plain = serde_json::to_string(&inst.to_record(false)).unwrap();
        let carrying = serde_json::to_string(&inst.to_record(true)).unwrap();
        assert!(carrying.len() > plain.len(), "carried type makes the record strictly bigger");
    }

    #[test]
    fn records_key_states_by_name_and_round_trip() {
        let mut inst = instance();
        inst.states.set_step(0, StepState::Completed);
        inst.states.set_edge(0, EdgeState::Taken);
        inst.states.set_step(1, StepState::Waiting);
        inst.vars.insert(
            "po".into(),
            Variable::Document(b2b_document::normalized::sample_po("1", 10).into()),
        );
        let json = serde_json::to_string(&inst.to_record(true)).unwrap();
        assert!(json.contains(r#""step_states":{"a":"Waiting","b":"Completed"}"#), "{json}");
        let record: InstanceRecord = serde_json::from_str(&json).unwrap();
        let back =
            WorkflowInstance::from_record(record, program(), "s".into(), "t".into()).unwrap();
        assert_eq!(serde_json::to_string(&back.to_record(true)).unwrap(), json);
        assert_eq!(back.step_state(&StepId::new("a")), StepState::Waiting);
    }

    #[test]
    fn records_that_do_not_fit_the_program_are_rejected() {
        let mut record = instance().to_record(false);
        record.edge_states.push(EdgeState::Dead);
        assert!(WorkflowInstance::from_record(record, program(), "s".into(), "t".into()).is_err());
        let mut record = instance().to_record(false);
        record.step_states.insert(StepId::new("ghost"), StepState::Completed);
        assert!(WorkflowInstance::from_record(record, program(), "s".into(), "t".into()).is_err());
    }

    #[test]
    fn guard_document_wraps_plain_values() {
        let v = Variable::Value(Value::Bool(true));
        let doc = v.guard_document();
        assert_eq!(doc.get("value").unwrap(), &Value::Bool(true));
        assert!(v.as_document("x").is_err());
    }
}
