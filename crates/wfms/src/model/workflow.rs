//! Workflow types: step graphs with guarded control flow.

use super::condition::Condition;
use super::ids::{StepId, WorkflowTypeId};
use super::step::{StepDef, StepKind};
use crate::error::{Result, WfError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A control-flow edge, optionally guarded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source step.
    pub from: StepId,
    /// Target step.
    pub to: StepId,
    /// Guard; `None` is unconditional.
    pub guard: Option<Condition>,
}

/// A workflow type (definition).
///
/// Validation enforces: unique step ids, edges between existing steps, an
/// acyclic graph (loops are modelled by re-running subworkflows at the
/// host level), and at least one start step. The engine runs a deployed
/// type as a program compiled from it, indexed by step ordinal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowType {
    id: WorkflowTypeId,
    version: u32,
    steps: Vec<StepDef>,
    edges: Vec<Edge>,
}

impl WorkflowType {
    /// Builds and validates a workflow type.
    pub fn new(
        id: WorkflowTypeId,
        version: u32,
        steps: Vec<StepDef>,
        edges: Vec<Edge>,
    ) -> Result<Self> {
        let wf = Self { id, version, steps, edges };
        wf.validate()?;
        Ok(wf)
    }

    fn invalid(&self, reason: impl Into<String>) -> WfError {
        WfError::InvalidType { workflow: self.id.to_string(), reason: reason.into() }
    }

    fn validate(&self) -> Result<()> {
        if self.steps.is_empty() {
            return Err(self.invalid("a workflow needs at least one step"));
        }
        let mut ids = BTreeSet::new();
        for step in &self.steps {
            if !ids.insert(&step.id) {
                return Err(self.invalid(format!("duplicate step id `{}`", step.id)));
            }
        }
        for edge in &self.edges {
            for end in [&edge.from, &edge.to] {
                if !ids.contains(end) {
                    return Err(self.invalid(format!("edge references unknown step `{end}`")));
                }
            }
            if edge.from == edge.to {
                return Err(self.invalid(format!("self-loop on `{}`", edge.from)));
            }
        }
        // Cycle check via Kahn's algorithm.
        let mut indegree: BTreeMap<&StepId, usize> =
            self.steps.iter().map(|s| (&s.id, 0)).collect();
        for edge in &self.edges {
            *indegree.get_mut(&edge.to).expect("validated") += 1;
        }
        let mut queue: Vec<&StepId> =
            indegree.iter().filter(|(_, d)| **d == 0).map(|(id, _)| *id).collect();
        if queue.is_empty() {
            return Err(self.invalid("no start step (every step has a predecessor)"));
        }
        let mut visited = 0usize;
        while let Some(id) = queue.pop() {
            visited += 1;
            for edge in self.edges.iter().filter(|e| &e.from == id) {
                let d = indegree.get_mut(&edge.to).expect("validated");
                *d -= 1;
                if *d == 0 {
                    queue.push(&edge.to);
                }
            }
        }
        if visited != self.steps.len() {
            return Err(self.invalid("control flow contains a cycle"));
        }
        Ok(())
    }

    /// Type id.
    pub fn id(&self) -> &WorkflowTypeId {
        &self.id
    }

    /// Version number (bumped on every definition change).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// All steps.
    pub fn steps(&self) -> &[StepDef] {
        &self.steps
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Subworkflow types this type references directly.
    pub fn referenced_types(&self) -> Vec<&WorkflowTypeId> {
        self.steps
            .iter()
            .filter_map(|s| match &s.kind {
                StepKind::Subworkflow { workflow, .. } => Some(workflow),
                _ => None,
            })
            .collect()
    }

    /// Stable content hash of the definition — the change-management
    /// experiments prove "the private process did not change" by comparing
    /// these.
    pub fn definition_hash(&self) -> u64 {
        let json = serde_json::to_string(self).expect("workflow types serialize");
        // FNV-1a.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// Derives a new version with an extra step and edges — used by the
    /// change-management experiments to model local changes like an added
    /// audit step.
    pub fn with_added_step(&self, step: StepDef, edges: Vec<Edge>) -> Result<Self> {
        let mut steps = self.steps.clone();
        steps.push(step);
        let mut all_edges = self.edges.clone();
        all_edges.extend(edges);
        Self::new(self.id.clone(), self.version + 1, steps, all_edges)
    }
}

/// Fluent builder for workflow types.
#[derive(Debug, Default)]
pub struct WorkflowBuilder {
    id: Option<WorkflowTypeId>,
    version: u32,
    steps: Vec<StepDef>,
    edges: Vec<Edge>,
}

impl WorkflowBuilder {
    /// Starts a builder for `id`, version 1.
    pub fn new(id: &str) -> Self {
        Self { id: Some(WorkflowTypeId::new(id)), version: 1, ..Self::default() }
    }

    /// Overrides the version.
    pub fn version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Adds a step.
    pub fn step(mut self, step: StepDef) -> Self {
        self.steps.push(step);
        self
    }

    /// Adds an unconditional edge.
    pub fn edge(mut self, from: &str, to: &str) -> Self {
        self.edges.push(Edge { from: StepId::new(from), to: StepId::new(to), guard: None });
        self
    }

    /// Adds a guarded edge; the guard reads variable `var`.
    pub fn guarded_edge(mut self, from: &str, to: &str, var: &str, expr: &str) -> Self {
        let guard = Condition::parse(var, expr).expect("builder guards are static");
        self.edges.push(Edge { from: StepId::new(from), to: StepId::new(to), guard: Some(guard) });
        self
    }

    /// Finishes and validates.
    pub fn build(self) -> Result<WorkflowType> {
        WorkflowType::new(
            self.id.expect("builder always sets an id"),
            self.version,
            self.steps,
            self.edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> WorkflowType {
        WorkflowBuilder::new("linear")
            .step(StepDef::noop("a"))
            .step(StepDef::noop("b"))
            .step(StepDef::noop("c"))
            .edge("a", "b")
            .edge("b", "c")
            .build()
            .unwrap()
    }

    #[test]
    fn valid_graph_builds() {
        let wf = linear();
        assert_eq!(wf.steps().len(), 3);
        assert_eq!(
            wf.edges()[1],
            Edge { from: StepId::new("b"), to: StepId::new("c"), guard: None }
        );
    }

    #[test]
    fn validation_rejects_bad_graphs() {
        // Duplicate step id.
        assert!(WorkflowBuilder::new("w")
            .step(StepDef::noop("a"))
            .step(StepDef::noop("a"))
            .build()
            .is_err());
        // Unknown edge endpoint.
        assert!(WorkflowBuilder::new("w")
            .step(StepDef::noop("a"))
            .edge("a", "ghost")
            .build()
            .is_err());
        // Cycle.
        assert!(WorkflowBuilder::new("w")
            .step(StepDef::noop("a"))
            .step(StepDef::noop("b"))
            .edge("a", "b")
            .edge("b", "a")
            .build()
            .is_err());
        // Self-loop.
        assert!(WorkflowBuilder::new("w")
            .step(StepDef::noop("a"))
            .step(StepDef::noop("b"))
            .edge("a", "a")
            .build()
            .is_err());
        // Empty.
        assert!(WorkflowBuilder::new("w").build().is_err());
    }

    #[test]
    fn definition_hash_is_stable_and_content_sensitive() {
        assert_eq!(linear().definition_hash(), linear().definition_hash());
        let changed = linear()
            .with_added_step(
                StepDef::noop("audit"),
                vec![Edge { from: StepId::new("c"), to: StepId::new("audit"), guard: None }],
            )
            .unwrap();
        assert_ne!(linear().definition_hash(), changed.definition_hash());
        assert_eq!(changed.version(), 2);
    }

    #[test]
    fn referenced_types_lists_subworkflows() {
        let sub = WorkflowTypeId::new("sub");
        let wf = WorkflowBuilder::new("w").step(StepDef::subworkflow("s", &sub)).build().unwrap();
        assert_eq!(wf.referenced_types(), vec![&sub]);
    }

    #[test]
    fn guarded_edges_parse() {
        let wf = WorkflowBuilder::new("w")
            .step(StepDef::noop("a"))
            .step(StepDef::noop("b"))
            .guarded_edge("a", "b", "po", "document.amount > 10000")
            .build()
            .unwrap();
        assert!(wf.edges()[0].guard.is_some());
    }
}
