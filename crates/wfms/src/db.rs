//! The workflow database (Figure 4): workflow types plus instance states.

use crate::engine::instance::{InstanceRecord, WorkflowInstance};
use crate::engine::program::Program;
use crate::error::{Result, WfError};
use crate::model::{InstanceId, WorkflowType, WorkflowTypeId};
use b2b_network::fnv::FnvSet;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// In-memory workflow database with snapshot/restore.
///
/// The engine checks instances in and out of here on every advancement,
/// reproducing the architecture the paper describes: "the workflow engine
/// retrieves the state of the workflow instance in question, advances the
/// workflow instance and stores the advanced state … back into the
/// database". Types are stored compiled into programs, once per deployed
/// version; every instance shares the program it was created with.
#[derive(Debug, Default)]
pub struct WorkflowDatabase {
    types: BTreeMap<WorkflowTypeId, Arc<Program>>,
    instances: BTreeMap<InstanceId, WorkflowInstance>,
    next_instance: u64,
    /// Interned rule-context names (partners, applications, enterprises):
    /// instances share one allocation per distinct name.
    names: FnvSet<Arc<str>>,
}

/// The serialized shape of a [`WorkflowDatabase`].
#[derive(Serialize, Deserialize)]
struct DatabaseRecord {
    types: BTreeMap<WorkflowTypeId, WorkflowType>,
    instances: BTreeMap<InstanceId, InstanceRecord>,
    next_instance: u64,
}

impl WorkflowDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self { next_instance: 1, ..Self::default() }
    }

    /// Stores a workflow type, compiling it (replaces same-id older
    /// versions; instances already running keep the version they started
    /// on). Redeploying an identical definition keeps the stored program.
    pub fn put_type(&mut self, wf: WorkflowType) {
        if self.types.get(wf.id()).is_some_and(|p| p.def() == &wf) {
            return;
        }
        self.types.insert(wf.id().clone(), Arc::new(Program::compile(wf)));
    }

    /// Whether a type is present (Figure 6, step ①).
    pub fn has_type(&self, id: &WorkflowTypeId) -> bool {
        self.types.contains_key(id)
    }

    /// Fetches a type.
    pub fn get_type(&self, id: &WorkflowTypeId) -> Result<&WorkflowType> {
        self.program(id).map(|p| p.def())
    }

    /// The compiled program of a type.
    pub(crate) fn program(&self, id: &WorkflowTypeId) -> Result<&Arc<Program>> {
        self.types.get(id).ok_or_else(|| WfError::UnknownType { workflow: id.to_string() })
    }

    /// All type ids (sorted).
    pub fn type_ids(&self) -> Vec<&WorkflowTypeId> {
        self.types.keys().collect()
    }

    /// Number of stored types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Allocates the next instance id.
    pub fn allocate_instance_id(&mut self) -> InstanceId {
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        id
    }

    /// The shared allocation of a rule-context name.
    pub(crate) fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(interned) = self.names.get(name) {
            return Arc::clone(interned);
        }
        let interned: Arc<str> = Arc::from(name);
        self.names.insert(Arc::clone(&interned));
        interned
    }

    /// Inserts an instance.
    pub fn put_instance(&mut self, inst: WorkflowInstance) {
        self.instances.insert(inst.id, inst);
    }

    /// Removes an instance for in-engine state transition or migration.
    pub fn take_instance(&mut self, id: InstanceId) -> Result<WorkflowInstance> {
        self.instances.remove(&id).ok_or(WfError::UnknownInstance { instance: id.value() })
    }

    /// Reads an instance without removing it.
    pub fn get_instance(&self, id: InstanceId) -> Result<&WorkflowInstance> {
        self.instances.get(&id).ok_or(WfError::UnknownInstance { instance: id.value() })
    }

    /// Number of stored instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// All instance ids (sorted).
    pub fn instance_ids(&self) -> Vec<InstanceId> {
        self.instances.keys().copied().collect()
    }

    /// Whether `inst` runs the currently deployed version of its type.
    /// Instances on a superseded (or foreign, carried-in) program export
    /// their definition with them: nothing else could run them.
    pub(crate) fn is_current(&self, inst: &WorkflowInstance) -> bool {
        self.types.get(inst.type_id()).is_some_and(|p| Arc::ptr_eq(p, &inst.program))
    }

    /// The instance map, for the executor: instances are the mutable
    /// state every step works on.
    pub(crate) fn instances_mut(&mut self) -> &mut BTreeMap<InstanceId, WorkflowInstance> {
        &mut self.instances
    }

    /// The compiled program an instance record runs on: its own carried
    /// copy of the type if it brought one, else the deployed version.
    fn program_for(&self, record: &InstanceRecord) -> Result<Arc<Program>> {
        match &record.carried_type {
            Some(wf) => Ok(Arc::new(Program::compile(wf.clone()))),
            None => self.program(&record.type_id).cloned(),
        }
    }

    /// Rebuilds one instance from its record (parent step unresolved).
    pub(crate) fn instance_from_record(
        &mut self,
        record: InstanceRecord,
    ) -> Result<WorkflowInstance> {
        let program = self.program_for(&record)?;
        let source = self.intern(&record.source);
        let target = self.intern(&record.target);
        WorkflowInstance::from_record(record, program, source, target)
    }

    /// Serializes the whole database. Instances carry their type's
    /// definition when `carry_types` is set or when they run a version
    /// that is no longer deployed.
    pub(crate) fn snapshot_with(&self, carry_types: bool) -> Result<String> {
        let record = DatabaseRecord {
            types: self.types.iter().map(|(id, p)| (id.clone(), p.def().clone())).collect(),
            instances: self
                .instances
                .iter()
                .map(|(id, inst)| (*id, inst.to_record(carry_types || !self.is_current(inst))))
                .collect(),
            next_instance: self.next_instance,
        };
        serde_json::to_string(&record).map_err(|e| WfError::Snapshot { reason: e.to_string() })
    }

    /// Serializes the whole database.
    pub fn snapshot(&self) -> Result<String> {
        self.snapshot_with(false)
    }

    /// Restores a database from a snapshot.
    pub fn restore(snapshot: &str) -> Result<Self> {
        let record: DatabaseRecord = serde_json::from_str(snapshot)
            .map_err(|e| WfError::Snapshot { reason: e.to_string() })?;
        let mut db = Self { next_instance: record.next_instance, ..Self::default() };
        for wf in record.types.into_values() {
            db.put_type(wf);
        }
        let mut parents = Vec::new();
        for (id, inst) in record.instances {
            if let Some(parent) = inst.parent.clone() {
                parents.push((id, parent));
            }
            let inst = db.instance_from_record(inst)?;
            db.instances.insert(id, inst);
        }
        for (child, (parent, step)) in parents {
            let step = db
                .instances
                .get(&parent)
                .and_then(|p| p.program.lookup(&step).map(|ix| p.program.step_ref(ix)))
                .ok_or_else(|| WfError::Snapshot {
                    reason: format!("instance {child}: parent step {parent}/{step} not found"),
                })?;
            db.instances.get_mut(&child).expect("restored above").parent = Some((parent, step));
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StepDef, WorkflowBuilder};

    fn wf(name: &str) -> WorkflowType {
        WorkflowBuilder::new(name).step(StepDef::noop("a")).build().unwrap()
    }

    fn instance(db: &mut WorkflowDatabase, name: &str) -> WorkflowInstance {
        let id = db.allocate_instance_id();
        let program = Arc::clone(db.program(&WorkflowTypeId::new(name)).unwrap());
        let (s, t) = (db.intern("s"), db.intern("t"));
        WorkflowInstance::new(id, program, BTreeMap::new(), s, t)
    }

    #[test]
    fn types_are_stored_and_found() {
        let mut db = WorkflowDatabase::new();
        assert!(!db.has_type(&WorkflowTypeId::new("w")));
        db.put_type(wf("w"));
        assert!(db.has_type(&WorkflowTypeId::new("w")));
        assert_eq!(db.type_count(), 1);
        assert!(db.get_type(&WorkflowTypeId::new("ghost")).is_err());
    }

    #[test]
    fn redeploying_an_identical_type_keeps_its_program() {
        let mut db = WorkflowDatabase::new();
        db.put_type(wf("w"));
        let before = Arc::clone(db.program(&WorkflowTypeId::new("w")).unwrap());
        db.put_type(wf("w"));
        assert!(Arc::ptr_eq(&before, db.program(&WorkflowTypeId::new("w")).unwrap()));
        db.put_type(wf("w").with_added_step(StepDef::noop("b"), vec![]).unwrap());
        assert!(!Arc::ptr_eq(&before, db.program(&WorkflowTypeId::new("w")).unwrap()));
    }

    #[test]
    fn instance_ids_are_sequential() {
        let mut db = WorkflowDatabase::new();
        let a = db.allocate_instance_id();
        let b = db.allocate_instance_id();
        assert_ne!(a, b);
        assert_eq!(b.value(), a.value() + 1);
    }

    #[test]
    fn names_are_interned_once() {
        let mut db = WorkflowDatabase::new();
        let a = db.intern("TP1");
        let b = db.intern("TP1");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn take_removes_the_instance() {
        let mut db = WorkflowDatabase::new();
        db.put_type(wf("w"));
        let inst = instance(&mut db, "w");
        let id = inst.id;
        db.put_instance(inst);
        assert_eq!(db.instance_count(), 1);
        let inst = db.take_instance(id).unwrap();
        assert_eq!(db.instance_count(), 0);
        assert!(db.take_instance(id).is_err());
        db.put_instance(inst);
        assert_eq!(db.instance_count(), 1);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut db = WorkflowDatabase::new();
        db.put_type(wf("w"));
        let inst = instance(&mut db, "w");
        db.put_instance(inst);
        let snap = db.snapshot().unwrap();
        let back = WorkflowDatabase::restore(&snap).unwrap();
        assert_eq!(back.snapshot().unwrap(), snap);
        assert!(WorkflowDatabase::restore("not json").is_err());
    }

    #[test]
    fn superseded_versions_travel_with_their_instances() {
        let mut db = WorkflowDatabase::new();
        db.put_type(wf("w"));
        let inst = instance(&mut db, "w");
        db.put_instance(inst);
        assert!(db.snapshot().unwrap().contains(r#""carried_type":null"#));
        db.put_type(wf("w").with_added_step(StepDef::noop("b"), vec![]).unwrap());
        let snap = db.snapshot().unwrap();
        assert!(!snap.contains(r#""carried_type":null"#), "version 1 is no longer deployed");
        let back = WorkflowDatabase::restore(&snap).unwrap();
        let inst = back.get_instance(InstanceId::new(1)).unwrap();
        assert_eq!(inst.type_version(), 1);
        assert_eq!(back.get_type(&WorkflowTypeId::new("w")).unwrap().version(), 2);
    }
}
