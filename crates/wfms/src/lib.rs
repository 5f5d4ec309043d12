//! A workflow management system (WFMS) built from scratch.
//!
//! Section 2.1 of the paper describes the architecture this crate
//! implements: a *workflow engine* interprets *workflow instances* whose
//! state lives in a *workflow database* together with the *workflow types*
//! (Figure 4). On top of that single-engine core, [`federation`] adds the
//! paper's distribution cases (Figures 5–7): workflow-instance migration
//! between engines, automatic workflow-type migration, and subworkflow
//! distribution to a remote engine.
//!
//! Design decisions that mirror the paper:
//!
//! * **Types live in the database.** An engine can only advance an
//!   instance when the instance's type (and every subworkflow type it
//!   references) is present in the engine's database — migration checks
//!   this exactly as Figure 6 does.
//! * **Dead-path elimination.** Conditional branches mark untaken edges
//!   dead; a join becomes ready once every incoming edge is resolved and at
//!   least one carried a token. This matches classic production engines
//!   (MQSeries Workflow) that the paper's process graphs assume.
//! * **Subworkflows return control only on completion** (Section 3.1).
//!   The engine deliberately has no way for a subworkflow to yield in the
//!   middle — tests demonstrate exactly the limitation the paper uses to
//!   argue that message exchanges cannot be packaged as subworkflows.
//! * **Generic steps, external behaviour.** Activities, business rules and
//!   transformations are looked up by name at runtime from registries the
//!   host installs, so workflow types stay free of partner specifics.

#![forbid(unsafe_code)]

pub mod db;
pub mod engine;
pub mod error;
pub mod federation;
pub mod history;
pub mod model;

pub use db::WorkflowDatabase;
pub use engine::{
    Activity, ActivityContext, Engine, EngineStats, InstanceStatus, SettleMetrics, Variable,
};
pub use error::{Result, WfError};
pub use federation::{EngineId, Federation, FederationStats, SharedArtifact};
pub use history::{HistoryEvent, HistoryKind};
pub use model::{
    ChannelId, Condition, Edge, InstanceId, StepDef, StepId, StepKind, WorkflowBuilder,
    WorkflowType, WorkflowTypeId,
};
