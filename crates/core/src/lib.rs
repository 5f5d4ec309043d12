//! Semantic B2B integration — the paper's contribution.
//!
//! This crate assembles the substrates (documents, rules, transformations,
//! network, WFMS, protocols, back ends) into the architecture of Section 4:
//!
//! * **Public processes** ([`compile`]) — protocol definitions compiled
//!   onto the WFMS; they exchange wire-format documents with partners and
//!   talk inward only through connection steps.
//! * **Bindings** ([`binding`]) — processes between public and private
//!   processes carrying every transformation; also the back-end bindings
//!   of Figure 14.
//! * **Private processes** ([`private_process`]) — the business logic,
//!   operating purely on the normalized format, with externalized business
//!   rules via generic rule-check steps.
//! * **The integration engine** ([`engine`]) — one per enterprise: hosts
//!   the three process layers on a WFMS, routes documents between them per
//!   session, speaks RNIF-style reliable messaging outward, and connects
//!   application processes inward.
//!
//! The rejected designs are implemented too, as measurable baselines:
//!
//! * [`baseline::distributed`] — distributed inter-organizational workflow
//!   (Section 2): one workflow spanning enterprises via type/instance
//!   migration and remote subworkflows.
//! * [`baseline::cooperative`] — cooperative workflows (Section 3): one
//!   local monolithic workflow per enterprise with inlined exchanges,
//!   transformations, and per-partner rules, including the Figure 9/10
//!   type generator whose growth E5 measures.
//!
//! [`metrics`] quantifies model sizes and knowledge exposure; [`change`]
//! quantifies change impact (Sections 4.5/4.6); [`figures`] builds each of
//! the paper's figures as an executable artifact.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod binding;
pub mod change;
pub mod channels;
pub mod compile;
pub mod deadletter;
pub mod engine;
pub mod error;
pub mod figures;
pub mod health;
pub mod metrics;
pub mod partner;
pub mod private_process;
pub mod runtime;
pub mod scenario;
pub mod session;

pub use deadletter::{DeadLetter, DeadLetterQueue, DeadLetterReason};
pub use engine::{IntegrationEngine, IntegrationStats, SessionState};
pub use error::{IntegrationError, Result};
pub use health::{BreakerState, PartnerHealth, PartnerPolicy};
pub use partner::{PartnerDirectory, TradingPartner};
pub use runtime::{EdgeError, RouteError};
pub use scenario::TwoEnterpriseScenario;
