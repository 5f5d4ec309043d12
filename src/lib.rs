//! # Semantic B2B Integration
//!
//! A full reproduction of Bussler's *"The Application of Workflow
//! Technology in Semantic B2B Integration"*: public processes, private
//! processes, bindings, externalized business rules — plus the two
//! rejected architectures as measurable baselines, on a from-scratch
//! workflow engine, document/format stack, rule engine, transformation
//! engine, simulated network, and ERP simulators.
//!
//! This crate is the façade: it re-exports every subsystem crate under a
//! stable name. Start with [`integration::TwoEnterpriseScenario`] (see
//! `examples/quickstart.rs`), then explore:
//!
//! * [`document`] — documents, schemas, wire formats (EDI, XML, …)
//! * [`rules`] — the externalized business-rule engine
//! * [`transform`] — declarative document transformations
//! * [`network`] — simulated network, VAN, RNIF-style reliable messaging
//! * [`wfms`] — the workflow management system (engine + federation)
//! * [`protocol`] — public-process definitions, PIPs, BPSS, agreements
//! * [`backend`] — SAP-like and Oracle-like ERP simulators
//! * [`integration`] — the paper's architecture and its baselines

#![forbid(unsafe_code)]

pub use b2b_backend as backend;
pub use b2b_core as integration;
pub use b2b_document as document;
pub use b2b_network as network;
pub use b2b_protocol as protocol;
pub use b2b_rules as rules;
pub use b2b_transform as transform;
pub use b2b_wfms as wfms;
