//! Back-end application simulators.
//!
//! The paper's integration problem starts at the back ends: "business data
//! are automatically extracted from back end applications … and … inserted
//! into back-end applications once received" (Section 1). This crate
//! provides two ERP simulators with *different native formats* — a SAP-like
//! system speaking IDocs and an Oracle-like system speaking interface-table
//! rows — plus the application processes ("Store SAP PO", "Extract SAP
//! POA" in Figure 14) that connect them to bindings.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod erp;
pub mod error;
pub mod oracle_app;
pub mod orderbook;
pub mod sap;

pub use adapter::ApplicationProcess;
pub use erp::{AckPolicy, BackendApplication};
pub use error::{BackendError, Result};
pub use oracle_app::OracleSystem;
pub use orderbook::{OrderBook, OrderState};
pub use sap::SapSystem;
