//! Externalized business rules (Section 4.3 of the paper).
//!
//! Business rules are trading-partner-specific decision logic — "POs from
//! TP1 need approval above 55 000, POs from TP2 above 40 000". The paper's
//! key design point is that these rules live *outside* workflow types:
//! a generic workflow step passes `(source, target, document)` to a named
//! rule function and branches on the returned value, so adding or removing
//! a trading partner never touches a workflow definition.
//!
//! This crate provides:
//!
//! * [`expr`] — a small expression language (lexer, parser, evaluator) over
//!   documents, with `source`/`target` context variables,
//! * [`rule`] — guarded rules and rule functions with the paper's
//!   "no rule applies → error" semantics,
//! * [`registry`] — the per-enterprise rule registry keyed by function name,
//! * [`approval`] — the paper's `check-need-for-approval` rule family.

#![forbid(unsafe_code)]

pub mod approval;
pub mod error;
pub mod expr;
pub mod registry;
pub mod rule;

pub use error::{Result, RuleError};
pub use expr::{Expr, RuleContext};
pub use registry::RuleRegistry;
pub use rule::{BusinessRule, RuleFunction};
