//! Error type for the transformation engine.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TransformError>;

/// Errors raised while building or applying transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// A mapping rule failed against the source document.
    Rule { program: String, rule: String, reason: String },
    /// No program registered for the requested conversion.
    NoProgram { source: String, target: String, kind: String },
    /// The document handed in does not match the program's source format
    /// or kind.
    WrongInput { program: String, reason: String },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rule { program, rule, reason } => {
                write!(f, "transform `{program}`, rule `{rule}`: {reason}")
            }
            Self::NoProgram { source, target, kind } => {
                write!(f, "no transformation registered for {kind}: {source} -> {target}")
            }
            Self::WrongInput { program, reason } => {
                write!(f, "transform `{program}` rejected its input: {reason}")
            }
        }
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_program_and_rule() {
        let e = TransformError::Rule {
            program: "edi-to-normalized-po".into(),
            rule: "move BEG.BEG03".into(),
            reason: "path not found".into(),
        };
        assert!(e.to_string().contains("edi-to-normalized-po"));
        assert!(e.to_string().contains("BEG.BEG03"));
    }
}
