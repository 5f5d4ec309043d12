//! Identifier newtypes for the WFMS.

use serde::{Content, Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Declares a string identifier backed by a shared `Arc<str>`: clones
/// (history events, outbox entries, queued copies) bump a reference
/// count instead of copying the name. It serializes as a plain string,
/// exactly like the `String` newtype it replaced.
macro_rules! shared_name {
    ($(#[$doc:meta])* $name:ident, $what:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(Arc<str>);

        impl $name {
            #[doc = concat!("Wraps a ", $what, " name.")]
            pub fn new(name: impl AsRef<str>) -> Self {
                Self(Arc::from(name.as_ref()))
            }

            /// The name as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl Serialize for $name {
            fn to_content(&self) -> Content {
                Content::Str(self.0.to_string())
            }
        }

        impl Deserialize for $name {
            fn from_content(content: &Content) -> Result<Self, serde::Error> {
                match content {
                    Content::Str(s) => Ok(Self::new(s)),
                    other => Err(serde::Error::custom(format!(
                        concat!(stringify!($name), " expects a string, got {}"),
                        other.kind()
                    ))),
                }
            }
        }
    };
}

shared_name!(
    /// Identifies a workflow type (definition).
    WorkflowTypeId,
    "type"
);

shared_name!(
    /// Identifies a step within a workflow type.
    StepId,
    "step"
);

shared_name!(
    /// Identifies a message channel (mailbox) on an engine.
    ChannelId,
    "channel"
);

/// Identifies a workflow instance within one engine's database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(u64);

impl InstanceId {
    /// Wraps a raw id (allocated by the database).
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Raw value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wf-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_their_content() {
        assert_eq!(WorkflowTypeId::new("po-roundtrip").to_string(), "po-roundtrip");
        assert_eq!(StepId::new("send-po").to_string(), "send-po");
        assert_eq!(ChannelId::new("edi:in").to_string(), "edi:in");
        assert_eq!(InstanceId::new(7).to_string(), "wf-7");
        assert_eq!(InstanceId::new(7).value(), 7);
    }

    #[test]
    fn shared_names_serialize_as_plain_strings() {
        let id = StepId::new("send-po");
        assert_eq!(serde_json::to_string(&id).unwrap(), "\"send-po\"");
        assert_eq!(serde_json::from_str::<StepId>("\"send-po\"").unwrap(), id);
        assert!(serde_json::from_str::<ChannelId>("7").is_err());
    }
}
