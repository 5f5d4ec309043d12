//! Context values a binding supplies to a transformation.
//!
//! Partner-format envelopes carry information that does not exist in the
//! normalized document — interchange sender/receiver ids, control numbers,
//! PIP instance ids. The binding knows these (it knows which agreement the
//! message travels under), so it passes them alongside the document.

use b2b_document::Str;
use serde::{Deserialize, Serialize};

/// Envelope-level values injected by `MappingRule::Context`. Each is a
/// [`Str`], so building, cloning and injecting a short one allocates
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformContext {
    /// Wire-level sender identity.
    pub sender: Str,
    /// Wire-level receiver identity.
    pub receiver: Str,
    /// Interchange / group control number.
    pub control_number: Str,
    /// Protocol instance id (PIP instance, BOD reference id).
    pub instance_id: Str,
}

/// Which context value a `Context` rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContextKey {
    /// [`TransformContext::sender`].
    Sender,
    /// [`TransformContext::receiver`].
    Receiver,
    /// [`TransformContext::control_number`].
    ControlNumber,
    /// [`TransformContext::instance_id`].
    InstanceId,
}

impl TransformContext {
    /// Builds a context.
    pub fn new(sender: &str, receiver: &str, control_number: &str, instance_id: &str) -> Self {
        Self {
            sender: sender.into(),
            receiver: receiver.into(),
            control_number: control_number.into(),
            instance_id: instance_id.into(),
        }
    }

    /// Resolves a key.
    pub fn get(&self, key: ContextKey) -> &Str {
        match key {
            ContextKey::Sender => &self.sender,
            ContextKey::Receiver => &self.receiver,
            ContextKey::ControlNumber => &self.control_number,
            ContextKey::InstanceId => &self.instance_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_resolve() {
        let ctx = TransformContext::new("ACME", "GADGET", "007", "pip-1");
        assert_eq!(ctx.get(ContextKey::Sender), "ACME");
        assert_eq!(ctx.get(ContextKey::Receiver), "GADGET");
        assert_eq!(ctx.get(ContextKey::ControlNumber), "007");
        assert_eq!(ctx.get(ContextKey::InstanceId), "pip-1");
    }
}
