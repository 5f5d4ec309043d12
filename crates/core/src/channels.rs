//! Channel-name conventions between the three process layers.
//!
//! Channels are *logical* names inside workflow types; the integration
//! engine routes each emitted document to the right peer instance of the
//! same session (directed delivery), so concurrent sessions never
//! cross-talk even though they share type definitions.

use b2b_wfms::ChannelId;
use std::sync::LazyLock;

/// Declares one accessor per channel. Each id is built once per process
/// and handed out by reference, so routing a document never allocates a
/// channel name.
macro_rules! channels {
    ($($(#[$doc:meta])* $name:ident => $value:literal;)*) => {$(
        $(#[$doc])*
        pub fn $name() -> &'static ChannelId {
            static ID: LazyLock<ChannelId> = LazyLock::new(|| ChannelId::new($value));
            &ID
        }
    )*};
}

channels! {
    /// Public process: inbound business message from the partner.
    wire_in => "wire:in";
    /// Public process: outbound business message to the partner.
    wire_out => "wire:out";
    /// Public process → binding (connection step, Section 4.1.1).
    to_binding => "to-binding";
    /// Binding → public process.
    from_binding => "from-binding";
    /// Binding input from the public process.
    from_public => "from-public";
    /// Binding output toward the private process.
    to_private => "to-private";
    /// Binding input from the private process.
    from_private => "from-private";
    /// Binding output toward the public process.
    to_public => "to-public";
    /// Private process: inbound normalized document.
    private_in => "in";
    /// Private process: outbound normalized document (to the wire binding).
    private_out => "out";
    /// Private process → back-end binding.
    to_backend => "to-backend";
    /// Back-end binding → private process.
    from_backend => "from-backend";
    /// Back-end binding → application process (native document).
    to_app => "to-app";
    /// Application process → back-end binding (native document).
    from_app => "from-app";
    /// Back-end binding output toward the private process.
    backend_out => "backend-out";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_names_are_distinct() {
        let all = [
            wire_in(),
            wire_out(),
            to_binding(),
            from_binding(),
            from_public(),
            to_private(),
            from_private(),
            to_public(),
            private_in(),
            private_out(),
            to_backend(),
            from_backend(),
            to_app(),
            from_app(),
            backend_out(),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
