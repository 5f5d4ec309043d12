//! Built-in transformation programs.
//!
//! For each wire or back-end format there are four programs: PO and POA,
//! each to and from the normalized format. Every program is a plain data
//! value built from [`MappingRule`]s — adding a new format means adding one
//! such module and registering its programs, nothing else. The programs are
//! the one place that says what a wire field means: they address a
//! format-shaped document by the wire's own names (`BEG.BEG03`,
//! `E1EDK01.BELNR`), as its codec keys it.
//!
//! Status-code tables (normalized ↔ format):
//!
//! | normalized | EDI line | EDI hdr | RosettaNet | OAGIS | SAP | Oracle |
//! |---|---|---|---|---|---|---|
//! | `accepted` | `IA` | `AD` | `Accept` | `ACCEPTED` | `001` | `ACCEPTED` |
//! | `rejected` | `IR` | `RD` | `Reject` | `REJECTED` | `003` | `REJECTED` |
//! | `accepted-with-changes` | `IC` | `AC` | `Modify` | `MODIFIED` | `002` | `MODIFIED` |

mod binary;
mod edi;
mod oagis;
mod oracle;
mod rosettanet;
mod sap;

pub use binary::binary_programs;
pub use edi::edi_programs;
pub use oagis::oagis_programs;
pub use oracle::oracle_programs;
pub use rosettanet::rosettanet_programs;
pub use sap::sap_programs;

use crate::mapping::MappingRule;
use crate::program::TransformProgram;

/// All built-in programs (4 per format for PO/POA, plus the RosettaNet
/// and binary RFQ/quote pairs).
pub fn all_builtins() -> Vec<TransformProgram> {
    let mut out = Vec::with_capacity(32);
    out.extend(edi_programs());
    out.extend(rosettanet_programs());
    out.extend(oagis_programs());
    out.extend(sap_programs());
    out.extend(oracle_programs());
    out.extend(binary_programs());
    out
}

/// A value map and its inverse, from (normalized, format) code pairs.
pub(crate) fn status_maps(
    from: &str,
    to: &str,
    pairs: &[(&str, &str)],
) -> (MappingRule, MappingRule) {
    let forward = MappingRule::value_map(from, to, pairs);
    let inverted: Vec<(&str, &str)> = pairs.iter().map(|(a, b)| (*b, *a)).collect();
    let backward = MappingRule::value_map(to, from, &inverted);
    (forward, backward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_programs_have_unique_ids() {
        let programs = all_builtins();
        assert_eq!(programs.len(), 32);
        let ids: BTreeSet<String> = programs.iter().map(|p| p.id().to_string()).collect();
        assert_eq!(ids.len(), 32);
    }

    #[test]
    fn every_program_has_rules() {
        for p in all_builtins() {
            // Binary programs are whole-subtree moves (the wire shape is
            // the normalized shape), so one rule can be a full mapping.
            assert!(p.rule_count() >= 1, "{} looks empty", p.id());
        }
    }
}
