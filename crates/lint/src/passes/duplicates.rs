//! Pass 5: duplicate-semantics consistency.
//!
//! `DistinctMode::Preserve` is a *claim*: the box's output is
//! duplicate-free without any enforcement. Distinct pullup makes the
//! claim only after proving it (Example 4.1: "we inferred, in phase 2,
//! that duplicates were guaranteed to be absent from the magic
//! tables"), but nothing re-checks it as later rules restructure the
//! graph — and `keys::is_dup_free` itself trusts Preserve marks, so a
//! broken claim can silently launder further claims. This pass
//! re-proves every claim from scratch: key inference must still find a
//! key with the box's own mark read as `Permit` (so the proof cannot
//! assume its own conclusion), everything else as it stands.

use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{DistinctMode, Qgm};

use crate::diag::{Code, LintReport};

/// Re-prove every claim, with `keys` a table over `qgm`.
pub fn run(qgm: &Qgm, keys: &KeyTable<'_>, report: &mut LintReport) {
    for id in qgm.box_ids() {
        if qgm.boxed(id).distinct != DistinctMode::Preserve {
            continue;
        }
        if keys.keys_with_mode(id, DistinctMode::Permit).is_empty() {
            report.push(
                Code::L030UnprovableDistinctClaim,
                Some(id),
                None,
                format!(
                    "{} claims Preserve but its output is not provably duplicate-free",
                    qgm.boxed(id).name
                ),
            );
        }
    }
}
