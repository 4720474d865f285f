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

use starmagic_catalog::Catalog;
use starmagic_qgm::keys::KeyTable;
use starmagic_qgm::{DistinctMode, Qgm};

use crate::diag::{Code, LintReport};

pub fn run(qgm: &Qgm, catalog: &Catalog, report: &mut LintReport) {
    // Built on the first claim: most graphs make none.
    let mut table = None;
    for id in qgm.box_ids() {
        if qgm.boxed(id).distinct != DistinctMode::Preserve {
            continue;
        }
        let keys = table
            .get_or_insert_with(|| KeyTable::new(qgm, catalog))
            .keys_with_mode(id, DistinctMode::Permit);
        if keys.is_empty() {
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
